import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference39 as ref
from acfdi import banded, network, powerflow
from acfdi.cli import EXIT_OK, main
from acfdi.estimation import MeasurementModel, bus_injection, network_powers
from acfdi.network import (
    Bus,
    NetworkCase,
    StateVector,
    build_admittance,
    load_bundled_case39,
    parse_case,
)
from acfdi.powerflow import (
    PowerFlowError,
    _NewtonPattern,
    flat_start,
    newton_power_flow,
    scheduled_injections,
    solve_power_flow,
)
from conftest import TWO_BUS_CASE, flow_of
from meshgrid import meshed_case

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import perturb_loads, tiled_case39  # noqa: E402


def _complex_flow_oracle(state, br):
    # independent phasor arithmetic, written out long-hand
    vf = state.magnitude(br.from_bus) * np.exp(1j * state.angle(br.from_bus))
    vt = state.magnitude(br.to_bus) * np.exp(1j * state.angle(br.to_bus))
    z = complex(br.r, br.x)
    tap = br.tap * np.exp(1j * br.shift)
    vf_internal = vf / tap
    i_series = (vf_internal - vt) / z
    i_from = (i_series + vf_internal * (0.5j * br.b)) / np.conj(tap)
    i_to = -i_series + vt * (0.5j * br.b)
    return vf * np.conj(i_from), vt * np.conj(i_to)


def test_case39_converges_with_slack_pinned(case39, adm39):
    sol = newton_power_flow(case39, adm39, tol=1e-8)
    assert sol.state.angle(31) == 0.0
    assert sol.mismatch_history[-1] < 1e-8
    assert np.all(sol.state.vm > 0)


def test_case39_base_voltages_match_reference(base39):
    vm, va = ref.VOLTAGES[3]["before"]
    assert base39.magnitude(3) == pytest.approx(vm, abs=1e-3)
    assert np.degrees(base39.angle(3)) == pytest.approx(va, abs=0.05)


def test_case39_target_line_base_flow(case39, adm39, base39):
    br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (26, 27))
    fl = flow_of(adm39, base39, br)
    assert fl["pf"] == pytest.approx(2.573, abs=0.02)
    assert fl["qf"] == pytest.approx(0.6821, abs=0.02)


def test_case39_all_reference_base_flows(case39, adm39, base39):
    # every pinned reference flow row should replay from the solved base state
    for (f, t), cols in ref.FLOWS.items():
        br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (f, t))
        fl = flow_of(adm39, base39, br)
        assert fl["pf"] == pytest.approx(cols["before"][0], abs=0.02), (f, t)
        assert fl["qf"] == pytest.approx(cols["before"][1], abs=0.02), (f, t)


def test_no_potential_difference_no_flow():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    case = parse_case(text)
    state = StateVector((1, 2), np.array([1.02, 1.02]), np.array([0.0, 0.0]))
    fl = flow_of(build_admittance(case), state, case.branches[0])
    assert fl["pf"] == fl["qf"] == fl["pt"] == fl["qt"] == 0.0


def test_lossless_branch_antisymmetry():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    case = parse_case(text)
    state = StateVector((1, 2), np.array([1.05, 0.97]), np.array([0.0, -0.3]))
    fl = flow_of(build_admittance(case), state, case.branches[0])
    assert fl["pf"] == pytest.approx(-fl["pt"], abs=1e-14)


def test_branch_flow_matches_complex_oracle_on_random_states(case39, adm39, base39):
    rng = np.random.default_rng(123)
    for _ in range(100):
        vm = base39.vm * (1.0 + 0.05 * rng.standard_normal(case39.n_bus))
        va = base39.va + 0.2 * rng.standard_normal(case39.n_bus)
        state = StateVector(base39.bus_ids, vm, va)
        sf, st = network_powers(state, adm39)[1:]
        for k, br in enumerate(adm39.branches):
            sf_ref, st_ref = _complex_flow_oracle(state, br)
            assert sf[k].real == pytest.approx(sf_ref.real, abs=1e-10)
            assert sf[k].imag == pytest.approx(sf_ref.imag, abs=1e-10)
            assert st[k].real == pytest.approx(st_ref.real, abs=1e-10)
            assert st[k].imag == pytest.approx(st_ref.imag, abs=1e-10)
        # series loss is nonnegative whenever r >= 0
        assert np.all(sf.real + st.real >= -1e-12)


def _same_bits(got, want):
    # equal values, and equal signs of every real and imaginary zero
    assert got == want
    assert np.signbit(got.real) == np.signbit(want.real)
    assert np.signbit(got.imag) == np.signbit(want.imag)


_SCALAR_GRIDS = {
    "case39": load_bundled_case39,
    "tile4": lambda: tiled_case39(4),
    "mesh6x6": lambda: meshed_case(6, 6),
    # a lossless grid, where a product can be an exact zero
    "mesh6x6_lossless": lambda: meshed_case(6, 6, r=0.0),
}


@pytest.mark.parametrize("grid", list(_SCALAR_GRIDS))
def test_branch_flows_round_as_scalar_complex_arithmetic(grid):
    # numpy may fuse complex array products into FMA; the flows and
    # injections must not depend on whether the host does, so each equals the
    # scalar evaluation, at flat start and at the power-flow solution
    case = _SCALAR_GRIDS[grid]()
    adm = build_admittance(case)
    for state in (flat_start(case), solve_power_flow(case, adm)):
        sf, st = network_powers(state, adm)[1:]
        v = state.complex_voltages()
        for k in range(len(adm.branches)):
            vf, vt = v[adm.f_idx[k]], v[adm.t_idx[k]]
            _same_bits(sf[k], vf * np.conj(adm.yff[k] * vf + adm.yft[k] * vt))
            _same_bits(st[k], vt * np.conj(adm.ytf[k] * vf + adm.ytt[k] * vt))
        s_bus = network_powers(state, adm)[0]
        p, q = s_bus.real, s_bus.imag
        for i, s in enumerate(ref.loop_injections(adm, state)):
            _same_bits(complex(p[i], q[i]), s)
            p_bus, q_bus = bus_injection(state, case, case.buses[i].id, adm)
            _same_bits(complex(p_bus, q_bus), s)


def test_global_power_balance(case39, adm39, base39):
    # total net injection equals total branch + shunt losses, P and Q alike
    s_bus, sf, st = network_powers(base39, adm39)
    p_inj, q_inj = s_bus.real, s_bus.imag
    p_loss = sum(sf.real + st.real)
    q_loss = sum(sf.imag + st.imag)
    p_shunt = sum(b.gs * base39.magnitude(b.id) ** 2 for b in case39.buses)
    q_shunt = sum(-b.bs * base39.magnitude(b.id) ** 2 for b in case39.buses)
    assert p_inj.sum() == pytest.approx(p_loss + p_shunt, abs=1e-7)
    assert q_inj.sum() == pytest.approx(q_loss + q_shunt, abs=1e-7)


def test_solution_reproduces_scheduled_injections(case39, adm39, base39):
    from acfdi.powerflow import scheduled_injections

    p_sched, q_sched = scheduled_injections(case39)
    s_bus = network_powers(base39, adm39)[0]
    p_inj, q_inj = s_bus.real, s_bus.imag
    for i, b in enumerate(case39.buses):
        if b.kind == "slack":
            continue
        assert p_inj[i] == pytest.approx(p_sched[i], abs=1e-8), b.id
        if b.kind == "PQ":
            assert q_inj[i] == pytest.approx(q_sched[i], abs=1e-8), b.id


def test_newton_mismatch_decreases_monotonically_at_the_tail(case39, adm39):
    sol = newton_power_flow(case39, adm39, tol=1e-10)
    tail = sol.mismatch_history[-3:]
    assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))


def test_nonconvergence_reports_final_mismatch(case39, adm39):
    with pytest.raises(PowerFlowError, match="no convergence in 2 iterations"):
        newton_power_flow(case39, adm39, tol=1e-12, max_iter=2)


def test_bad_tolerance_rejected(case39):
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_power_flow(case39, tol=0.0)
    # a nan tolerance used to pass the check and end in "no convergence"
    with pytest.raises(ValueError, match="tol must be positive"):
        newton_power_flow(case39, tol=float("nan"))
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_power_flow(case39, tol=float("nan"))
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        newton_power_flow(case39, max_iter=0)
    # an infinite one used to accept the flat start as the solution
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        newton_power_flow(case39, tol=float("inf"))


def test_state_vector_index_rejects_unknown_bus(base39):
    assert base39.index(39) == 38
    with pytest.raises(ValueError, match="bus 99"):
        base39.index(99)


def test_pass_through_bus_injection_is_zero(case39, adm39, base39):
    p, q = bus_injection(base39, case39, 17, adm39)
    assert abs(p) < 1e-8 and abs(q) < 1e-8


def test_reference_bus_injections_at_base(case39, adm39, base39):
    for bus, cols in ref.INJECTIONS.items():
        p, q = bus_injection(base39, case39, bus, adm39)
        assert p == pytest.approx(cols["before"][0], abs=0.02), bus
        assert q == pytest.approx(cols["before"][1], abs=0.02), bus


def test_pv_magnitudes_pinned_to_setpoints(case39, base39):
    for gen in case39.gens:
        if case39.bus(gen.bus).kind in ("PV", "slack"):
            assert base39.magnitude(gen.bus) == pytest.approx(gen.vset, abs=1e-12)


def test_state_vector_serialization_round_trip(base39):
    again = StateVector.from_dict(base39.to_dict())
    assert again.bus_ids == base39.bus_ids
    assert np.array_equal(again.vm, base39.vm)
    assert np.array_equal(again.va, base39.va)


def test_phase_shifted_branch_flow():
    shifted = TWO_BUS_CASE.replace(
        "1 2 0.01 0.1 0.02 250 250 250 0 0 1",
        "1 2 0.01 0.1 0.02 250 250 250 1.0 30 1",
    )
    case = parse_case(shifted)
    br = case.branches[0]
    state = StateVector((1, 2), np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    adm = build_admittance(case)
    fl = flow_of(adm, state, br)
    sf, st = _complex_flow_oracle(state, br)
    assert fl["pf"] == pytest.approx(sf.real, abs=1e-12)
    assert fl["qf"] == pytest.approx(sf.imag, abs=1e-12)
    # positive shift makes the internal node lag, pulling power toward the
    # from side even with equal terminal angles
    assert fl["pf"] < -1.0
    assert fl["pt"] > 1.0
    # the shift breaks complex symmetry: off-diagonals differ by e^{2j*shift}
    assert adm.ybus[0, 1] != adm.ybus[1, 0]
    assert adm.ybus[0, 1] == pytest.approx(
        adm.ybus[1, 0] * np.exp(2j * br.shift), abs=1e-12
    )


@pytest.fixture(scope="module")
def tile2():
    case = tiled_case39(2)
    return case, build_admittance(case)


def _jacobian_cases(case39, adm39, base39, tile2):
    """(label, case, adm, state): flat start, base39, ten seeded random states
    around it, and the flat start and solution of a two-copy tiled grid."""
    yield "flat39", case39, adm39, flat_start(case39)
    yield "base39", case39, adm39, base39
    rng = np.random.default_rng(20)
    for k in range(10):
        vm = base39.vm * (1.0 + 0.05 * rng.standard_normal(case39.n_bus))
        va = base39.va + 0.2 * rng.standard_normal(case39.n_bus)
        yield f"random39-{k}", case39, adm39, StateVector(base39.bus_ids, vm, va)
    tile_case, tile_adm = tile2
    yield "flat-tile2", tile_case, tile_adm, flat_start(tile_case)
    yield "base-tile2", tile_case, tile_adm, newton_power_flow(tile_case, tile_adm).state


def _newton_equations(case, adm):
    """The Newton pattern of adm's topology, and the function that gives the
    mismatch and the Jacobian's kept nonzeros at a state from one evaluation,
    as newton_power_flow reads them."""
    pattern = _NewtonPattern(adm)
    model = MeasurementModel(adm, pattern.layout)
    p_sched, q_sched = scheduled_injections(case)
    scheduled = np.concatenate([p_sched[pattern.pvpq], q_sched[pattern.pq]])

    def at(state):
        evaluation = model.evaluate(state)
        return scheduled - evaluation.h(), evaluation.jacobian_values()[pattern.kept]

    return pattern, at


def _dense_jacobian(pattern, values):
    jac = np.zeros((pattern.m, pattern.m))
    jac[pattern.rows, pattern.cols] = values
    return jac


def test_power_flow_jacobian_matches_dense_oracle_and_differences(case39, adm39, base39, tile2):
    # the compiled model rounds differently from the BLAS diag products of the
    # dense formulas, so agreement is to rounding, not bit for bit
    for label, case, adm, state in _jacobian_cases(case39, adm39, base39, tile2):
        pattern, equations_at = _newton_equations(case, adm)
        pvpq, pq = pattern.pvpq, pattern.pq
        jac = _dense_jacobian(pattern, equations_at(state)[1])
        dense = ref.dense_power_flow_jacobian(case, adm, state)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(jac - dense)) <= 1e-12 * scale, label

        def at(x):
            vm, va = state.vm.copy(), state.va.copy()
            va[pvpq] = x[: len(pvpq)]
            vm[pq] = x[len(pvpq):]
            return equations_at(StateVector(state.bus_ids, vm, va))[0]

        x0 = np.concatenate([state.va[pvpq], state.vm[pq]])
        step = 1e-6
        central = np.empty_like(jac)
        for j in range(len(x0)):
            dx = np.zeros_like(x0)
            dx[j] = step
            # the mismatch is scheduled minus calculated, so it falls as S rises
            central[:, j] = -(at(x0 + dx) - at(x0 - dx)) / (2 * step)
        assert np.max(np.abs(central - jac)) <= 1e-6 * scale, label


@pytest.mark.parametrize("grid", ["case39", "tile2"])
def test_newton_power_flow_replays_dense_oracle(grid, case39, adm39, tile2):
    case, adm = (case39, adm39) if grid == "case39" else tile2
    sol = newton_power_flow(case, adm)
    vm, va, history = ref.dense_newton_replay(case, adm)
    assert sol.iterations == len(history) - 1
    # the first mismatch rounds as scalar complex arithmetic does, so it
    # keeps the scalar oracle's bits; later ones follow iterates that differ
    # from the dense path's at rounding level, compared relative to the
    # starting mismatch
    start = flat_start(case)
    _, equations_at = _newton_equations(case, adm)
    first = ref.loop_mismatch(case, adm, start)
    assert np.array_equal(equations_at(start)[0], first)
    assert sol.mismatch_history[0] == np.max(np.abs(first))
    gap = np.abs(np.array(sol.mismatch_history) - np.array(history))
    assert np.all(gap <= 1e-12 * history[0])
    assert np.max(np.abs(sol.state.vm - vm)) <= 1e-12
    assert np.max(np.abs(sol.state.va - va)) <= 1e-12


def test_power_flow_model_builds_no_row_pair_index():
    # only gain and leverage read the row-pair index (about 1.3 MB at n=312)
    # and the band layout built with it; power flow calls neither, so its
    # compiled model never builds them
    case = tiled_case39(2)
    adm = build_admittance(case)
    newton_power_flow(case, adm)
    pattern = MeasurementModel(adm, _NewtonPattern(adm).layout).pattern
    assert "_gain_cells" not in vars(pattern)


def _resistive_mesh():
    # every even-index branch of a lossy lattice purely resistive: at flat
    # start its buses' dP/dangle and dQ/dV cells vanish, and the LU must
    # pivot across buses to stay regular
    case = meshed_case(5, 6, r=0.02)
    branches = tuple(
        dataclasses.replace(br, x=0.0, b=0.0) if k % 2 == 0 else br
        for k, br in enumerate(case.branches)
    )
    return dataclasses.replace(case, branches=branches)


# The Newton step is a band LU over the RCM band of the Jacobian; it must
# agree with the dense solve it replaced on chained grids, whose bandwidth
# stays fixed as they grow, and on lattices, whose bandwidth grows with them.
LU_GRIDS = {
    "case39": load_bundled_case39,
    **{f"tile{k}": (lambda k=k: tiled_case39(k)) for k in range(2, 9)},
    "mesh6x6": lambda: meshed_case(6, 6),
    "mesh10x10": lambda: meshed_case(10, 10),
    "lossless8x8": lambda: meshed_case(8, 8, r=0.0),
    "resistive5x6": _resistive_mesh,
}

# the widest band, max(kl, ku), whose LU gives the same bits at 1 and 2
# OpenBLAS threads: reference LAPACK's ilaenv gives DGBTRF the block size 1
# at ku <= 64 (32 above), so dgbtrf factors by the unblocked dgbtf2, with
# rank-one updates and no reductions; checked against ilaenv of the
# OpenBLAS 0.3.31 that numpy 2.4 bundles
THREAD_INVARIANT_WIDTH = 64


@pytest.fixture(scope="module", params=sorted(LU_GRIDS))
def lu_grid(request):
    case = LU_GRIDS[request.param]()
    return case, build_admittance(case)


def test_band_lu_step_matches_dense_solve(lu_grid):
    case, adm = lu_grid
    pattern, equations_at = _newton_equations(case, adm)
    base = newton_power_flow(case, adm).state
    rng = np.random.default_rng(31)
    states = [flat_start(case)] + [
        StateVector(
            base.bus_ids,
            base.vm * (1.0 + 0.05 * rng.standard_normal(case.n_bus)),
            base.va + 0.2 * rng.standard_normal(case.n_bus),
        )
        for _ in range(3)
    ]
    for state in states:
        mismatch, values = equations_at(state)
        expected = np.linalg.solve(_dense_jacobian(pattern, values), mismatch)
        step = pattern.step(pattern.factor(values), mismatch)
        assert np.max(np.abs(step - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_newton_iterations_match_dense_replay(lu_grid):
    case, adm = lu_grid
    _, _, history = ref.dense_newton_replay(case, adm)
    assert newton_power_flow(case, adm).iterations == len(history) - 1


@pytest.mark.parametrize("tiles", range(1, 9))
def test_newton_solve_stays_within_the_thread_invariant_width(tiles, monkeypatch):
    # the band LU is the step's one BLAS-backed call: its width is the kl and
    # ku each step hands to dgbtrf, and dgbtrs solves on the same band
    case = load_bundled_case39() if tiles == 1 else tiled_case39(tiles)
    adm = build_admittance(case)
    widths = []
    lapack = banded.lapack()
    factor = lapack.gbtrf

    def recording(band, b):
        widths.append(b)
        return factor(band, b)

    monkeypatch.setattr(lapack, "gbtrf", recording)
    newton_power_flow(case, adm)
    assert widths and max(widths) <= THREAD_INVARIANT_WIDTH


_STATE_BITS = """
import sys
sys.path.insert(0, "bench")
from grids import tiled_case39
from acfdi.powerflow import newton_power_flow
sol = newton_power_flow(tiled_case39(32))
sys.stdout.write(f"{sol.iterations} {sol.state.vm.tobytes().hex()} {sol.state.va.tobytes().hex()}")
"""


def test_power_flow_state_is_bit_equal_at_one_and_two_threads():
    # n = 1248, m = 2175 and b = 31: the band stays within
    # THREAD_INVARIANT_WIDTH
    root = Path(__file__).parent.parent
    bits = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, "-c", _STATE_BITS], cwd=root, env=env,
            capture_output=True, text=True, check=True,
        )
        bits.append(out.stdout)
    assert bits[0] == bits[1]


def _with_bus(case, bus):
    return NetworkCase(case.base_mva, case.buses + (bus,), case.branches, case.gens, case.name)


def test_isolated_pq_bus_is_a_singular_block():
    # the isolated bus's columns are zero, so the band LU meets a zero pivot
    # at one of them; validation rejects such a case, so it is built directly
    case = _with_bus(parse_case(TWO_BUS_CASE), Bus(3, "PQ", 0.1, 0.05, 0.0, 0.0, 0.9, 1.1))
    network._shared.clear()
    messages = []
    for _ in range(2):  # the second call reads the kept flat start and its factor
        with pytest.raises(
            PowerFlowError, match=r"^singular Jacobian at iteration 0 \(.*, zero pivot at bus 3\)$"
        ) as raised:
            newton_power_flow(case)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def _resistive_case(x: str) -> str:
    return TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", f"1 2 0.01 {x} 0")


def _converges_to_the_dense_replay(case):
    adm = build_admittance(case)
    vm, va, history = ref.dense_newton_replay(case, adm)
    sol = newton_power_flow(case, adm)
    assert sol.iterations == len(history) - 1 == 3
    assert np.max(np.abs(sol.state.vm - vm)) <= 1e-10
    assert np.max(np.abs(sol.state.va - va)) <= 1e-10


def test_resistive_branch_converges_to_the_dense_replay(tmp_path, capsys):
    # at flat start dP/dtheta and dQ/dV of a purely resistive branch vanish,
    # but the full Jacobian is regular: the band LU pivots across the bus's
    # two columns and converges as the dense LU does
    _converges_to_the_dense_replay(parse_case(_resistive_case("0")))
    path = tmp_path / "resistive.m"
    path.write_text(_resistive_case("0"))
    assert main(["pf", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("x", ["1e-15", "1e-12"])
def test_near_resistive_branch_converges_to_the_dense_replay(x):
    # a reactance far below the resistance leaves a tiny but nonzero
    # dP/dtheta pivot, which partial pivoting passes over
    _converges_to_the_dense_replay(parse_case(_resistive_case(x)))


# --- one network, many load snapshots -------------------------------------------

STAMP_GRIDS = ("case39", "tile2", "tile8", "mesh6x6", "resistive5x6")


def _stamp_bits(adm):
    return [getattr(adm, name).tobytes() for name in network._Stamps._fields]


@pytest.mark.parametrize("grid", STAMP_GRIDS)
def test_kept_stamps_are_the_bits_of_a_cold_build(grid):
    case = LU_GRIDS[grid]()
    snapshot = perturb_loads(case, np.random.default_rng(3))
    network._shared.clear()
    cold = build_admittance(case)
    warm = build_admittance(snapshot)
    # the loads are no input of the stamps: the snapshot reads the kept ones
    assert warm.yff is cold.yff and warm.ybus_values is cold.ybus_values
    assert warm.case is snapshot and warm.branches == snapshot.in_service_branches()
    network._shared.clear()
    fresh = build_admittance(snapshot)
    assert fresh.yff is not warm.yff
    assert _stamp_bits(warm) == _stamp_bits(fresh) == _stamp_bits(cold)


def _changed(case, change):
    """case with one value the stamps read given the other sign of zero, or
    with a rating or name, which they do not read."""
    first = case.branches[0]
    if change == "shift":
        return dataclasses.replace(case, branches=(
            dataclasses.replace(first, shift=-first.shift), *case.branches[1:]
        ))
    if change == "gs":
        bus = case.buses[0]
        return dataclasses.replace(case, buses=(
            dataclasses.replace(bus, gs=-bus.gs), *case.buses[1:]
        ))
    if change == "rating":
        return dataclasses.replace(case, branches=(
            dataclasses.replace(first, rating=0.0), *case.branches[1:]
        ))
    return dataclasses.replace(case, name="renamed")


@pytest.mark.parametrize("change", ["shift", "gs", "rating", "name"])
def test_stamps_are_kept_under_the_bits_they_read(change):
    case = load_bundled_case39()
    assert case.branches[0].shift == 0.0 and case.buses[0].gs == 0.0
    changed = _changed(case, change)
    network._shared.clear()
    kept = build_admittance(case)
    adm = build_admittance(changed)
    # -0.0 == 0.0, but a key of bits tells them apart
    assert (adm.yff is kept.yff) == (change in ("rating", "name"))
    # the model holds the caller's case and branches, never the kept entry's
    assert adm.case is changed
    assert all(a is b for a, b in zip(adm.branches, changed.in_service_branches()))
    network._shared.clear()
    assert _stamp_bits(adm) == _stamp_bits(build_admittance(changed))


def test_kept_newton_start_gives_the_bits_of_a_cold_one():
    grid = tiled_case39(8)
    rng = np.random.default_rng(29)
    snapshots = [perturb_loads(grid, rng) for _ in range(20)]
    network._shared.clear()
    newton_power_flow(grid)
    warm = [newton_power_flow(case) for case in snapshots]
    starts = [v for v in network._shared.values() if isinstance(v, powerflow._NewtonStart)]
    assert len(starts) == 1  # the loads are no input of the flat start
    for case, solution in zip(snapshots, warm):
        network._shared.clear()
        cold = newton_power_flow(case)
        assert solution.iterations == cold.iterations
        assert np.array(solution.mismatch_history).tobytes() == np.array(
            cold.mismatch_history
        ).tobytes()
        assert solution.state.vm.tobytes() == cold.state.vm.tobytes()
        assert solution.state.va.tobytes() == cold.state.va.tobytes()
