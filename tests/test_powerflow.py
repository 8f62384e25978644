import sys
from pathlib import Path

import numpy as np
import pytest

import reference39 as ref
from acfdi.cli import EXIT_ESTIMATOR, main
from acfdi.network import Bus, NetworkCase, build_admittance, load_bundled_case39, parse_case
from acfdi.powerflow import (
    PowerFlowError,
    StateVector,
    _NewtonEquations,
    all_injections,
    branch_flows,
    bus_injection,
    flat_start,
    newton_power_flow,
    solve_power_flow,
)
from conftest import TWO_BUS_CASE, flow_of
from meshgrid import meshed_case

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import tiled_case39  # noqa: E402


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
    assert sol.converged
    assert sol.state.angle(31) == 0.0
    assert sol.final_mismatch < 1e-8
    assert np.all(sol.state.vm > 0)


def test_case39_base_voltages_match_reference(base39):
    vm, va = ref.VOLTAGES[3]["before"]
    assert base39.magnitude(3) == pytest.approx(vm, abs=1e-3)
    assert np.degrees(base39.angle(3)) == pytest.approx(va, abs=0.05)


def test_case39_target_line_base_flow(case39, adm39, base39):
    br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (26, 27))
    fl = flow_of(adm39, base39, br)
    assert fl.pf == pytest.approx(2.573, abs=0.02)
    assert fl.qf == pytest.approx(0.6821, abs=0.02)


def test_case39_all_reference_base_flows(case39, adm39, base39):
    # every pinned reference flow row should replay from the solved base state
    for (f, t), cols in ref.FLOWS.items():
        br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (f, t))
        fl = flow_of(adm39, base39, br)
        assert fl.pf == pytest.approx(cols["before"][0], abs=0.02), (f, t)
        assert fl.qf == pytest.approx(cols["before"][1], abs=0.02), (f, t)


def test_no_potential_difference_no_flow():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    case = parse_case(text)
    state = StateVector((1, 2), np.array([1.02, 1.02]), np.array([0.0, 0.0]))
    fl = flow_of(build_admittance(case), state, case.branches[0])
    assert fl.pf == fl.qf == fl.pt == fl.qt == 0.0


def test_lossless_branch_antisymmetry():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    case = parse_case(text)
    state = StateVector((1, 2), np.array([1.05, 0.97]), np.array([0.0, -0.3]))
    fl = flow_of(build_admittance(case), state, case.branches[0])
    assert fl.pf == pytest.approx(-fl.pt, abs=1e-14)


def test_branch_flow_matches_complex_oracle_on_random_states(case39, adm39, base39):
    rng = np.random.default_rng(123)
    for _ in range(100):
        vm = base39.vm * (1.0 + 0.05 * rng.standard_normal(case39.n_bus))
        va = base39.va + 0.2 * rng.standard_normal(case39.n_bus)
        state = StateVector(base39.bus_ids, vm, va)
        sf, st = branch_flows(state, adm39)
        for k, br in enumerate(adm39.branches):
            sf_ref, st_ref = _complex_flow_oracle(state, br)
            assert sf[k].real == pytest.approx(sf_ref.real, abs=1e-10)
            assert sf[k].imag == pytest.approx(sf_ref.imag, abs=1e-10)
            assert st[k].real == pytest.approx(st_ref.real, abs=1e-10)
            assert st[k].imag == pytest.approx(st_ref.imag, abs=1e-10)
        # series loss is nonnegative whenever r >= 0
        assert np.all(sf.real + st.real >= -1e-12)


def test_branch_flows_round_as_scalar_complex_arithmetic(case39, adm39, base39):
    # numpy may fuse complex array products into FMA; the flows must not
    # depend on whether the host does, so each equals the scalar evaluation
    sf, st = branch_flows(base39, adm39)
    v = base39.complex_voltages()
    for k in range(len(adm39.branches)):
        vf, vt = v[adm39.f_idx[k]], v[adm39.t_idx[k]]
        assert sf[k] == vf * np.conj(adm39.yff[k] * vf + adm39.yft[k] * vt)
        assert st[k] == vt * np.conj(adm39.ytf[k] * vf + adm39.ytt[k] * vt)


def test_global_power_balance(case39, adm39, base39):
    # total net injection equals total branch + shunt losses, P and Q alike
    p_inj, q_inj = all_injections(base39, adm39)
    sf, st = branch_flows(base39, adm39)
    p_loss = sum(sf.real + st.real)
    q_loss = sum(sf.imag + st.imag)
    p_shunt = sum(b.gs * base39.magnitude(b.id) ** 2 for b in case39.buses)
    q_shunt = sum(-b.bs * base39.magnitude(b.id) ** 2 for b in case39.buses)
    assert p_inj.sum() == pytest.approx(p_loss + p_shunt, abs=1e-7)
    assert q_inj.sum() == pytest.approx(q_loss + q_shunt, abs=1e-7)


def test_solution_reproduces_scheduled_injections(case39, adm39, base39):
    from acfdi.powerflow import scheduled_injections

    p_sched, q_sched = scheduled_injections(case39)
    p_inj, q_inj = all_injections(base39, adm39)
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
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        newton_power_flow(case39, max_iter=0)


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
    assert fl.pf == pytest.approx(sf.real, abs=1e-12)
    assert fl.qf == pytest.approx(sf.imag, abs=1e-12)
    # positive shift makes the internal node lag, pulling power toward the
    # from side even with equal terminal angles
    assert fl.pf < -1.0
    assert fl.pt > 1.0
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


def _dense_jacobian(equations, state):
    jac = np.zeros((equations.m, equations.m))
    jac[equations.rows, equations.cols] = equations.jacobian(state)
    return jac


def test_power_flow_jacobian_matches_dense_oracle_and_differences(case39, adm39, base39, tile2):
    # the compiled model rounds differently from the BLAS diag products of the
    # dense formulas, so agreement is to rounding, not bit for bit
    for label, case, adm, state in _jacobian_cases(case39, adm39, base39, tile2):
        equations = _NewtonEquations(case, adm)
        pvpq, pq, mismatch = equations.pvpq, equations.pq, equations.mismatch
        jac = _dense_jacobian(equations, state)
        dense = ref.dense_power_flow_jacobian(case, adm, state)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(jac - dense)) <= 1e-12 * scale, label

        def at(x):
            vm, va = state.vm.copy(), state.va.copy()
            va[pvpq] = x[: len(pvpq)]
            vm[pq] = x[len(pvpq):]
            return mismatch(StateVector(state.bus_ids, vm, va))

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
    # the mismatch is the same expression on the same array as the dense
    # path's, so the first one keeps its bits; later ones follow iterates that
    # differ at rounding level, compared relative to the starting mismatch
    start = flat_start(case)
    mismatch = _NewtonEquations(case, adm).mismatch
    assert np.array_equal(mismatch(start), ref.dense_mismatch(case, adm, start.vm, start.va))
    assert sol.mismatch_history[0] == history[0]
    gap = np.abs(np.array(sol.mismatch_history) - np.array(history))
    assert np.all(gap <= 1e-12 * history[0])
    assert np.max(np.abs(sol.state.vm - vm)) <= 1e-12
    assert np.max(np.abs(sol.state.va - va)) <= 1e-12


def test_power_flow_model_builds_no_row_pair_index():
    # only gain and leverage read the row-pair index (about 1 MB at n=312)
    # and the band layout built from it; power flow calls neither, so its
    # compiled model never builds them
    case = tiled_case39(2)
    adm = build_admittance(case)
    newton_power_flow(case, adm)
    (model,) = adm.compiled_layouts.values()
    assert "_pairs" not in vars(model)
    assert "_band" not in vars(model)


# The Newton step is a block LU over the RCM band of the Jacobian; it must
# agree with the dense solve it replaced on chained grids, whose bandwidth
# stays fixed as they grow, and on lattices, whose bandwidth grows with them.
LU_GRIDS = {
    "case39": load_bundled_case39,
    **{f"tile{k}": (lambda k=k: tiled_case39(k)) for k in range(2, 9)},
    "mesh6x6": lambda: meshed_case(6, 6),
    "mesh10x10": lambda: meshed_case(10, 10),
    "lossless8x8": lambda: meshed_case(8, 8, r=0.0),
}

# the widest dense LU and product that give the same bits at 1 and 2
# OpenBLAS threads, measured on a 2-core Xeon guest with OpenBLAS 0.3.31
THREAD_INVARIANT_WIDTH = 64


@pytest.fixture(scope="module", params=sorted(LU_GRIDS))
def lu_grid(request):
    case = LU_GRIDS[request.param]()
    return case, build_admittance(case)


def test_block_lu_step_matches_dense_solve(lu_grid):
    case, adm = lu_grid
    equations = _NewtonEquations(case, adm)
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
        mismatch = equations.mismatch(state)
        expected = np.linalg.solve(_dense_jacobian(equations, state), mismatch)
        step = equations.step(equations.jacobian(state), mismatch)
        assert np.max(np.abs(step - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_newton_iterations_match_dense_replay(lu_grid):
    case, adm = lu_grid
    _, _, history = ref.dense_newton_replay(case, adm)
    assert newton_power_flow(case, adm).iterations == len(history) - 1


@pytest.mark.parametrize("tiles", range(1, 9))
def test_newton_solve_stays_within_the_thread_invariant_width(tiles, monkeypatch):
    # every dense operand of the block LU is a b x b block or a b x (b + 1)
    # right-hand side of a block solve, so the solves bound every product too
    case = load_bundled_case39() if tiles == 1 else tiled_case39(tiles)
    adm = build_admittance(case)
    widths = []
    solve = np.linalg.solve

    def recording(a, b):
        widths.append(max(a.shape + b.shape))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    newton_power_flow(case, adm)
    assert widths and max(widths) <= THREAD_INVARIANT_WIDTH


def _with_bus(case, bus):
    return NetworkCase(case.base_mva, case.buses + (bus,), case.branches, case.gens, case.name)


def test_isolated_pq_bus_is_a_singular_block():
    # the isolated bus's P and Q rows are zero, so its diagonal block is
    # singular; validation rejects such a case, so it is built directly
    case = _with_bus(parse_case(TWO_BUS_CASE), Bus(3, "PQ", 0.1, 0.05, 0.0, 0.0, 0.9, 1.1))
    with pytest.raises(PowerFlowError, match="singular Jacobian block at iteration 0"):
        newton_power_flow(case)


def _resistive_case(x: str) -> str:
    return TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", f"1 2 0.01 {x} 0")


def test_vanishing_block_on_a_resistive_branch_exits_4(tmp_path, capsys):
    # at flat start dP/dtheta and dQ/dV of a purely resistive branch vanish:
    # the full Jacobian is regular, but the LU does not pivot across blocks
    # (here 1 x 1), so it stops instead of taking a wrong step
    with pytest.raises(PowerFlowError, match="singular Jacobian block"):
        newton_power_flow(parse_case(_resistive_case("0")))
    path = tmp_path / "resistive.m"
    path.write_text(_resistive_case("0"))
    assert main(["pf", str(path)]) == EXIT_ESTIMATOR
    assert "singular Jacobian block at iteration 0" in capsys.readouterr().err


def test_inaccurate_block_step_is_rejected():
    # a reactance far below the resistance leaves a tiny but nonzero dP/dtheta
    # pivot: the block solve succeeds, and only the linear residual shows
    # that its step is wrong
    case = parse_case(_resistive_case("1e-15"))
    equations = _NewtonEquations(case, build_admittance(case))
    state = flat_start(case)
    values, mismatch = equations.jacobian(state), equations.mismatch(state)
    dense = np.linalg.solve(_dense_jacobian(equations, state), mismatch)
    assert np.all(np.isfinite(dense))
    with pytest.raises(PowerFlowError, match="inaccurate Newton step"):
        equations.step(values, mismatch)
    with pytest.raises(PowerFlowError, match="inaccurate Newton step .* at iteration 0"):
        newton_power_flow(case)
