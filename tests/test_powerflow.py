import sys
from pathlib import Path

import numpy as np
import pytest

import reference39 as ref
from acfdi.network import build_admittance, parse_case
from acfdi.powerflow import (
    PowerFlowError,
    StateVector,
    _newton_equations,
    all_injections,
    branch_flow,
    bus_injection,
    flat_start,
    newton_power_flow,
    solve_power_flow,
)
from conftest import TWO_BUS_CASE

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


def test_case39_target_line_base_flow(case39, base39):
    br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (26, 27))
    fl = branch_flow(base39, br)
    assert fl.pf == pytest.approx(2.573, abs=0.02)
    assert fl.qf == pytest.approx(0.6821, abs=0.02)


def test_case39_all_reference_base_flows(case39, base39):
    # every pinned reference flow row should replay from the solved base state
    for (f, t), cols in ref.FLOWS.items():
        br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (f, t))
        fl = branch_flow(base39, br)
        assert fl.pf == pytest.approx(cols["before"][0], abs=0.02), (f, t)
        assert fl.qf == pytest.approx(cols["before"][1], abs=0.02), (f, t)


def test_no_potential_difference_no_flow():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    case = parse_case(text)
    state = StateVector((1, 2), np.array([1.02, 1.02]), np.array([0.0, 0.0]))
    fl = branch_flow(state, case.branches[0])
    assert fl.pf == fl.qf == fl.pt == fl.qt == 0.0


def test_lossless_branch_antisymmetry():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    case = parse_case(text)
    state = StateVector((1, 2), np.array([1.05, 0.97]), np.array([0.0, -0.3]))
    fl = branch_flow(state, case.branches[0])
    assert fl.pf == pytest.approx(-fl.pt, abs=1e-14)


def test_branch_flow_matches_complex_oracle_on_random_states(case39, base39):
    rng = np.random.default_rng(123)
    for _ in range(100):
        vm = base39.vm * (1.0 + 0.05 * rng.standard_normal(case39.n_bus))
        va = base39.va + 0.2 * rng.standard_normal(case39.n_bus)
        state = StateVector(base39.bus_ids, vm, va)
        br = case39.branches[rng.integers(len(case39.branches))]
        fl = branch_flow(state, br)
        sf, st = _complex_flow_oracle(state, br)
        assert fl.pf == pytest.approx(sf.real, abs=1e-10)
        assert fl.qf == pytest.approx(sf.imag, abs=1e-10)
        assert fl.pt == pytest.approx(st.real, abs=1e-10)
        assert fl.qt == pytest.approx(st.imag, abs=1e-10)
        # series loss is nonnegative whenever r >= 0
        assert fl.pf + fl.pt >= -1e-12


def test_global_power_balance(case39, adm39, base39):
    # total net injection equals total branch + shunt losses, P and Q alike
    p_inj, q_inj = all_injections(base39, adm39)
    flows = [branch_flow(base39, br) for br in case39.in_service_branches()]
    p_loss = sum(fl.pf + fl.pt for fl in flows)
    q_loss = sum(fl.qf + fl.qt for fl in flows)
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
    fl = branch_flow(state, br)
    sf, st = _complex_flow_oracle(state, br)
    assert fl.pf == pytest.approx(sf.real, abs=1e-12)
    assert fl.qf == pytest.approx(sf.imag, abs=1e-12)
    # positive shift makes the internal node lag, pulling power toward the
    # from side even with equal terminal angles
    assert fl.pf < -1.0
    assert fl.pt > 1.0
    # the shift breaks complex symmetry: off-diagonals differ by e^{2j*shift}
    adm = build_admittance(case)
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


def test_power_flow_jacobian_matches_dense_oracle_and_differences(case39, adm39, base39, tile2):
    # the compiled model rounds differently from the BLAS diag products of the
    # dense formulas, so agreement is to rounding, not bit for bit
    for label, case, adm, state in _jacobian_cases(case39, adm39, base39, tile2):
        pvpq, pq, mismatch, jacobian = _newton_equations(case, adm)
        jac = jacobian(state)
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
    _, _, mismatch, _ = _newton_equations(case, adm)
    assert np.array_equal(mismatch(start), ref.dense_mismatch(case, adm, start.vm, start.va))
    assert sol.mismatch_history[0] == history[0]
    gap = np.abs(np.array(sol.mismatch_history) - np.array(history))
    assert np.all(gap <= 1e-12 * history[0])
    assert np.max(np.abs(sol.state.vm - vm)) <= 1e-12
    assert np.max(np.abs(sol.state.va - va)) <= 1e-12


def test_power_flow_model_builds_no_row_pair_index():
    # only gain and leverage read the row-pair index (about 1 MB at n=312);
    # power flow calls neither, so its compiled model never builds it
    case = tiled_case39(2)
    adm = build_admittance(case)
    newton_power_flow(case, adm)
    (model,) = adm.compiled_layouts.values()
    assert "_pairs" not in vars(model)
