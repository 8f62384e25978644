import numpy as np
import pytest

import reference39 as ref
from acfdi.attacks import (
    AttackError,
    AttackSpec,
    AttackVector,
    OverloadTarget,
    SolverParams,
    apply_attack,
    assemble_attack_vector,
    compute_falsified_injections,
    design_attack,
)
from acfdi.estimation import full_layout, generate_measurements, measurement_model, wls_estimate
from acfdi.network import build_admittance
from acfdi.powerflow import StateVector, bus_injection
from acfdi.zones import build_zone
from conftest import flow_of


def _deviation_norm(av, zone):
    return np.sqrt(
        sum(
            (av.x_attacked.magnitude(b) - av.x_base.magnitude(b)) ** 2
            + (av.x_attacked.angle(b) - av.x_base.angle(b)) ** 2
            for b in zone.interior
        )
    )


def _target_branch(case):
    return next(b for b in case.branches if (b.from_bus, b.to_bus) == ref.TARGET)


def test_optimal_attack_meets_overload_binding(case39, adm39, base39, zone39, attack_optimal):
    br = _target_branch(case39)
    pf_base = flow_of(adm39, base39, br).pf
    pf_att = flow_of(adm39, attack_optimal.x_attacked, br).pf
    bound = ref.OVERLOAD_FACTOR * pf_base
    assert bound <= pf_att <= bound + 1e-3


def test_optimal_attack_zero_injection_balance(case39, adm39, zone39, attack_optimal):
    for bus in zone39.zero_injection_interior(case39):
        p, q = bus_injection(attack_optimal.x_attacked, case39, bus, adm39)
        assert abs(p) < 1e-6 and abs(q) < 1e-6


def test_boundary_and_exterior_states_bit_equal(case39, zone39, attack_optimal):
    av = attack_optimal
    for b in case39.buses:
        if b.id in zone39.interior:
            continue
        assert av.x_attacked.magnitude(b.id) == av.x_base.magnitude(b.id)
        assert av.x_attacked.angle(b.id) == av.x_base.angle(b.id)


def test_tie_and_frozen_line_flows_invariant(case39, adm39, zone39, attack_optimal, attack_arbitrary):
    for av in (attack_optimal, attack_arbitrary):
        for br in zone39.tie_lines + zone39.frozen_lines:
            before = flow_of(adm39, av.x_base, br)
            after = flow_of(adm39, av.x_attacked, br)
            assert abs(after.pf - before.pf) < 1e-10, (br.from_bus, br.to_bus)
            assert abs(after.qf - before.qf) < 1e-10
            assert abs(after.pt - before.pt) < 1e-10
            assert abs(after.qt - before.qt) < 1e-10


def test_slack_factor_returns_base_unchanged(case39, adm39, base39, zone39):
    # the base point already satisfies every constraint at factor 0.5
    spec = AttackSpec(zone=zone39, targets=(OverloadTarget(26, 27, 0.5),), mode="optimal")
    av = design_attack(case39, base39, spec, adm39)
    assert np.array_equal(av.x_attacked.vm, base39.vm)
    assert np.array_equal(av.x_attacked.va, base39.va)
    assert all(d == 0.0 for d in av.deltas.values())


def test_arbitrary_attack_is_feasible_and_larger(case39, adm39, base39, zone39, attack_optimal, attack_arbitrary):
    info = attack_arbitrary.solver_info
    assert info["max_violation"] < 1e-6
    assert _deviation_norm(attack_arbitrary, zone39) >= _deviation_norm(attack_optimal, zone39)


def test_optimality_ordering_across_seeds(case39, adm39, base39, zone39, attack_optimal):
    dev_opt = _deviation_norm(attack_optimal, zone39)
    for seed in (2, 3, 4):
        spec = AttackSpec(
            zone=zone39,
            targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),),
            mode="arbitrary",
            params=SolverParams(seed=seed),
        )
        av = design_attack(case39, base39, spec, adm39)
        assert _deviation_norm(av, zone39) >= dev_opt


@pytest.mark.parametrize(
    "mode, seed", [("optimal", 0), ("arbitrary", 1), ("arbitrary", 2), ("arbitrary", 3)]
)
def test_rounding_in_the_base_state_does_not_move_the_attack(
    case39, adm39, base39, zone39, mode, seed
):
    # a relative change of 2e-16 in every base vm and va is rounding in the
    # inputs; the attacked state must not amplify it into a different attack
    spec = AttackSpec(
        zone=zone39,
        targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),),
        mode=mode,
        params=SolverParams(seed=seed),
    )
    reference = design_attack(case39, base39, spec, adm39).x_attacked
    rng = np.random.default_rng(seed)
    for _ in range(3):
        vm = base39.vm * (1.0 + 2e-16 * rng.standard_normal(len(base39.vm)))
        va = base39.va * (1.0 + 2e-16 * rng.standard_normal(len(base39.va)))
        moved = design_attack(case39, StateVector(base39.bus_ids, vm, va), spec, adm39).x_attacked
        assert np.max(np.abs(moved.vm - reference.vm)) < 1e-9
        assert np.max(np.abs(moved.va - reference.va)) < 1e-9


def test_interior_magnitudes_within_bounds(case39, zone39, attack_optimal, attack_arbitrary):
    for bus in zone39.interior:
        b = case39.bus(bus)
        assert b.vmin <= attack_optimal.x_attacked.magnitude(bus) <= b.vmax
        assert b.vmin - 0.1 <= attack_arbitrary.x_attacked.magnitude(bus) <= b.vmax + 0.1


def test_target_must_be_interior_line(case39, base39, zone39):
    spec = AttackSpec(zone=zone39, targets=(OverloadTarget(2, 3, 1.3),), mode="optimal")
    with pytest.raises(AttackError, match="not an interior line"):
        design_attack(case39, base39, spec)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_outer", 0), ("max_inner", 0), ("max_start_draws", 0),
        ("tol_eq", 0.0), ("tol_eq", -1.0), ("tol_step", 0.0), ("penalty0", 0.0),
        ("tol_eq", float("nan")), ("penalty_growth", 1.0), ("penalty_growth", 0.5),
        ("ang_perturbation", -0.1), ("mag_perturbation", -0.1), ("vm_relax", -0.1),
        ("overload_margin", -1e-4),
    ],
)
def test_solver_params_reject_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field):
        SolverParams(**{field: value})


def test_solver_params_accept_boundary_values():
    SolverParams(
        max_outer=1, max_inner=1, max_start_draws=1, ang_perturbation=0.0,
        mag_perturbation=0.0, vm_relax=0.0, overload_margin=0.0,
    )


def test_constraint_model_stacks_only_the_rows_it_reads(case39, base39, zone39):
    # the shipped design reads P and Q at its zero-injection interior bus (one
    # Ybus row) and the target's from-end flow (one Yf row): 2 of the
    # 39 + 2 x 46 rows of Ybus, Yf and Yt
    adm = build_admittance(case39)
    spec = AttackSpec(
        zone=zone39, targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),), mode="optimal"
    )
    design_attack(case39, base39, spec, adm)
    (bus,) = zone39.zero_injection_interior(case39)
    full = full_layout(case39)
    wanted = (f"Pinj:{bus}", f"Qinj:{bus}", "Pf:{}-{}".format(*ref.TARGET))
    layout = full.subset([full.position[i] for i in wanted])
    assert layout.signature in adm.compiled_layouts
    (k,) = [k for k, br in enumerate(adm.branches) if (br.from_bus, br.to_bus) == ref.TARGET]
    expected = np.stack([adm.ybus[case39.bus_index(bus)], ref.current_maps(adm)[0][k]])
    assert np.array_equal(measurement_model(adm, layout).y_rows, expected)


def test_bad_factor_and_mode_rejected(zone39):
    with pytest.raises(AttackError, match="factor must be positive"):
        AttackSpec(zone=zone39, targets=(OverloadTarget(26, 27, 0.0),), mode="optimal")
    with pytest.raises(AttackError, match="unknown attack mode"):
        AttackSpec(zone=zone39, targets=(OverloadTarget(26, 27, 1.3),), mode="stealth")


# --- falsified injections -----------------------------------------------------

def test_inert_boundary_injections_unchanged(case39, adm39, base39, zone39, attack_arbitrary):
    fal = attack_arbitrary.falsified_injections
    for bus in ref.INERT_BOUNDARY:
        p0, q0 = bus_injection(base39, case39, bus, adm39)
        assert fal[bus][0] == pytest.approx(p0, abs=1e-12)
        assert fal[bus][1] == pytest.approx(q0, abs=1e-12)


def test_zero_injection_interior_maps_to_exact_zero(zone39, attack_optimal):
    assert attack_optimal.falsified_injections[17] == (0.0, 0.0)


def test_falsified_sum_matches_mixed_state_evaluation(case39, adm39, base39, zone39, attack_arbitrary):
    # the incident-line summation must reproduce a direct injection
    # evaluation at the mixed state for every non-zero-injection zone bus
    av = attack_arbitrary
    for bus, (p, q) in av.falsified_injections.items():
        if bus in zone39.inert_boundary:
            continue
        if bus in zone39.interior and not case39.has_injection(bus):
            pd, qd = bus_injection(av.x_attacked, case39, bus, adm39)
            assert abs(pd) < 1e-6 and abs(qd) < 1e-6
            continue
        p_direct, q_direct = bus_injection(av.x_attacked, case39, bus, adm39)
        assert p == pytest.approx(p_direct, abs=1e-10), bus
        assert q == pytest.approx(q_direct, abs=1e-10), bus


# --- attack vector assembly ----------------------------------------------------

def test_zero_attack_vector_has_zero_deltas(case39, adm39, base39, zone39):
    av = assemble_attack_vector(case39, base39, base39, zone39, adm=adm39)
    assert av.deltas
    assert all(d == 0.0 for d in av.deltas.values())


def test_deltas_match_independent_reevaluation(case39, adm39, base39, zone39):
    rng = np.random.default_rng(17)
    vm = {b: base39.magnitude(b) + 0.02 * rng.standard_normal() for b in zone39.interior}
    va = {b: base39.angle(b) + 0.1 * rng.standard_normal() for b in zone39.interior}
    x_att = base39.replace_buses(vm, va)
    av = assemble_attack_vector(case39, base39, x_att, zone39, adm=adm39)

    branch_by_pair = {(br.from_bus, br.to_bus): br for br in case39.in_service_branches()}
    for meas_id, delta in av.deltas.items():
        prefix, _, loc = meas_id.partition(":")
        if prefix in ("Pf", "Pt", "Qf", "Qt"):
            f, t = (int(x) for x in loc.split("-"))
            fl_att = flow_of(adm39, x_att, branch_by_pair[(f, t)])
            fl_base = flow_of(adm39, base39, branch_by_pair[(f, t)])
            expected = {
                "Pf": fl_att.pf - fl_base.pf,
                "Pt": fl_att.pt - fl_base.pt,
                "Qf": fl_att.qf - fl_base.qf,
                "Qt": fl_att.qt - fl_base.qt,
            }[prefix]
        elif prefix in ("Pinj", "Qinj"):
            p_att, q_att = bus_injection(x_att, case39, int(loc), adm39)
            p0, q0 = bus_injection(base39, case39, int(loc), adm39)
            expected = p_att - p0 if prefix == "Pinj" else q_att - q0
        elif prefix == "Vmag":
            expected = x_att.magnitude(int(loc)) - base39.magnitude(int(loc))
        else:
            expected = x_att.angle(int(loc)) - base39.angle(int(loc))
        assert delta == pytest.approx(expected, abs=1e-10), meas_id


def test_delta_keys_cover_exactly_the_affected_measurements(case39, zone39, attack_optimal):
    ids = set(attack_optimal.deltas)
    # every interior-line flow end, zone injection, interior V/angle
    for br in zone39.interior_lines:
        tag = f"{br.from_bus}-{br.to_bus}"
        for p in ("Pf", "Pt", "Qf", "Qt"):
            assert f"{p}:{tag}" in ids
    for bus in zone39.buses:
        assert f"Pinj:{bus}" in ids and f"Qinj:{bus}" in ids
    for bus in zone39.interior:
        assert f"Vmag:{bus}" in ids and f"Vang:{bus}" in ids
    # and nothing else: no tie-line flows, no exterior buses
    for br in zone39.tie_lines + zone39.frozen_lines:
        assert f"Pf:{br.from_bus}-{br.to_bus}" not in ids
    assert "Vmag:16" not in ids and "Vang:3" not in ids
    assert "Pinj:1" not in ids


def test_assembly_rejects_layout_missing_required_measurement(case39, adm39, base39, zone39, attack_optimal):
    full = full_layout(case39)
    layout = full.subset([i for i, meas_id in enumerate(full.ids) if meas_id != "Pinj:27"])
    with pytest.raises(AttackError, match="Pinj:27"):
        assemble_attack_vector(
            case39, base39, attack_optimal.x_attacked, zone39, layout, adm39
        )


def test_assembly_rejects_moved_exterior_bus(case39, adm39, base39, zone39):
    x_bad = base39.replace_buses({5: 1.01}, {})
    with pytest.raises(AttackError, match="non-interior bus 5"):
        assemble_attack_vector(case39, base39, x_bad, zone39, adm=adm39)


# --- applying attacks -----------------------------------------------------------

def test_apply_zero_vector_is_identity(case39, adm39, base39, zone39, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    av = assemble_attack_vector(case39, base39, base39, zone39, adm=adm39)
    assert np.array_equal(apply_attack(ms, av).values, ms.values)


def test_apply_then_inverse_restores(case39, adm39, base39, zone39, attack_arbitrary):
    ms = generate_measurements(case39, base39, seed=4, adm=adm39)
    av = attack_arbitrary
    inverse = AttackVector(
        x_base=av.x_base,
        x_attacked=av.x_attacked,
        deltas={k: -v for k, v in av.deltas.items()},
        falsified_injections=av.falsified_injections,
        solver_info={},
    )
    attacked = apply_attack(ms, av)
    restored = apply_attack(attacked, inverse)
    # each application rounds once; the error is bounded by the ulp of the
    # larger intermediate value
    diff = np.abs(restored.values - ms.values)
    bound = np.spacing(np.maximum(np.abs(ms.values), np.abs(attacked.values)))
    assert np.all(diff <= bound)


def test_apply_unknown_measurement_rejected(case39, adm39, base39, zone39, attack_optimal):
    ms = generate_measurements(
        case39, base39, adm=adm39, layout=full_layout(case39, kinds=("Vmag", "Vang"))
    )
    with pytest.raises(AttackError, match="no id"):
        apply_attack(ms, attack_optimal)


def test_attacked_magnitude_measurement_value(case39, adm39, base39, zone39, attack_arbitrary, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    attacked = apply_attack(ms, attack_arbitrary)
    idx = attacked.index_of("Vmag:27")
    assert attacked.values[idx] == pytest.approx(
        attack_arbitrary.x_attacked.magnitude(27), abs=1e-12
    )


def test_exact_attack_is_invisible_to_the_estimator(case39, adm39, base39, zone39, attack_arbitrary, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    res = wls_estimate(apply_attack(ms, attack_arbitrary), case39, adm39)
    assert res.j_statistic < 1e-12
    assert np.max(np.abs(res.x_hat.vm - attack_arbitrary.x_attacked.vm)) < 1e-8
    assert np.max(np.abs(res.x_hat.va - attack_arbitrary.x_attacked.va)) < 1e-8


def test_attack_vector_json_round_trip(attack_optimal):
    again = AttackVector.from_json(attack_optimal.to_json())
    assert again.deltas == attack_optimal.deltas
    assert again.falsified_injections == attack_optimal.falsified_injections
    assert np.array_equal(again.x_attacked.vm, attack_optimal.x_attacked.vm)
    assert again.to_json() == attack_optimal.to_json()


def test_design_with_built_zone(case39, adm39, base39):
    zone = build_zone(case39, {26})
    spec = AttackSpec(
        zone=zone, targets=(OverloadTarget(26, 27, 1.1),), mode="optimal"
    )
    av = design_attack(case39, base39, spec, adm39)
    br = next(b for b in case39.branches if (b.from_bus, b.to_bus) == (26, 27))
    assert flow_of(adm39, av.x_attacked, br).pf >= 1.1 * flow_of(adm39, base39, br).pf


def test_multi_target_attack(case39, adm39, base39, zone39):
    targets = (OverloadTarget(26, 27, 1.2), OverloadTarget(16, 17, 1.2))
    spec = AttackSpec(zone=zone39, targets=targets, mode="optimal")
    av = design_attack(case39, base39, spec, adm39)
    for t in targets:
        br = next(
            b for b in case39.branches if (b.from_bus, b.to_bus) == (t.from_bus, t.to_bus)
        )
        pf_base = flow_of(adm39, base39, br).pf
        pf_att = flow_of(adm39, av.x_attacked, br).pf
        assert pf_att >= t.factor * pf_base, (t.from_bus, t.to_bus)
    for bus in zone39.zero_injection_interior(case39):
        p, q = bus_injection(av.x_attacked, case39, bus, adm39)
        assert abs(p) < 1e-6 and abs(q) < 1e-6
