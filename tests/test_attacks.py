import dataclasses

import numpy as np
import pytest

import reference39 as ref
from acfdi.attacks import (
    _OVERLOAD_MARGIN,
    MAX_OUTER,
    AttackError,
    AttackSpec,
    AttackVector,
    OverloadTarget,
    apply_attack,
    assemble_attack_vector,
    compute_falsified_injections,
    design_attack,
)
from acfdi import network
from acfdi.estimation import (
    MeasurementModel,
    bus_injection,
    full_layout,
    generate_measurements,
    network_powers,
    wls_estimate,
)
from acfdi.network import StateVector, build_admittance
from acfdi.powerflow import newton_power_flow
from acfdi.zones import build_zone, validate_zone
from conftest import assemble, flow_of, record_evaluations, replace_buses, state_bytes
from meshgrid import meshed_case


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
    pf_base = flow_of(adm39, base39, br)["pf"]
    pf_att = flow_of(adm39, attack_optimal.x_attacked, br)["pf"]
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
            assert abs(after["pf"] - before["pf"]) < 1e-10, (br.from_bus, br.to_bus)
            assert abs(after["qf"] - before["qf"]) < 1e-10
            assert abs(after["pt"] - before["pt"]) < 1e-10
            assert abs(after["qt"] - before["qt"]) < 1e-10


def test_slack_factor_returns_base_unchanged(case39, adm39, zone39):
    # the base point already satisfies every constraint at factor 0.5: its
    # power flow is solved to rounding level (1e-12), and the target's bound
    # is met with its slack free, so the first step is at rounding level and
    # the projection returns the base untouched
    base = newton_power_flow(case39, adm39, tol=1e-12).state
    spec = AttackSpec(zone=zone39, targets=(OverloadTarget(26, 27, 0.5),), mode="optimal")
    av = design_attack(case39, base, spec, adm39)
    assert av.solver_info["outer_iterations"] == 1
    assert av.solver_info["active_targets"] == []
    assert np.array_equal(av.x_attacked.vm, base.vm)
    assert np.array_equal(av.x_attacked.va, base.va)
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
            seed=seed,
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
        seed=seed,
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


@pytest.mark.parametrize("mode", ["optimal", "arbitrary"])
def test_target_with_a_reverse_base_flow_is_rejected(case39, adm39, base39, zone39, mode):
    # 3-18 carries -0.408 p.u. from its from end at base: scaling that flow
    # by a factor asks for no overload, so the design names the target
    # instead of driving the flow across zero
    spec = AttackSpec(zone=zone39, targets=(OverloadTarget(3, 18, 1.3),), mode=mode)
    with pytest.raises(
        AttackError, match=r"^target branch 3-18 has base from-end flow -0\.4076\d* p\.u\."
    ):
        design_attack(case39, base39, spec, adm39)


@pytest.mark.parametrize("max_outer", [0, -1])
def test_spec_rejects_a_round_cap_below_one(zone39, max_outer):
    target = OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR)
    with pytest.raises(AttackError, match=f"max_outer must be at least 1, got {max_outer}$"):
        AttackSpec(zone=zone39, targets=(target,), mode="optimal", max_outer=max_outer)


def test_round_cap_stops_the_design(case39, adm39, base39, zone39):
    # the shipped optimal design takes more than one outer round; capped at
    # one, it is infeasible after that round
    target = OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR)
    spec = AttackSpec(zone=zone39, targets=(target,), mode="optimal")
    assert design_attack(case39, base39, spec, adm39).solver_info["outer_iterations"] > 1
    capped = AttackSpec(zone=zone39, targets=(target,), mode="optimal", max_outer=1)
    with pytest.raises(AttackError, match=r"after 1 outer rounds$"):
        design_attack(case39, base39, capped, adm39)


@pytest.mark.parametrize("mode, factor", [("optimal", 32.0), ("arbitrary", 38.0)])
def test_design_reaches_the_overloads_the_penalty_solver_reached(
    case39, adm39, base39, zone39, mode, factor
):
    # on the shipped target, the augmented Lagrangian that projection steps
    # replaced converged up to λ 32 (optimal) and 38 (arbitrary, seed 1) and
    # failed from 33 and 39, as projection steps do; there the optimal
    # design's rate per step is still below one
    spec = AttackSpec(
        zone=zone39, targets=(OverloadTarget(*ref.TARGET, factor),), mode=mode, seed=1
    )
    info = design_attack(case39, base39, spec, adm39).solver_info
    assert info["outer_iterations"] < MAX_OUTER
    assert info["target_flows"][0] >= info["target_bounds"][0] - 1e-9


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
    pattern = network._shared[adm.topology, layout.signature]
    (k,) = [k for k, br in enumerate(adm.branches) if (br.from_bus, br.to_bus) == ref.TARGET]
    ybus_rows, yf_rows, _ = ref.current_rows(adm)
    model = MeasurementModel(adm, layout)
    assert model.pattern is pattern
    row, col = model.pattern._e_cur, model.pattern._e_col
    y = model._yr + 1j * model._yi
    entries = [sorted(zip(col[row == r].tolist(), y[row == r].tolist())) for r in range(2)]
    assert len(model.pattern._own) == 2
    assert entries == [ybus_rows[case39.bus_index(bus)], yf_rows[k]]


def test_bad_factor_and_mode_rejected(zone39):
    with pytest.raises(AttackError, match="factor must be positive"):
        AttackSpec(zone=zone39, targets=(OverloadTarget(26, 27, 0.0),), mode="optimal")
    with pytest.raises(AttackError, match="unknown attack mode"):
        AttackSpec(zone=zone39, targets=(OverloadTarget(26, 27, 1.3),), mode="stealth")


# --- falsified injections -----------------------------------------------------

def test_inert_boundary_injections_unchanged(case39, adm39, base39, zone39, attack_arbitrary):
    fal = attack_arbitrary.falsified_injections
    for bus in ref.INERT_BOUNDARY:
        assert fal[bus] == bus_injection(base39, case39, bus, adm39), bus


def test_zero_injection_interior_maps_to_exact_zero(zone39, attack_optimal):
    assert attack_optimal.falsified_injections[17] == (0.0, 0.0)


def test_falsified_sum_matches_mixed_state_evaluation(case39, adm39, base39, zone39, attack_arbitrary):
    # every non-zero-injection zone bus, inert boundary included, reports a
    # direct injection evaluation at the mixed state bit for bit; a
    # zero-injection interior bus reports exactly 0, and the design holds its
    # evaluated injection to the solver tolerance
    av = attack_arbitrary
    for bus, (p, q) in av.falsified_injections.items():
        if bus in zone39.interior and not case39.has_injection(bus):
            assert (p, q) == (0.0, 0.0)
            pd, qd = bus_injection(av.x_attacked, case39, bus, adm39)
            assert abs(pd) < 1e-6 and abs(qd) < 1e-6
            continue
        assert (p, q) == bus_injection(av.x_attacked, case39, bus, adm39), bus


@pytest.mark.parametrize("mode", ["optimal", "arbitrary"])
def test_falsified_injections_are_the_attacked_injections_at_a_shunt_bus(case39, mode):
    # a bus shunt at interior bus 18, which carries load: its injection holds
    # a shunt term that no sum of line flows gives. Every zone bus without
    # zero injection must show what the attacked injection meters show
    buses = tuple(
        dataclasses.replace(b, gs=0.1, bs=0.5) if b.id == 18 else b for b in case39.buses
    )
    case = dataclasses.replace(case39, buses=buses)
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    zone = validate_zone(case, ref.ZONE_INTERIOR, ref.ZONE_BOUNDARY)
    spec = AttackSpec(
        zone=zone,
        targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),),
        mode=mode,
        seed=1,
    )
    av = design_attack(case, base, spec, adm)
    s_bus = network_powers(av.x_attacked, adm)[0]
    assert case.has_injection(18) and sorted(av.falsified_injections) == sorted(zone.buses)
    for bus, pq in av.falsified_injections.items():
        if bus in zone.interior and not case.has_injection(bus):
            assert pq == (0.0, 0.0)
        else:
            s = s_bus[case.bus_index(bus)]
            assert pq == (s.real, s.imag), bus


# --- attack vector assembly ----------------------------------------------------

def test_zero_attack_vector_has_zero_deltas(case39, adm39, base39, zone39):
    av = assemble(case39, base39, base39, zone39, adm39)
    assert av.deltas
    assert all(d == 0.0 for d in av.deltas.values())


def test_deltas_match_independent_reevaluation(case39, adm39, base39, zone39):
    rng = np.random.default_rng(17)
    vm = {b: base39.magnitude(b) + 0.02 * rng.standard_normal() for b in zone39.interior}
    va = {b: base39.angle(b) + 0.1 * rng.standard_normal() for b in zone39.interior}
    x_att = replace_buses(base39, vm, va)
    av = assemble(case39, base39, x_att, zone39, adm39)

    branch_by_pair = {(br.from_bus, br.to_bus): br for br in case39.in_service_branches()}
    for meas_id, delta in av.deltas.items():
        prefix, _, loc = meas_id.partition(":")
        if prefix in ("Pf", "Pt", "Qf", "Qt"):
            f, t = (int(x) for x in loc.split("-"))
            fl_att = flow_of(adm39, x_att, branch_by_pair[(f, t)])
            fl_base = flow_of(adm39, base39, branch_by_pair[(f, t)])
            expected = {
                "Pf": fl_att["pf"] - fl_base["pf"],
                "Pt": fl_att["pt"] - fl_base["pt"],
                "Qf": fl_att["qf"] - fl_base["qf"],
                "Qt": fl_att["qt"] - fl_base["qt"],
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


def test_assembly_computes_network_powers_once_per_state(
    case39, adm39, base39, zone39, attack_arbitrary, monkeypatch
):
    x_att = attack_arbitrary.x_attacked
    model = MeasurementModel(adm39, adm39.full_layout)
    at_base, at_attacked = model.evaluate(base39), model.evaluate(x_att)
    # the caller's one evaluation of the full layout per state gives both the
    # deltas and the powers; assembly evaluates nothing
    calls = record_evaluations(monkeypatch)
    av = assemble_attack_vector(case39, at_base, at_attacked, zone39, adm39)
    assert calls == []
    assert av.to_json() == assemble(case39, base39, x_att, zone39, adm39).to_json()
    # the falsified injections read the attacked powers and evaluate nothing
    calls.clear()
    powers = network_powers(x_att, adm39)
    assert len(calls) == 1
    assert compute_falsified_injections(case39, zone39, powers) == av.falsified_injections
    assert len(calls) == 1


def test_assembly_rejects_moved_exterior_bus(case39, adm39, base39, zone39):
    x_bad = replace_buses(base39, {5: 1.01}, {})
    with pytest.raises(AttackError, match="non-interior bus 5"):
        assemble(case39, base39, x_bad, zone39, adm39)


# --- applying attacks -----------------------------------------------------------

def test_apply_zero_vector_is_identity(case39, adm39, base39, zone39, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    av = assemble(case39, base39, base39, zone39, adm39)
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
    idx = attacked.layout.position["Vmag:27"]
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
    assert flow_of(adm39, av.x_attacked, br)["pf"] >= 1.1 * flow_of(adm39, base39, br)["pf"]


def test_multi_target_attack(case39, adm39, base39, zone39, two_target_kkt):
    targets = (OverloadTarget(26, 27, 1.2), OverloadTarget(16, 17, 1.2))
    spec = AttackSpec(zone=zone39, targets=targets, mode="optimal")
    av = design_attack(case39, base39, spec, adm39)
    # both targets bind: stationary with both multipliers positive (measured
    # 4.7e-7, with 5.1e-5 and 3.3e-4)
    _assert_stationary(two_target_kkt, 1.2)
    for t in targets:
        br = next(
            b for b in case39.branches if (b.from_bus, b.to_bus) == (t.from_bus, t.to_bus)
        )
        pf_base = flow_of(adm39, base39, br)["pf"]
        pf_att = flow_of(adm39, av.x_attacked, br)["pf"]
        assert pf_att >= t.factor * pf_base, (t.from_bus, t.to_bus)
    for bus in zone39.zero_injection_interior(case39):
        p, q = bus_injection(av.x_attacked, case39, bus, adm39)
        assert abs(p) < 1e-6 and abs(q) < 1e-6


# --- the optimal design is a constrained minimum --------------------------------
#
# The optimal mode minimizes f = ||Δx||², Δx the interior state's deviation
# from the base, subject to zero injection at the zero-injection interior
# buses and the target's from-end flow at λ·p0 + margin (Nocedal and Wright,
# *Numerical Optimization*, 2006, ch. 12). The checks fit the multipliers μ
# themselves, by least squares on the constraint Jacobian over the interior
# columns, and each bound is also shown to fail on a feasible point that is
# not the minimum: the solution moved along the constraint manifold by 1 % of
# ||Δx*||, which reads 1.0e-2 on stationarity and 9e-5 to 1e-4 on the
# envelope, at every λ of 1.05-2.0, and 1.0e-2 off the first-order
# prediction at λ 1.05. The deviation's rise with λ is an order that no such move
# breaks; its control is the arbitrary design.


class _Kkt:
    """The attack-design problem of a zone and its target lines, written out
    from the public model. A factor is one λ for every target or one per
    target; the target rows come last, in the order given."""

    def __init__(self, case, adm, base, zone, *targets):
        self.case, self.adm, self.base, self.zone, self.targets = case, adm, base, zone, targets
        layout = adm.full_layout
        zero = sorted(zone.zero_injection_interior(case))
        ids = [f"{kind}:{b}" for b in zero for kind in ("Pinj", "Qinj")]
        ids.extend("Pf:{}-{}".format(*t) for t in targets)
        self.layout = layout.subset([layout.position[i] for i in ids])
        self.pos = np.array([case.bus_index(b) for b in sorted(zone.interior)])
        self.model = MeasurementModel(adm, self.layout)
        self.cols = self.model.state_columns(self.pos)
        self.p0 = self.model.evaluate(base).h()[-len(targets):]
        self.anchor = self.point(base)

    def design(self, factor):
        factors = np.broadcast_to(factor, len(self.targets)).tolist()
        spec = AttackSpec(
            zone=self.zone,
            targets=tuple(OverloadTarget(*t, f) for t, f in zip(self.targets, factors)),
            mode="optimal",
        )
        return design_attack(self.case, self.base, spec, self.adm)

    def point(self, state):
        return np.concatenate([state.va[self.pos], state.vm[self.pos]])

    def state_of(self, z):
        va, vm = self.base.va.copy(), self.base.vm.copy()
        va[self.pos], vm[self.pos] = np.split(z, 2)
        return StateVector(self.base.bus_ids, vm, va)

    def constraints(self, z, factor, rows=slice(None)):
        """c(z), zero on the manifold, and its Jacobian over the interior
        columns, on the given rows."""
        at = self.model.evaluate(self.state_of(z))
        jac = np.zeros((self.model.m, self.model.n_state))
        jac[self.model.rows, self.model.cols] = at.jacobian_values()
        c = at.h()
        c[-len(self.p0):] -= np.asarray(factor) * self.p0 + _OVERLOAD_MARGIN
        return c[rows], jac[rows][:, self.cols]

    def stationarity(self, z, factor, rows=slice(None)):
        """μ fitting 2(z - anchor) = Jᵀμ over the given rows by least
        squares, and the relative residual of the fit."""
        grad = 2.0 * (z - self.anchor)
        jac_t = self.constraints(z, factor, rows)[1].T
        mu = np.linalg.lstsq(jac_t, grad, rcond=None)[0]
        return mu, np.linalg.norm(jac_t @ mu - grad) / np.linalg.norm(grad)

    def moved(self, z, factor, share=0.01, rows=slice(None)):
        """A point at share·||z - anchor|| from z that meets the given rows: a
        seeded step in the null space of their Jacobian, then Gauss-Newton
        back onto their manifold by minimum-norm corrections."""
        jac = self.constraints(z, factor, rows)[1]
        null = np.linalg.svd(jac)[2][len(jac):]
        step = null.T @ np.random.default_rng(0).standard_normal(len(null))
        y = z + step * (share * np.linalg.norm(z - self.anchor) / np.linalg.norm(step))
        for _ in range(8):
            c, jac = self.constraints(y, factor, rows)
            y = y - np.linalg.lstsq(jac, c, rcond=None)[0]
        assert np.max(np.abs(self.constraints(y, factor, rows)[0])) <= 1e-12
        return y


@pytest.fixture(scope="module")
def kkt(case39, adm39, base39, zone39):
    return _Kkt(case39, adm39, base39, zone39, ref.TARGET)


@pytest.fixture(scope="module")
def two_target_kkt(case39, adm39, base39, zone39):
    return _Kkt(case39, adm39, base39, zone39, (26, 27), (16, 17))


@pytest.fixture(scope="module", params=[0.05, 0.005, 0.0], ids=lambda r: f"r{r}")
def lattice_kkt(request):
    """The focal {8, 9, 14} study of the 5 x 6 lattice at branch resistance r,
    target 8-9: no interior bus is zero-injection, so the target row is the
    one constraint."""
    case = meshed_case(5, 6, r=request.param)
    adm = build_admittance(case)
    zone = build_zone(case, {8, 9, 14})
    assert not zone.zero_injection_interior(case)
    return _Kkt(case, adm, newton_power_flow(case, adm).state, zone, (8, 9))


# measured on case39: 3.0e-8 at λ 1.05, 1.8e-7 at 1.3 and 5.9e-7 at 2.0; on
# the lattices: 9.9e-8 to 2.3e-6 over r and λ 1.05-1.5, the largest at
# r = 0.05 and λ 1.5. The bound keeps a margin of 4.3 over the largest, 1e3
# under the moved point's 1e-2
STATIONARITY_BOUND = 1e-5


def _assert_stationary(kkt, factor):
    z = kkt.point(kkt.design(factor).x_attacked)
    mu, residual = kkt.stationarity(z, factor)
    assert residual <= STATIONARITY_BOUND
    # every overload binds, and more of it costs deviation
    assert np.all(mu[-len(kkt.targets):] > 0), mu
    assert kkt.stationarity(kkt.moved(z, factor), factor)[1] > 100 * STATIONARITY_BOUND


@pytest.mark.parametrize("factor", [1.005, 1.01, 1.02, 1.05, 1.3, 2.0])
def test_optimal_design_is_stationary(kkt, factor):
    _assert_stationary(kkt, factor)


@pytest.mark.parametrize("factor", [1.01, 1.3, 2.0])
def test_solver_report_gives_the_fitted_multiplier(kkt, factor):
    # the last KKT solve's multiplier is the least-squares μ of the
    # stationarity fit, and μ·p0 the marginal stealth cost the envelope
    # tests check; the target and no magnitude bound is active
    av = kkt.design(factor)
    info, z = av.solver_info, kkt.point(av.x_attacked)
    mu = kkt.stationarity(z, factor)[0][-1]
    (reported,) = info["target_multipliers"]
    assert reported == pytest.approx(mu, rel=1e-8)
    assert info["target_prices"] == [reported * kkt.p0[0]]
    assert info["active_targets"] == ["Pf:{}-{}".format(*kkt.targets[0])]
    assert info["active_bounds"] == {"vmin": [], "vmax": []}
    assert info["stationarity"] <= 1e-12 * np.linalg.norm(z - kkt.anchor)


@pytest.mark.parametrize("factor", [1.05, 1.2, 1.5])
def test_optimal_design_is_stationary_on_lattices(lattice_kkt, factor):
    _assert_stationary(lattice_kkt, factor)


def test_a_target_that_does_not_bind_is_free_of_cost(two_target_kkt):
    # 16-17 at λ 1.01 beside 26-27 at 1.2: meeting 26-27 already carries
    # 16-17 past its bound, so its slack is free and only the zero-injection
    # and 26-27 rows bind. Measured: 8.1e-7 over those rows, with 16-17's
    # multiplier in the fit over all rows at -1.6e-10 beside 26-27's 9.5e-5
    factor = (1.2, 1.01)
    av = two_target_kkt.design(factor)
    z = two_target_kkt.point(av.x_attacked)
    assert av.solver_info["target_flows"][1] > av.solver_info["target_bounds"][1] + 1e-2
    binding = slice(0, -1)
    mu, residual = two_target_kkt.stationarity(z, factor, binding)
    assert residual <= STATIONARITY_BOUND
    assert mu[-1] > 0
    mu = two_target_kkt.stationarity(z, factor)[0]
    assert abs(mu[-1]) <= STATIONARITY_BOUND * abs(mu[-2])
    moved = two_target_kkt.moved(z, factor, rows=binding)
    assert two_target_kkt.stationarity(moved, factor, binding)[1] > 100 * STATIONARITY_BOUND


# measured: μ_target·p0 and the central difference of the objective in λ
# (δ = 1e-3) agree to 4.5e-8 relative or better at λ 1.05-2.0 on case39, and
# to 4.3e-8 to 3.4e-7 at λ 1.05-1.5 on the lattices, the largest at r = 0.05
# and λ 1.05; the bound keeps a margin of 2.9 over the largest, and the
# moved points read 9e-5 to 1.3e-4
ENVELOPE_BOUND = 1e-6
ENVELOPE_STEP = 1e-3


def _assert_priced(kkt, factor):
    # the envelope theorem: df*/dλ = μ_target · d(λ p0)/dλ, so the target's
    # multiplier is the marginal stealth cost of more overload
    def gap(solution):
        """Relative gap between μ_target·p0 at λ and the central difference
        of the objective; solution(λ) gives a point and its objective."""
        mu = kkt.stationarity(solution(factor)[0], factor)[0]
        ahead, behind = (solution(factor + s)[1] for s in (ENVELOPE_STEP, -ENVELOPE_STEP))
        slope = (ahead - behind) / (2 * ENVELOPE_STEP)
        return abs(mu[-1] * kkt.p0[-1] - slope) / abs(slope)

    def optimum(f):
        av = kkt.design(f)
        return kkt.point(av.x_attacked), av.solver_info["objective"]

    def moved(f):
        y = kkt.moved(optimum(f)[0], f)
        return y, float(np.sum((y - kkt.anchor) ** 2))

    assert gap(optimum) <= ENVELOPE_BOUND
    assert gap(moved) > 10 * ENVELOPE_BOUND


@pytest.mark.parametrize("factor", [1.1, 1.3, 1.6])
def test_optimal_design_prices_its_overload(kkt, factor):
    _assert_priced(kkt, factor)


@pytest.mark.parametrize("factor", [1.05, 1.2, 1.5])
def test_optimal_design_prices_its_overload_on_lattices(lattice_kkt, factor):
    _assert_priced(lattice_kkt, factor)


# measured: the optimum's distance from the first-order prediction
# Δx ≈ d·Pg/|Pg|², relative to its norm d/|Pg|, is 0.0327 (λ - 1) to within
# 2 % at λ 1.05-2.5, and its norm's relative error is 2.2e-3 (λ - 1) at λ 1.05,
# 2.3e-3 (λ - 1) at 1.3 and 2.5e-3 (λ - 1) at 2.0: both err at second order.
# The bounds keep margins of 1.5 and 1.6 over the largest. The moved point
# lies 1 % of |Δx*| off the optimum, 1.0e-2 off the prediction at λ 1.05,
# so the vector bound rejects it below λ 1.2; its norm is only
# share²/2 = 5e-5 longer, which no bound at λ >= 1.05 could see
PREDICTION_BOUND = 0.05
PREDICTION_NORM_BOUND = 4e-3


@pytest.mark.parametrize("factor", [1.05, 1.3, 2.0])
def test_optimal_design_follows_its_first_order_prediction(kkt, factor):
    # to first order the design is the least-norm Δx with zero injection
    # change, J0 Δx = 0, and target flow change g·Δx = d = λ p0 + margin - p0:
    # Δx = d·Pg/|Pg|², with P the projector onto the null space of J0
    jac = kkt.constraints(kkt.anchor, factor)[1]
    zero, g = jac[:-1], jac[-1]
    pg = g - zero.T @ np.linalg.lstsq(zero.T, g, rcond=None)[0]
    (p0,) = kkt.p0
    d = factor * p0 + _OVERLOAD_MARGIN - p0
    predicted = d * pg / (pg @ pg)
    size = d / np.linalg.norm(pg)

    def error(z):
        return np.linalg.norm(z - kkt.anchor - predicted) / size

    z = kkt.point(kkt.design(factor).x_attacked)
    assert abs(np.linalg.norm(z - kkt.anchor) / size - 1) <= PREDICTION_NORM_BOUND * (factor - 1)
    assert error(z) <= PREDICTION_BOUND * (factor - 1)
    if factor < 1.2:
        assert error(kkt.moved(z, factor)) > 3 * PREDICTION_BOUND * (factor - 1)


def test_optimal_deviation_rises_strictly_with_the_overload(case39, adm39, base39, zone39, kkt):
    # measured: 0.001236, 0.002472, 0.00741, 0.014808, 0.024652 and 0.036923.
    # A 1 % move along the manifold lengthens |Δx| by 5e-5 relative, and
    # each step of λ here by 1.4 times or more, so no moved point breaks the
    # order; the control is the arbitrary design, whose deviation its start
    # perturbation sets: at seed 1 it is the same point at every λ
    factors = [1.05, 1.1, 1.3, 1.6, 2.0, 2.5]
    optimal = [_deviation_norm(kkt.design(f), zone39) for f in factors]
    assert np.all(np.diff(optimal) > 0), optimal
    arbitrary = [
        _deviation_norm(design_attack(case39, base39, AttackSpec(
            zone=zone39, targets=(OverloadTarget(*ref.TARGET, f),), mode="arbitrary",
            seed=1,
        ), adm39), zone39)
        for f in factors
    ]
    assert not np.all(np.diff(arbitrary) > 0), arbitrary
