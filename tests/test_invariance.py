"""Metamorphic checks: the physics does not depend on how a case is written
down. Renumbering the buses, reordering the bus rows and reordering the
branch rows of case39 must leave every branch flow, matched by its (from, to)
pair, every flow and injection of the impact report, and the WLS estimate of
the same readings unchanged."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference39 as ref
from acfdi.attacks import apply_attack, assemble_attack_vector
from acfdi.estimation import (
    Layout,
    MeasurementSet,
    chi_square_test,
    generate_measurements,
    largest_normalized_residual,
    wls_estimate,
)
from acfdi.impact import compute_impact
from acfdi.network import NetworkCase, build_admittance, load_bundled_case39
from acfdi.powerflow import StateVector, branch_flows
from acfdi.zones import validate_zone

_CASE = load_bundled_case39()


@st.composite
def relabellings(draw):
    """(bus row order, new id of each bus, branch row order) for case39."""
    n, nl = _CASE.n_bus, len(_CASE.branches)
    bus_order = draw(st.permutations(range(n)))
    new_ids = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True))
    branch_order = draw(st.permutations(range(nl)))
    return bus_order, dict(zip((b.id for b in _CASE.buses), new_ids)), branch_order


def _relabel_case(case, bus_order, rename, branch_order):
    buses = tuple(dataclasses.replace(case.buses[i], id=rename[case.buses[i].id]) for i in bus_order)
    branches = tuple(
        dataclasses.replace(
            case.branches[j],
            from_bus=rename[case.branches[j].from_bus],
            to_bus=rename[case.branches[j].to_bus],
            index=pos,
        )
        for pos, j in enumerate(branch_order)
    )
    gens = tuple(dataclasses.replace(g, bus=rename[g.bus]) for g in case.gens)
    return NetworkCase(case.base_mva, buses, branches, gens, case.name)


def _relabel_state(state, bus_order, rename):
    order = np.array(bus_order)
    ids = tuple(rename[state.bus_ids[i]] for i in bus_order)
    return StateVector(ids, state.vm[order], state.va[order])


def _flows_by_pair(adm, state, rename=None):
    rename = rename or {}
    sf, st = branch_flows(state, adm)
    return {
        (rename.get(br.from_bus, br.from_bus), rename.get(br.to_bus, br.to_bus)): (sf[k], st[k])
        for k, br in enumerate(adm.branches)
    }


@settings(max_examples=30, deadline=None, derandomize=True)
@given(relabelling=relabellings(), seed=st.integers(0, 2**32 - 1))
def test_branch_flows_do_not_depend_on_labels_or_row_order(adm39, base39, relabelling, seed):
    bus_order, rename, branch_order = relabelling
    rng = np.random.default_rng(seed)
    vm = base39.vm * (1.0 + 0.05 * rng.standard_normal(len(base39.vm)))
    va = base39.va + 0.2 * rng.standard_normal(len(base39.va))
    state = StateVector(base39.bus_ids, vm, va)

    adm = build_admittance(_relabel_case(adm39.case, bus_order, rename, branch_order))
    flows = _flows_by_pair(adm, _relabel_state(state, bus_order, rename))
    expected = _flows_by_pair(adm39, state, rename)
    assert flows.keys() == expected.keys()
    for pair, (sf, st_) in expected.items():
        assert abs(flows[pair][0] - sf) < 1e-10, pair
        assert abs(flows[pair][1] - st_) < 1e-10, pair


@pytest.fixture(scope="module")
def impact39(case39, adm39, base39, zone39, attack_optimal, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    clean = wls_estimate(ms, case39, adm39)
    attacked = wls_estimate(apply_attack(ms, attack_optimal), case39, adm39)
    return compute_impact(
        case39, base39, attack_optimal, clean, attacked, zone39,
        targets=(ref.TARGET + (ref.OVERLOAD_FACTOR,),), adm=adm39,
    )


@settings(max_examples=15, deadline=None, derandomize=True)
@given(relabelling=relabellings())
def test_impact_flows_and_injections_do_not_depend_on_labels_or_row_order(
    case39, base39, zone39, attack_optimal, zero_sigmas, impact39, relabelling
):
    bus_order, rename, branch_order = relabelling
    case = _relabel_case(case39, bus_order, rename, branch_order)
    adm = build_admittance(case)
    base = _relabel_state(base39, bus_order, rename)
    zone = validate_zone(
        case, {rename[b] for b in zone39.interior}, {rename[b] for b in zone39.boundary}
    )
    x_attacked = _relabel_state(attack_optimal.x_attacked, bus_order, rename)
    av = assemble_attack_vector(case, base, x_attacked, zone, adm=adm)
    ms = generate_measurements(case, base, sigmas=zero_sigmas, seed=0, adm=adm)
    clean = wls_estimate(ms, case, adm)
    attacked = wls_estimate(apply_attack(ms, av), case, adm)
    f, t = ref.TARGET
    report = compute_impact(
        case, base, av, clean, attacked, zone,
        targets=((rename[f], rename[t], ref.OVERLOAD_FACTOR),), adm=adm,
    )

    branches = {(b.from_bus, b.to_bus): b for b in report.branches}
    assert len(branches) == len(impact39.branches)
    for want in impact39.branches:
        got = branches[(rename[want.from_bus], rename[want.to_bus])]
        assert got.role == want.role
        for flow in ("base", "attacked"):
            for part in ("pf", "qf", "pt", "qt"):
                a, b = getattr(getattr(got, flow), part), getattr(getattr(want, flow), part)
                assert abs(a - b) < 1e-10, (want.from_bus, want.to_bus, flow, part)
        for loading in ("loading_base", "loading_attacked"):
            assert abs(getattr(got, loading) - getattr(want, loading)) < 1e-10

    buses = {b.bus: b for b in report.buses}
    for want in impact39.buses:
        got = buses[rename[want.bus]]
        assert got.role == want.role
        for name in ("p_base", "q_base", "p_attacked", "q_attacked"):
            assert abs(getattr(got, name) - getattr(want, name)) < 1e-10, (want.bus, name)
        for name in ("p_falsified", "q_falsified"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), (want.bus, name)
            if b is not None:
                assert abs(a - b) < 1e-10, (want.bus, name)

    ((got_target,), (want_target,)) = report.target_summary, impact39.target_summary
    for name in ("p_base", "p_attacked", "factor_attained"):
        assert abs(got_target[name] - want_target[name]) < 1e-10, name


def _relabel_measurements(ms, adm_old, adm_new, rename, branch_order):
    """The same readings, row for row, addressed in the relabelled case: bus
    rows by the new bus id, flow rows by the branch's new in-service row."""
    new_index = {j: pos for pos, j in enumerate(branch_order)}
    new_row = np.array(
        [adm_new.position[new_index[br.index]] for br in adm_old.branches], dtype=int
    )
    lay = ms.layout
    flow = lay.kind < 2
    where = np.where(
        flow,
        new_row[np.where(flow, lay.where, 0)],
        [rename.get(w, w) for w in lay.where.tolist()],
    )
    layout = Layout(lay.ids, lay.kind, where, lay.from_side)
    return MeasurementSet(layout, ms.values, ms.variances)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(relabelling=relabellings(), seed=st.integers(0, 2**16))
def test_wls_estimate_does_not_depend_on_labels_or_row_order(
    case39, adm39, base39, relabelling, seed
):
    bus_order, rename, branch_order = relabelling
    case = _relabel_case(case39, bus_order, rename, branch_order)
    adm = build_admittance(case)

    ms = generate_measurements(case39, base39, seed=seed, adm=adm39)
    moved = _relabel_measurements(ms, adm39, adm, rename, branch_order)
    want, got = wls_estimate(ms, case39, adm39), wls_estimate(moved, case, adm)
    assert abs(got.j_statistic - want.j_statistic) < 1e-10 * want.j_statistic
    assert chi_square_test(got).passed == chi_square_test(want).passed
    assert got.critical_ids == want.critical_ids
    # the largest normalized residual names the same row, or one tied with it
    got_id, want_id = largest_normalized_residual(got)[0], largest_normalized_residual(want)[0]
    want_lnr = np.abs(want.r_normalized[[ms.index_of(got_id), ms.index_of(want_id)]])
    assert got_id == want_id or abs(want_lnr[0] - want_lnr[1]) < 1e-10 * want_lnr[1]

    # no accepted step lowers J by less than its rounding, so the rounding
    # that relabelling moves does not decide where the estimates stop
    expected = _relabel_state(want.x_hat, bus_order, rename)
    assert got.x_hat.bus_ids == expected.bus_ids
    assert np.max(np.abs(got.x_hat.vm - expected.vm)) < 1e-10
    assert np.max(np.abs(got.x_hat.va - expected.va)) < 1e-10
