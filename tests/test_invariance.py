"""Metamorphic checks: the physics does not depend on how a case is written
down. Renumbering the buses, reordering the bus rows and reordering the
branch rows of case39 must leave every branch flow, matched by its (from, to)
pair, every flow and injection of the impact report and its base document,
and the WLS estimate of the same readings unchanged. So must writing the case
on another MVA base, with powers compared in MW and MVAr. Applying an attack and then its negation
gives back the measurements, to rounding."""

import dataclasses
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference39 as ref
from acfdi.attacks import apply_attack
from acfdi.estimation import (
    KIND_CODE,
    Layout,
    MeasurementModel,
    MeasurementSet,
    chi_square_test,
    generate_measurements,
    largest_normalized_residual,
    network_powers,
    wls_estimate,
)
from acfdi.impact import base_document, compute_impact
from acfdi.network import NetworkCase, StateVector, build_admittance, load_bundled_case39
from acfdi.powerflow import _NewtonPattern, newton_power_flow
from acfdi.zones import validate_zone
from conftest import assemble

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
    sf, st = network_powers(state, adm)[1:]
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
    return compute_impact(case39, attack_optimal, clean, attacked, zone39, adm=adm39)


@pytest.fixture(scope="module")
def base_doc39(case39, adm39, base39):
    return base_document(case39, base39, adm39)


def _assert_same_base_document(got, want, rename=lambda b: b, scale=(1.0, 1.0)):
    """got lists every branch and bus of want, relabelled by rename, with
    flows, loadings and injections within 1e-10; scale = (got's MVA base,
    want's) compares powers in MW and MVAr."""
    assert len(got["branches"]) == len(want["branches"])
    assert len(got["buses"]) == len(want["buses"])
    rows = {(b["from"], b["to"]): b for b in got["branches"]}
    for w in want["branches"]:
        g = rows[(rename(w["from"]), rename(w["to"]))]
        for part in ("pf", "qf", "pt", "qt"):
            assert abs(g[part] * scale[0] - w[part] * scale[1]) < 1e-10, (w["from"], w["to"], part)
        assert (g["loading"] is None) == (w["loading"] is None)
        if w["loading"] is not None:
            assert abs(g["loading"] - w["loading"]) < 1e-10
    buses = {b["bus"]: b for b in got["buses"]}
    for w in want["buses"]:
        g = buses[rename(w["bus"])]
        for part in ("p", "q"):
            assert abs(g[part] * scale[0] - w[part] * scale[1]) < 1e-10, (w["bus"], part)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(relabelling=relabellings())
def test_impact_flows_and_injections_do_not_depend_on_labels_or_row_order(
    case39, base39, zone39, attack_optimal, zero_sigmas, impact39, base_doc39, relabelling
):
    bus_order, rename, branch_order = relabelling
    case = _relabel_case(case39, bus_order, rename, branch_order)
    adm = build_admittance(case)
    base = _relabel_state(base39, bus_order, rename)
    zone = validate_zone(
        case, {rename[b] for b in zone39.interior}, {rename[b] for b in zone39.boundary}
    )
    x_attacked = _relabel_state(attack_optimal.x_attacked, bus_order, rename)
    f, t = ref.TARGET
    target = {"from": rename[f], "to": rename[t], "factor": ref.OVERLOAD_FACTOR}
    av = assemble(case, base, x_attacked, zone, adm, solver_info={"targets": [target]})
    ms = generate_measurements(case, base, sigmas=zero_sigmas, seed=0, adm=adm)
    clean = wls_estimate(ms, case, adm)
    attacked = wls_estimate(apply_attack(ms, av), case, adm)
    report = compute_impact(case, av, clean, attacked, zone, adm=adm)
    _assert_same_base_document(base_document(case, base, adm), base_doc39, rename.__getitem__)
    assert report["omitted"] == impact39["omitted"]

    branches = {(b["from"], b["to"]): b for b in report["branches"]}
    assert len(branches) == len(impact39["branches"])
    for want in impact39["branches"]:
        got = branches[(rename[want["from"]], rename[want["to"]])]
        assert got["role"] == want["role"]
        for flow in ("base", "attacked"):
            for part in ("pf", "qf", "pt", "qt"):
                a, b = got[flow][part], want[flow][part]
                assert abs(a - b) < 1e-10, (want["from"], want["to"], flow, part)
        for loading in ("loading_base", "loading_attacked"):
            assert abs(got[loading] - want[loading]) < 1e-10

    buses = {b["bus"]: b for b in report["buses"]}
    for want in impact39["buses"]:
        got = buses[rename[want["bus"]]]
        assert got["role"] == want["role"]
        for name in ("p_base", "q_base", "p_attacked", "q_attacked"):
            assert abs(got[name] - want[name]) < 1e-10, (want["bus"], name)
        for name in ("p_falsified", "q_falsified"):
            a, b = got[name], want[name]
            assert (a is None) == (b is None), (want["bus"], name)
            if b is not None:
                assert abs(a - b) < 1e-10, (want["bus"], name)

    ((got_target,), (want_target,)) = report["targets"], impact39["targets"]
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
    want_lnr = np.abs(want.r_normalized[[ms.layout.position[got_id], ms.layout.position[want_id]]])
    assert got_id == want_id or abs(want_lnr[0] - want_lnr[1]) < 1e-10 * want_lnr[1]

    # no accepted step lowers J by less than its rounding, so the rounding
    # that relabelling moves does not decide where the estimates stop
    expected = _relabel_state(want.x_hat, bus_order, rename)
    assert got.x_hat.bus_ids == expected.bus_ids
    assert np.max(np.abs(got.x_hat.vm - expected.vm)) < 1e-10
    assert np.max(np.abs(got.x_hat.va - expected.va)) < 1e-10


# --- the MVA base ---------------------------------------------------------------

# not a power of two times 100, so that every rescaled value rounds
REBASED_MVA = 137.0


def _rebase_case(case, base_mva):
    """The same grid on another MVA base: per-unit impedances scale by
    S_new / S_old; charging, shunts, powers and ratings by S_old / S_new."""
    k = base_mva / case.base_mva
    buses = tuple(
        dataclasses.replace(b, pd=b.pd / k, qd=b.qd / k, gs=b.gs / k, bs=b.bs / k)
        for b in case.buses
    )
    branches = tuple(
        dataclasses.replace(br, r=br.r * k, x=br.x * k, b=br.b / k, rating=br.rating / k)
        for br in case.branches
    )
    gens = tuple(
        dataclasses.replace(
            g, pg=g.pg / k, qg=g.qg / k, qmin=g.qmin / k, qmax=g.qmax / k,
            pmin=g.pmin / k, pmax=g.pmax / k,
        )
        for g in case.gens
    )
    return NetworkCase(base_mva, buses, branches, gens, case.name)


@pytest.fixture(scope="module")
def rebased39(case39):
    case = _rebase_case(case39, REBASED_MVA)
    return case, build_admittance(case)


def _rebase_measurements(ms, k):
    """The same readings in per unit of a base k times larger."""
    scale = np.where(ms.layout.kind < KIND_CODE["Vmag"], 1.0 / k, 1.0)
    return MeasurementSet(ms.layout, ms.values * scale, ms.variances * scale**2)


def test_power_flow_and_flows_do_not_depend_on_the_mva_base(case39, adm39, base39, rebased39):
    # one topology, other admittance values: the rebased model reads the
    # patterns compiled for case39
    case, adm = rebased39[0], build_admittance(rebased39[0])
    warm = build_admittance(case39)
    newton_power_flow(case39, warm)
    MeasurementModel(warm, warm.full_layout)
    state = newton_power_flow(case, adm).state
    assert adm.topology == warm.topology
    assert adm.full_layout is warm.full_layout
    patterns = [
        [MeasurementModel(a, _NewtonPattern(a).layout).pattern,
         MeasurementModel(a, a.full_layout).pattern]
        for a in (adm, warm)
    ]
    assert len(patterns[0]) == 2 and all(map(operator.is_, *patterns))
    assert np.max(np.abs(state.vm - base39.vm)) < 1e-10
    assert np.max(np.abs(state.va - base39.va)) < 1e-10
    # flows in per unit of case39's base
    k = case.base_mva / case39.base_mva
    for got, want in zip(network_powers(state, adm)[1:], network_powers(base39, adm39)[1:]):
        assert np.max(np.abs(got * k - want)) < 1e-10


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_wls_estimate_does_not_depend_on_the_mva_base(case39, adm39, base39, rebased39, seed):
    case, adm = rebased39
    ms = generate_measurements(case39, base39, seed=seed, adm=adm39)
    moved = _rebase_measurements(ms, case.base_mva / case39.base_mva)
    want, got = wls_estimate(ms, case39, adm39), wls_estimate(moved, case, adm)
    assert np.max(np.abs(got.x_hat.vm - want.x_hat.vm)) < 1e-10
    assert np.max(np.abs(got.x_hat.va - want.x_hat.va)) < 1e-10
    assert abs(got.j_statistic - want.j_statistic) < 1e-10 * want.j_statistic
    assert got.critical_ids == want.critical_ids
    assert largest_normalized_residual(got)[0] == largest_normalized_residual(want)[0]


def test_impact_figures_do_not_depend_on_the_mva_base(
    case39, base39, zone39, attack_optimal, zero_sigmas, impact39, base_doc39, rebased39
):
    case, adm = rebased39
    # per-unit states do not depend on the base, so case39's serve here
    zone = validate_zone(case, zone39.interior, zone39.boundary)
    av = assemble(
        case, base39, attack_optimal.x_attacked, zone, adm,
        solver_info={"targets": [{"from": 26, "to": 27, "factor": ref.OVERLOAD_FACTOR}]},
    )
    ms = generate_measurements(case, base39, sigmas=zero_sigmas, seed=0, adm=adm)
    clean = wls_estimate(ms, case, adm)
    attacked = wls_estimate(apply_attack(ms, av), case, adm)
    report = compute_impact(case, av, clean, attacked, zone, adm=adm)

    def mw(value, on):
        return value * on.base_mva

    scale = (case.base_mva, case39.base_mva)
    _assert_same_base_document(base_document(case, base39, adm), base_doc39, scale=scale)
    assert report["omitted"] == impact39["omitted"]
    assert len(report["branches"]) == len(impact39["branches"])
    for got, want in zip(report["branches"], impact39["branches"]):
        assert (got["from"], got["to"], got["role"]) == (want["from"], want["to"], want["role"])
        for flow in ("base", "attacked"):
            for part in ("pf", "qf", "pt", "qt"):
                a, b = got[flow][part], want[flow][part]
                assert abs(mw(a, case) - mw(b, case39)) < 1e-10, (want["from"], flow, part)
        for loading in ("loading_base", "loading_attacked"):
            a, b = got[loading], want[loading]
            assert (a is None) == (b is None)
            if b is not None:
                assert abs(a - b) < 1e-10
    for got, want in zip(report["buses"], impact39["buses"]):
        assert (got["bus"], got["role"]) == (want["bus"], want["role"])
        for name in ("p_base", "q_base", "p_attacked", "q_attacked", "p_falsified", "q_falsified"):
            a, b = got[name], want[name]
            assert (a is None) == (b is None), (want["bus"], name)
            if b is not None:
                assert abs(mw(a, case) - mw(b, case39)) < 1e-10, (want["bus"], name)
    ((got_target,), (want_target,)) = report["targets"], impact39["targets"]
    for name in ("p_base", "p_attacked"):
        assert abs(mw(got_target[name], case) - mw(want_target[name], case39)) < 1e-10
    assert abs(got_target["factor_attained"] - want_target["factor_attained"]) < 1e-10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), arbitrary=st.booleans(), scale=st.floats(1e-3, 1e3))
def test_apply_attack_then_its_negation_is_the_identity(
    case39, adm39, base39, attack_optimal, attack_arbitrary, seed, arbitrary, scale
):
    # each value goes x -> x + d -> (x + d) - d, two roundings, each within
    # eps / 2 of its exact result; layout and variances are never touched
    av = attack_arbitrary if arbitrary else attack_optimal
    av = dataclasses.replace(av, deltas={i: scale * d for i, d in av.deltas.items()})
    negated = dataclasses.replace(av, deltas={i: -d for i, d in av.deltas.items()})
    ms = generate_measurements(case39, base39, seed=seed, adm=adm39)
    back = apply_attack(apply_attack(ms, av), negated)
    assert back.layout is ms.layout
    assert np.array_equal(back.variances, ms.variances)
    d = np.zeros(ms.m)
    d[[ms.layout.position[i] for i in av.deltas]] = list(av.deltas.values())
    x = ms.values
    eps = np.finfo(float).eps
    assert np.all(np.abs(back.values - x) <= eps * (np.abs(x + d) + np.abs(x)))
