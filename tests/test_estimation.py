import math
import sys
from pathlib import Path

import numpy as np
import pytest

from acfdi.estimation import (
    CRITICAL_OMEGA,
    BddPolicy,
    EstimationError,
    Layout,
    MeasurementKey,
    MeasurementSet,
    chi_square_test,
    chi_square_threshold,
    eval_h,
    eval_jacobian,
    full_layout,
    generate_measurements,
    largest_normalized_residual,
    measurement_model,
    measurement_set_from_csv,
    wls_estimate,
)
from acfdi import estimation, nlsolver
from acfdi.attacks import AttackSpec, OverloadTarget, SolverParams, apply_attack, design_attack
from acfdi.network import build_admittance, parse_case
from acfdi.powerflow import StateVector, branch_flows, newton_power_flow
from acfdi.zones import validate_zone
from conftest import TWO_BUS_CASE
import reference39 as ref

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import perturb_loads, tiled_case39  # noqa: E402


# --- independent chi-square inverse CDF oracle ------------------------------
# regularized lower incomplete gamma via series / continued fraction, then
# bisection; shares nothing with the scipy routines used by the package

def _gammainc_lower(s, x):
    if x < s + 1.0:
        term = 1.0 / s
        total = term
        for n in range(1, 500):
            term *= x / (s + n)
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    # continued fraction for the upper tail
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    upper = math.exp(-x + s * math.log(x) - math.lgamma(s)) * h
    return 1.0 - upper


def _chi2_ppf_oracle(p, dof):
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gammainc_lower(dof / 2.0, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- measurement generation --------------------------------------------------

def test_noiseless_values_equal_h(case39, adm39, base39, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=3, adm=adm39)
    truth = eval_h(adm39, base39, ms.layout)
    assert np.array_equal(ms.values, truth)
    # weighting stays defined through nominal variances
    assert np.all(ms.variances > 0)


def test_same_seed_is_bit_identical(case39, adm39, base39):
    a = generate_measurements(case39, base39, seed=11, adm=adm39)
    b = generate_measurements(case39, base39, seed=11, adm=adm39)
    assert np.array_equal(a.values, b.values)
    c = generate_measurements(case39, base39, seed=12, adm=adm39)
    assert not np.array_equal(a.values, c.values)


def test_noise_scale_matches_requested_sigma(case39, adm39, base39):
    key = Layout.from_keys([MeasurementKey("Vmag:17", "Vmag", 17, None, None)])
    draws = np.array(
        [
            generate_measurements(
                case39, base39, sigmas={"Vmag": 0.004}, seed=s, adm=adm39, layout=key
            ).values[0]
            for s in range(10_000)
        ]
    )
    assert np.std(draws) == pytest.approx(0.004, rel=0.05)


def test_layout_counts(case39):
    layout = full_layout(case39)
    nl, nb = 46, 39
    assert len(layout) == 4 * nl + 4 * nb
    kinds = {k.kind for k in layout.keys()}
    assert kinds == {"Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang"}


def test_layout_kind_mask(case39):
    layout = full_layout(case39, kinds=("Pflow", "Qflow", "Pinj", "Qinj"))
    assert all(k.kind in ("Pflow", "Qflow", "Pinj", "Qinj") for k in layout.keys())


# --- h and its Jacobian -------------------------------------------------------

def test_vmag_row_is_one_hot(case39, adm39, base39):
    layout = full_layout(case39)
    jac = eval_jacobian(adm39, base39, layout)
    n_ang = case39.n_bus - 1
    for i, key in enumerate(layout.keys()):
        if key.kind == "Vmag" and key.bus == 17:
            row = jac[i]
            col = n_ang + case39.bus_index(17)
            assert row[col] == 1.0
            assert np.count_nonzero(row) == 1
        if key.kind == "Vang" and key.bus == 17:
            row = jac[i]
            assert np.count_nonzero(row) == 1
        if key.kind == "Vang" and key.bus == case39.slack_bus:
            assert np.count_nonzero(jac[i]) == 0


def test_jacobian_matches_central_differences(case39, adm39, base39):
    layout = full_layout(case39)
    rng = np.random.default_rng(99)
    step = 1e-6
    for _ in range(10):
        vm = base39.vm * (1.0 + 0.03 * rng.standard_normal(case39.n_bus))
        va = base39.va + 0.15 * rng.standard_normal(case39.n_bus)
        va[case39.bus_index(case39.slack_bus)] = 0.0
        state = StateVector(base39.bus_ids, vm, va)
        jac = eval_jacobian(adm39, state, layout)
        model = measurement_model(adm39, layout)
        x0 = model.x_of(state)
        fd = np.empty_like(jac)
        for k in range(len(x0)):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += step
            xm[k] -= step
            fd[:, k] = (
                eval_h(adm39, model.state_of(xp), layout)
                - eval_h(adm39, model.state_of(xm), layout)
            ) / (2 * step)
        rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-6


def test_flow_rows_agree_with_branch_flow(case39, adm39, base39):
    layout = full_layout(case39)
    h = eval_h(adm39, base39, layout)
    by_id = dict(zip(layout.ids, h))
    sf, st = branch_flows(base39, adm39)
    for k, br in enumerate(adm39.branches):
        tag = f"{br.from_bus}-{br.to_bus}"
        assert by_id[f"Pf:{tag}"] == pytest.approx(sf[k].real, abs=1e-12)
        assert by_id[f"Qf:{tag}"] == pytest.approx(sf[k].imag, abs=1e-12)
        assert by_id[f"Pt:{tag}"] == pytest.approx(st[k].real, abs=1e-12)
        assert by_id[f"Qt:{tag}"] == pytest.approx(st[k].imag, abs=1e-12)


def _attack_constraint_layout(case, zone):
    """The 3-row layout attack design evaluates: P and Q injection at the
    zero-injection interior bus and the target's from-end active flow."""
    (bus,) = zone.zero_injection_interior(case)
    wanted = (f"Pinj:{bus}", f"Qinj:{bus}", "Pf:{}-{}".format(*ref.TARGET))
    layout = full_layout(case)
    return layout.subset([layout.position[i] for i in wanted])


def test_compiled_model_matches_loop_oracle_bit_for_bit(
    case39, adm39, base39, zone39, attack_optimal
):
    # the attack artifacts are byte-identical only while h and its Jacobian are
    layouts = (full_layout(case39), _attack_constraint_layout(case39, zone39))
    for state in (base39, attack_optimal.x_attacked):
        for layout in layouts:
            assert np.array_equal(
                eval_h(adm39, state, layout), ref.loop_eval_h(adm39, state, layout)
            )
            assert np.array_equal(
                eval_jacobian(adm39, state, layout),
                ref.loop_eval_jacobian(adm39, state, layout),
            )


def _seeded_states(base, count, seed):
    rng = np.random.default_rng(seed)
    return [
        StateVector(
            base.bus_ids,
            base.vm + 0.05 * rng.standard_normal(len(base.vm)),
            base.va + 0.2 * rng.standard_normal(len(base.va)),
        )
        for _ in range(count)
    ]


def _assert_matches_loop_oracle(adm, states, layout):
    for state in states:
        assert np.array_equal(eval_h(adm, state, layout), ref.loop_eval_h(adm, state, layout))
        assert np.array_equal(
            eval_jacobian(adm, state, layout), ref.loop_eval_jacobian(adm, state, layout)
        )


@pytest.mark.parametrize("meas_id", ["Pinj:27", "Pf:26-27", "Qt:26-27"])
def test_single_row_layout_matches_loop_oracle_bit_for_bit(
    case39, adm39, base39, attack_optimal, meas_id
):
    # one current row is padded to two, because numpy's one-row product
    # rounds differently from the full products
    layout = full_layout(case39)
    states = [base39, attack_optimal.x_attacked, *_seeded_states(base39, 40, seed=7)]
    _assert_matches_loop_oracle(adm39, states, layout.subset([layout.position[meas_id]]))


def test_attack_constraint_layout_matches_loop_oracle_on_tiled_grid():
    case = tiled_case39(2)
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    zone = validate_zone(case, ref.ZONE_INTERIOR, ref.ZONE_BOUNDARY)
    layout = _attack_constraint_layout(case, zone)
    _assert_matches_loop_oracle(adm, [base, *_seeded_states(base, 20, seed=8)], layout)


def test_measurement_set_index_of(case39, adm39, base39):
    ms = generate_measurements(case39, base39, seed=0, adm=adm39)
    assert [ms.index_of(i) for i in ms.layout.ids] == list(range(ms.m))
    with pytest.raises(EstimationError, match=r"^unknown measurement id 'Pinj:999'$"):
        ms.index_of("Pinj:999")
    rows = [0, 1, 0]
    with pytest.raises(EstimationError, match="duplicate measurement ids"):
        MeasurementSet(ms.layout.subset(rows), ms.values[rows], ms.variances[rows])


def test_layout_jacobian_full_rank_at_flat_start(case39, adm39):
    flat = StateVector(
        tuple(b.id for b in case39.buses),
        np.ones(case39.n_bus),
        np.zeros(case39.n_bus),
    )
    jac = eval_jacobian(adm39, flat, full_layout(case39))
    assert np.linalg.matrix_rank(jac) == 2 * case39.n_bus - 1


# --- WLS estimation -----------------------------------------------------------

def test_noiseless_estimation_recovers_state(case39, adm39, base39, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    res = wls_estimate(ms, case39, adm39)
    assert res.converged
    assert np.max(np.abs(res.x_hat.vm - base39.vm)) < 1e-8
    assert np.max(np.abs(res.x_hat.va - base39.va)) < 1e-8
    assert res.j_statistic < 1e-12
    assert res.dof == ms.m - (2 * case39.n_bus - 1)


def test_objective_monotone_over_accepted_steps(case39, adm39, base39):
    ms = generate_measurements(case39, base39, seed=5, adm=adm39)
    res = wls_estimate(ms, case39, adm39)
    hist = res.objective_history
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


def test_rounding_in_the_readings_moves_no_iteration_count_on_tiled_snapshots():
    # load-perturbed snapshots of four copies, as the benchmark draws them.
    # Every accepted step lowers J by more than its rounding floor, so a
    # one-ulp change of z does not decide whether a step is taken
    grid = tiled_case39(4)
    for k in range(20):
        case = perturb_loads(grid, np.random.default_rng([0, k]))
        adm = build_admittance(case)
        truth = newton_power_flow(case, adm).state
        ms = generate_measurements(case, truth, seed=k, adm=adm)
        res = wls_estimate(ms, case, adm)
        assert np.all(np.diff(res.objective_history) <= 0), k
        bumped = MeasurementSet(ms.layout, np.nextafter(ms.values, np.inf), ms.variances)
        assert wls_estimate(bumped, case, adm).iterations == res.iterations, k


def test_scale_consistency(case39, adm39, base39):
    ms = generate_measurements(case39, base39, seed=21, adm=adm39)
    res = wls_estimate(ms, case39, adm39)
    scaled = MeasurementSet(ms.layout, ms.values, ms.variances * 4.0)
    res4 = wls_estimate(scaled, case39, adm39)
    assert np.max(np.abs(res4.x_hat.vm - res.x_hat.vm)) < 1e-9
    assert np.max(np.abs(res4.x_hat.va - res.x_hat.va)) < 1e-9
    assert res4.j_statistic == pytest.approx(res.j_statistic / 4.0, rel=1e-9)


def test_gross_error_detected_and_located(case39, adm39, base39, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    bad_id = "Pf:23-24"
    idx = ms.index_of(bad_id)
    sigma = math.sqrt(ms.variances[idx])
    values = ms.values.copy()
    values[idx] += 20.0 * sigma

    # linear-algebra oracle: with one gross error e on otherwise consistent
    # data, J = e^2 * omega_ii / R_ii with omega from the base-state Jacobian
    jac = eval_jacobian(adm39, base39, ms.layout)
    w = 1.0 / ms.variances
    gain = (jac * w[:, None]).T @ jac
    leverage = np.einsum(
        "ij,ji->i", jac, np.linalg.solve(gain, jac.T)
    ) / ms.variances
    j_expected = (20.0 * sigma) ** 2 * (1.0 - leverage[idx]) / ms.variances[idx]

    res = wls_estimate(MeasurementSet(ms.layout, values, ms.variances), case39, adm39)
    assert res.j_statistic == pytest.approx(j_expected, rel=0.05)
    verdict = chi_square_test(res, BddPolicy())
    assert not verdict.passed
    assert res.j_statistic > verdict.threshold
    worst_id, worst_val = largest_normalized_residual(res)
    assert worst_id == bad_id
    assert worst_val > 3.0


def test_chi_square_needs_positive_dof():
    with pytest.raises(EstimationError, match="dof >= 1"):
        chi_square_threshold(0.95, 0)


def test_lnr_with_all_measurements_critical(case39, adm39, base39, zero_sigmas):
    from dataclasses import replace

    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    res = wls_estimate(ms, case39, adm39)
    crippled = replace(res, r_normalized=np.full(ms.m, np.nan))
    with pytest.raises(EstimationError, match="all measurements are critical"):
        largest_normalized_residual(crippled)


def test_chi_square_threshold_against_oracle():
    assert chi_square_threshold(0.95, 10) == pytest.approx(18.307, abs=1e-3)
    assert chi_square_threshold(0.95, 10) == pytest.approx(_chi2_ppf_oracle(0.95, 10), abs=1e-6)
    for dof in (1, 5, 50, 263):
        for conf in (0.9, 0.95, 0.99):
            assert chi_square_threshold(conf, dof) == pytest.approx(
                _chi2_ppf_oracle(conf, dof), rel=1e-9, abs=1e-6
            )


def test_chi_square_threshold_matches_scipy_stats_bit_for_bit():
    from scipy import stats

    for dof in (1, 2, 3, 10, 263, 1000, 20000):
        for conf in (0.5, 0.9, 0.95, 0.99, 0.999):
            assert chi_square_threshold(conf, dof) == float(stats.chi2.ppf(conf, df=dof))


def test_zero_statistic_passes_any_policy(case39, adm39, base39, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    res = wls_estimate(ms, case39, adm39)
    for conf in (0.5, 0.95, 0.999):
        assert chi_square_test(res, BddPolicy(confidence=conf)).passed


def test_lnr_tie_break_on_zero_residuals(case39, adm39, base39, zero_sigmas):
    ms = generate_measurements(case39, base39, sigmas=zero_sigmas, seed=0, adm=adm39)
    res = wls_estimate(ms, case39, adm39)
    # force an exactly-zero residual vector
    from dataclasses import replace

    zeroed = replace(res, residual=np.zeros(ms.m), r_normalized=np.zeros(ms.m))
    worst_id, worst_val = largest_normalized_residual(zeroed)
    assert worst_val == 0.0
    assert worst_id == min(res.measurement_ids)



def test_lnr_skips_critical_rows_and_breaks_an_exact_tie_to_the_lowest_id(
    case39, adm39, base39
):
    from dataclasses import replace

    ms = generate_measurements(case39, base39, seed=0, adm=adm39)
    res = wls_estimate(ms, case39, adm39)
    # three rows tie at |r| = 3 and the lowest id sits between the other two,
    # so neither the first nor the last tied row is the answer; the critical
    # (nan) row has the lowest id of all
    ids = ("Pf:1-2", "Vang:4", "Pinj:1", "Pf:2-3", "Pinj:9")
    crafted = replace(
        res,
        measurement_ids=ids,
        residual=np.zeros(len(ids)),
        r_normalized=np.array([np.nan, 3.0, 1.0, -3.0, 3.0]),
    )
    assert largest_normalized_residual(crafted) == ("Pf:2-3", 3.0)

def test_insufficient_redundancy_rejected(case39, adm39, base39):
    layout = full_layout(case39, kinds=("Vmag",))
    ms = generate_measurements(case39, base39, adm=adm39, layout=layout)
    with pytest.raises(EstimationError, match="insufficient redundancy"):
        wls_estimate(ms, case39, adm39)


def test_unobservable_layout_rejected():
    # chain 1-2-3-4: bus 4 observed only through Pinj:3, so the gain is singular
    text = """function mpc = chain4
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1.0 0 345 1 1.06 0.94;
    2 1 10 5 0 0 1 1.0 0 345 1 1.06 0.94;
    3 1 0 0 0 0 1 1.0 0 345 1 1.06 0.94;
    4 1 20 8 0 0 1 1.0 0 345 1 1.06 0.94;
];
mpc.gen = [
    1 30 0 300 -300 1.0 100 1 500 0;
];
mpc.branch = [
    1 2 0.01 0.1 0 250 250 250 0 0 1;
    2 3 0.01 0.1 0 250 250 250 0 0 1;
    3 4 0.01 0.1 0 250 250 250 0 0 1;
];
"""
    case = parse_case(text)
    adm = build_admittance(case)
    layout = Layout.from_keys([
        MeasurementKey("Vmag:1", "Vmag", 1, None, None),
        MeasurementKey("Vmag:2", "Vmag", 2, None, None),
        MeasurementKey("Vmag:3", "Vmag", 3, None, None),
        MeasurementKey("Vang:2", "Vang", 2, None, None),
        MeasurementKey("Vang:3", "Vang", 3, None, None),
        MeasurementKey("Pinj:1", "Pinj", 1, None, None),
        MeasurementKey("Pinj:2", "Pinj", 2, None, None),
        MeasurementKey("Pinj:3", "Pinj", 3, None, None),
    ])
    shifted = StateVector((1, 2, 3, 4), np.array([1.02, 1.0, 0.99, 0.98]),
                          np.array([0.0, -0.05, -0.1, -0.12]))
    ms = MeasurementSet(layout, eval_h(adm, shifted, layout), np.full(len(layout), 1e-4))
    with pytest.raises(EstimationError, match="unobservable"):
        wls_estimate(ms, case, adm)


def _random_sublayouts(case, adm, base, seed, count, most=200):
    """Seeded random subsets of the full noisy layout, each with n < m < most."""
    n = 2 * case.n_bus - 1
    rng = np.random.default_rng(seed)
    full = generate_measurements(case, base, seed=seed, adm=adm)
    for _ in range(count):
        pick = np.sort(rng.choice(full.m, int(rng.integers(n + 1, most)), replace=False))
        yield MeasurementSet(full.layout.subset(pick), full.values[pick], full.variances[pick])


def test_observability_verdict_matches_matrix_rank_oracle(case39, adm39, base39):
    # the estimator decides observability from Cholesky pivots of the gain;
    # the SVD rank of the flat-start Jacobian is the oracle
    n = 2 * case39.n_bus - 1
    flat = StateVector(base39.bus_ids, np.ones(case39.n_bus), np.zeros(case39.n_bus))
    verdicts = {True: 0, False: 0}
    for ms in _random_sublayouts(case39, adm39, base39, seed=0, count=240):
        observable = np.linalg.matrix_rank(eval_jacobian(adm39, flat, ms.layout)) == n
        try:
            wls_estimate(ms, case39, adm39)
            rejected = False
        except EstimationError as exc:
            rejected = "unobservable" in str(exc)
        assert rejected != observable, ms.layout.ids
        verdicts[observable] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


def test_every_observable_sublayout_converges_or_stops_named_on_tiled_grid():
    # sparse layouts of two chained copies, many of them nearly critical:
    # every observable one either converges within the default 50
    # iterations or stops with a message other than unobservability
    case = tiled_case39(2)
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    n = 2 * case.n_bus - 1
    flat = StateVector(base.bus_ids, np.ones(case.n_bus), np.zeros(case.n_bus))
    converged, stopped, local = 0, [], 0
    for ms in _random_sublayouts(case, adm, base, seed=5, count=400, most=440):
        if np.linalg.matrix_rank(eval_jacobian(adm, flat, ms.layout)) < n:
            continue
        try:
            res = wls_estimate(ms, case, adm)
        except EstimationError as exc:
            assert "unobservable" not in str(exc), ms.layout.ids
            stopped.append(str(exc))
            continue
        converged += 1
        # a minimum above J at the true state is not the global one
        r = ms.values - eval_h(adm, base, ms.layout)
        if res.j_statistic > r @ (r / ms.variances):
            assert not chi_square_test(res).passed, ms.layout.ids
            local += 1
    assert converged >= 145 and len(stopped) <= 2, stopped
    assert local >= 1


def test_observability_verdict_matches_matrix_rank_oracle_on_tiled_grid():
    # the pivots are those of the block Cholesky factor in RCM order, which
    # on two chained copies interleaves the copies' columns
    case = tiled_case39(2)
    adm = build_admittance(case)
    base = newton_power_flow(case, adm).state
    n = 2 * case.n_bus - 1
    flat = StateVector(base.bus_ids, np.ones(case.n_bus), np.zeros(case.n_bus))
    verdicts = {True: 0, False: 0}
    for ms in _random_sublayouts(case, adm, base, seed=5, count=60, most=3 * n):
        observable = np.linalg.matrix_rank(eval_jacobian(adm, flat, ms.layout)) == n
        try:
            wls_estimate(ms, case, adm)
            rejected = False
        except EstimationError as exc:
            rejected = "unobservable" in str(exc)
        assert rejected != observable, ms.layout.ids
        verdicts[observable] += 1
    assert verdicts[True] >= 15 and verdicts[False] >= 15, verdicts


def _dense_omega(adm, res, ms):
    """diag(R - H (H^T W H)^-1 H^T), formed densely at the estimate."""
    jac = eval_jacobian(adm, res.x_hat, ms.layout)
    w = 1.0 / ms.variances
    gain = (jac * w[:, None]).T @ jac
    return ms.variances - np.diag(jac @ np.linalg.inv(gain) @ jac.T)


def test_normalized_residuals_match_dense_oracle(case39, adm39, base39):
    # the estimator gets the residual covariance diagonal from G^-1 and the
    # Jacobian's nonzeros; the oracle forms it densely
    for seed in (3, 11, 29):
        ms = generate_measurements(case39, base39, seed=seed, adm=adm39)
        res = wls_estimate(ms, case39, adm39)
        omega = _dense_omega(adm39, res, ms)
        assert res.critical_ids == ()
        expected = res.residual / np.sqrt(omega)
        assert np.all(np.abs(res.r_normalized - expected) <= 1e-9 * np.abs(expected))


def test_critical_measurements_match_dense_oracle(case39, adm39, base39):
    # sparse layouts carry critical (Omega_ii < CRITICAL_OMEGA) and
    # near-critical measurements. Omega_ii = R_ii - leverage cancels there,
    # so both computations carry an absolute error of rounding order in R_ii
    # and Omega is compared at 1e-9 R_ii rather than relative to itself
    compared = critical_seen = 0
    for ms in _random_sublayouts(case39, adm39, base39, seed=1, count=30):
        try:
            res = wls_estimate(ms, case39, adm39)
        except EstimationError:
            continue  # unobservable or not converging: nothing to compare
        omega = _dense_omega(adm39, res, ms)
        critical = omega < CRITICAL_OMEGA
        assert res.critical_ids == tuple(
            i for i, c in zip(ms.layout.ids, critical) if c
        )
        assert np.all(np.isnan(res.r_normalized[critical]))
        implied = (res.residual[~critical] / res.r_normalized[~critical]) ** 2
        assert np.all(np.abs(implied - omega[~critical]) <= 1e-9 * ms.variances[~critical])
        compared += 1
        critical_seen += bool(critical.any())
    assert compared >= 10 and critical_seen >= 3, (compared, critical_seen)


def test_nonconvergence_raises(case39, adm39, base39):
    ms = generate_measurements(case39, base39, seed=2, adm=adm39)
    with pytest.raises(EstimationError, match="did not converge"):
        wls_estimate(ms, case39, adm39, max_iter=1)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
def test_wls_estimate_rejects_a_tolerance_that_is_not_positive(case39, adm39, base39, tol):
    ms = generate_measurements(case39, base39, seed=2, adm=adm39)
    with pytest.raises(ValueError, match="tol must be positive"):
        wls_estimate(ms, case39, adm39, tol=tol)


def test_wls_estimate_rejects_an_iteration_cap_below_one(case39, adm39, base39):
    ms = generate_measurements(case39, base39, seed=2, adm=adm39)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        wls_estimate(ms, case39, adm39, max_iter=0)


@pytest.mark.parametrize("field", ["value", "variance"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_measurement_set_rejects_non_finite_entries_naming_the_row(field, bad):
    layout = Layout.from_keys(
        [MeasurementKey(f"Vmag:{b}", "Vmag", b, None, None) for b in (1, 2, 3)]
    )
    arrays = {"value": [1.0, 1.0, 1.0], "variance": [1e-4, 1e-4, 1e-4]}
    arrays[field][1] = bad
    with pytest.raises(EstimationError, match=f"Vmag:2: {field} is not finite"):
        MeasurementSet(layout, arrays["value"], arrays["variance"])


def test_nan_sigma_rejected(case39, adm39, base39):
    with pytest.raises(EstimationError, match="sigma of Vmag must be >= 0"):
        generate_measurements(case39, base39, sigmas={"Vmag": float("nan")}, adm=adm39)


def test_estimate_stops_named_when_no_damped_step_lowers_j(case39, adm39, base39, monkeypatch):
    # with a zero cap on mu the damping gives up before the first trial
    monkeypatch.setattr(nlsolver, "_MU_CAP", 0.0)
    ms = generate_measurements(case39, base39, seed=2, adm=adm39)
    with pytest.raises(EstimationError, match="no step that lowers J"):
        wls_estimate(ms, case39, adm39)


def test_variance_must_be_positive():
    with pytest.raises(EstimationError, match="positive"):
        MeasurementSet(
            Layout.from_keys([MeasurementKey("Vmag:1", "Vmag", 1, None, None)]), [1.0], [0.0]
        )


# --- serialization -------------------------------------------------------------

def test_residual_covariance_against_monte_carlo():
    # empirical residual spread over many noise draws must match the
    # covariance the normalized residuals are built from
    text = """function mpc = chain4
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1.0 0 345 1 1.06 0.94;
    2 1 10 5 0 0 1 1.0 0 345 1 1.06 0.94;
    3 1 0 0 0 0 1 1.0 0 345 1 1.06 0.94;
    4 1 20 8 0 0 1 1.0 0 345 1 1.06 0.94;
];
mpc.gen = [
    1 30 0 300 -300 1.0 100 1 500 0;
];
mpc.branch = [
    1 2 0.01 0.1 0 250 250 250 0 0 1;
    2 3 0.01 0.1 0 250 250 250 0 0 1;
    3 4 0.01 0.1 0 250 250 250 0 0 1;
];
"""
    from acfdi.powerflow import solve_power_flow

    case = parse_case(text)
    adm = build_admittance(case)
    truth = solve_power_flow(case, adm)

    residuals = []
    reference = None
    for seed in range(500):
        ms = generate_measurements(case, truth, seed=seed, adm=adm)
        res = wls_estimate(ms, case, adm)
        residuals.append(res.residual)
        if reference is None:
            reference = res
    residuals = np.array(residuals)

    # implied covariance diag from the implementation's normalized residuals
    # (computed at a noisy estimate, so it carries O(noise) wobble)
    with np.errstate(invalid="ignore"):
        implied = (reference.residual / reference.r_normalized) ** 2

    # independent dense-matrix oracle at the truth state
    ms0 = generate_measurements(case, truth, seed=0, adm=adm)
    jac = eval_jacobian(adm, truth, ms0.layout)
    variances = ms0.variances
    gain = (jac / variances[:, None]).T @ jac
    sensitivity = jac @ np.linalg.inv(gain) @ jac.T
    omega_oracle = variances - np.diag(sensitivity)

    empirical = residuals.var(axis=0)
    for i in range(ms0.m):
        if np.isnan(reference.r_normalized[i]):
            continue
        assert implied[i] == pytest.approx(omega_oracle[i], rel=0.05), i
        # 500 samples put the empirical variance within a few percent of truth
        assert empirical[i] == pytest.approx(omega_oracle[i], rel=0.25), i


def test_csv_round_trip(case39, adm39, base39):
    ms = generate_measurements(case39, base39, seed=8, adm=adm39)
    again = measurement_set_from_csv(ms.to_csv(), case39)
    assert np.array_equal(again.values, ms.values)
    assert np.array_equal(again.variances, ms.variances)
    assert again.layout.keys() == ms.layout.keys()


def test_csv_unknown_id_rejected(case39):
    text = "id,kind,location,value,variance\nPf:1-99,Pflow,branch0:from,0.0,1e-4\n"
    with pytest.raises(EstimationError, match="unknown measurement id"):
        measurement_set_from_csv(text, case39)


# --- layouts are values, compiled once -----------------------------------------

def _pipeline_item(case, adm, zone):
    """The library calls of one scenario item: power flow, clean estimate,
    then each attack design, applied and estimated."""
    base = newton_power_flow(case, adm).state
    ms = generate_measurements(case, base, seed=0, adm=adm)
    wls_estimate(ms, case, adm)
    for mode in ("optimal", "arbitrary"):
        targets = (OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),)
        spec = AttackSpec(zone=zone, targets=targets, mode=mode, params=SolverParams(seed=1))
        wls_estimate(apply_attack(ms, design_attack(case, base, spec, adm)), case, adm)


def test_pipeline_builds_no_measurement_key_and_compiles_each_layout_once(
    case39, zone39, monkeypatch
):
    _pipeline_item(case39, build_admittance(case39), zone39)  # warm-up
    keys, layouts, compiled = [], [], []
    new_key = estimation.MeasurementKey.__new__
    init_layout = estimation.Layout.__post_init__
    init_model = estimation.MeasurementModel.__init__

    def counting_key(cls, *args, **kwargs):
        keys.append(args)
        return new_key(cls, *args, **kwargs)

    def counting_layout(self):
        layouts.append(self)
        init_layout(self)

    def counting_model(self, adm, layout):
        compiled.append((id(adm), layout.signature))
        init_model(self, adm, layout)

    monkeypatch.setattr(estimation.MeasurementKey, "__new__", staticmethod(counting_key))
    monkeypatch.setattr(estimation.Layout, "__post_init__", counting_layout)
    monkeypatch.setattr(estimation.MeasurementModel, "__init__", counting_model)

    adm = build_admittance(case39)
    # the full layout is built on first use, not with the admittance model
    assert (layouts, compiled, adm.compiled_layouts) == ([], [], {})
    assert "full_layout" not in vars(adm)

    _pipeline_item(case39, adm, zone39)
    assert keys == []
    # power flow, the full layout, and the constraint and delta rows that the
    # two attack modes share: each compiled once
    assert len(compiled) == len(set(compiled)) == 4
