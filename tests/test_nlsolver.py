import numpy as np
import pytest

import acfdi.attacks
import reference39 as ref
from acfdi.attacks import AttackSpec, OverloadTarget, SolverParams, design_attack
from acfdi.nlsolver import _MIN_GAIN, Damping, SolverError, solve_constrained

A = np.array([0.3, -1.2, 2.5, 0.7])


def _sum_to_one(z):
    return np.array([z.sum() - 1.0])


def _sum_jacobian(z):
    return np.ones((1, len(z)))


def test_projection_onto_hyperplane_matches_closed_form():
    # argmin ||z - a||^2 s.t. sum(z) = 1 is a + (1 - sum(a)) / n
    res = solve_constrained(
        np.zeros(len(A)),
        constraints=_sum_to_one,
        constraint_jacobian=_sum_jacobian,
        objective=lambda z: z - A,
        objective_jacobian=lambda z: np.eye(len(z)),
        tol_eq=1e-10,
    )
    expected = A + (1.0 - A.sum()) / len(A)
    assert res.converged
    np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-8)
    assert res.max_violation < 1e-10


def test_objective_without_its_jacobian_is_rejected():
    with pytest.raises(ValueError, match="together"):
        solve_constrained(
            np.zeros(2), constraints=_sum_to_one, constraint_jacobian=_sum_jacobian,
            objective=lambda z: z,
        )


def test_jacobians_are_evaluated_only_at_the_start_and_accepted_iterates():
    # one outer round, so the multipliers are zero and the merit function the
    # solver minimises is ||z - a||^2 + rho/2 ||c(z)||^2 with rho = penalty0
    target = np.array([3.0, -4.0, 1.0])
    rho = 10.0
    residual_points, jacobian_points = [], []

    def curve(z):
        residual_points.append(z.copy())
        return np.array([z @ z - 1.0, z[0] - z[1] ** 3])

    def curve_jacobian(z):
        jacobian_points.append(z.copy())
        return np.array([2.0 * z, [1.0, -3.0 * z[1] ** 2, 0.0]])

    def stacked(z):
        # same operations as the solver's stacked residual and Jacobian, so
        # ties break alike
        c = np.array([z @ z - 1.0, z[0] - z[1] ** 3])
        r = np.concatenate([z - target, np.sqrt(rho / 2.0) * c])
        j_pen = np.sqrt(rho / 2.0) * np.array([2.0 * z, [1.0, -3.0 * z[1] ** 2, 0.0]])
        return r, np.vstack([np.eye(3), j_pen])

    z0 = np.array([3.0, -2.0, 0.5])
    with pytest.raises(SolverError):
        solve_constrained(
            z0, constraints=curve, constraint_jacobian=curve_jacobian,
            objective=lambda z: z - target, objective_jacobian=lambda z: np.eye(3),
            penalty0=rho, max_outer=1,
        )

    # replay the acceptance rule (gain ratio and rounding floor) over every
    # trial point; the first evaluation is the start point itself
    assert np.array_equal(residual_points[0], z0)
    iterates, rejected = [z0], 0
    for z in residual_points[1:]:
        r, jac = stacked(iterates[-1])
        f_cur = float(r @ r)
        lin = r + jac @ (z - iterates[-1])
        r_try, _ = stacked(z)
        f_try = float(r_try @ r_try)
        gain = (f_cur - f_try) / (f_cur - float(lin @ lin))
        if gain > _MIN_GAIN and f_try < f_cur - Damping(0.0, len(r)).floor(f_cur):
            iterates.append(z)
        else:
            rejected += 1

    assert rejected >= 1  # the rule was exercised on a trial it turned down
    assert len(jacobian_points) == len(iterates)
    for zj, zi in zip(jacobian_points, iterates):
        np.testing.assert_allclose(zj, zi, rtol=0, atol=1e-14)


def test_optimal_design_builds_one_jacobian_per_accepted_step(
    case39, adm39, base39, zone39, monkeypatch
):
    calls = []
    original = acfdi.attacks.eval_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(acfdi.attacks, "eval_jacobian", counted)
    spec = AttackSpec(
        zone=zone39, targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),), mode="optimal"
    )
    info = design_attack(case39, base39, spec, adm39).solver_info
    assert 0 < len(calls) <= info["inner_iterations"] + info["outer_iterations"]


@pytest.mark.parametrize("mode", ["optimal", "arbitrary"])
def test_design_evaluates_constraints_a_few_times_per_step(
    case39, adm39, base39, zone39, monkeypatch, mode
):
    evals = []
    original = acfdi.attacks.solve_constrained

    def counted(*args, constraints, **kwargs):
        def wrapped(z):
            evals.append(1)
            return constraints(z)

        return original(*args, constraints=wrapped, **kwargs)

    monkeypatch.setattr(acfdi.attacks, "solve_constrained", counted)
    spec = AttackSpec(
        zone=zone39, targets=(OverloadTarget(*ref.TARGET, ref.OVERLOAD_FACTOR),), mode=mode,
        params=SolverParams(seed=1),
    )
    info = design_attack(case39, base39, spec, adm39).solver_info
    assert 0 < len(evals) <= 3 * info["inner_iterations"] + info["outer_iterations"]
    # one evaluation at the start, then one per trial, accepted or rejected
    rounds = info["rounds"]
    assert len(evals) == 1 + sum(rd["accepted_steps"] + rd["rejected_trials"] for rd in rounds)
    assert len(rounds) == info["outer_iterations"]
    assert rounds[-1]["violation"] == info["max_violation"]
    assert rounds[0]["penalty"] == SolverParams().penalty0


def test_solver_error_names_the_most_violated_row():
    # z0 <= 1 keeps the second constraint, z0 = 5, from being met
    with pytest.raises(SolverError) as err:
        solve_constrained(
            np.zeros(2),
            constraints=lambda z: np.array([z[1] - 1.0, z[0] - 5.0]),
            constraint_jacobian=lambda z: np.array([[0.0, 1.0], [1.0, 0.0]]),
            upper=np.array([1.0, np.inf]),
            max_outer=3,
        )
    assert err.value.row == 1
    assert err.value.value == pytest.approx(-4.0)
