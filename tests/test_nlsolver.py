import numpy as np
import pytest

import acfdi.attacks
import reference39 as ref
from acfdi.attacks import AttackSpec, OverloadTarget, design_attack
from acfdi.nlsolver import SolverError, solve_constrained

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

    def merit(z):
        # same operations as the solver's stacked residual, so ties break alike
        c = np.array([z @ z - 1.0, z[0] - z[1] ** 3])
        r = np.concatenate([z - target, np.sqrt(rho / 2.0) * c])
        return float(r @ r)

    z0 = np.array([3.0, -2.0, 0.5])
    with pytest.raises(SolverError):
        solve_constrained(
            z0, constraints=curve, constraint_jacobian=curve_jacobian,
            objective=lambda z: z - target, objective_jacobian=lambda z: np.eye(3),
            penalty0=rho, max_outer=1,
        )

    # replay the acceptance rule over every point whose residual was evaluated
    iterates = [z0]
    for z in residual_points:
        f_cur = merit(iterates[-1])
        if merit(z) < f_cur - 1e-16 * max(1.0, f_cur):
            iterates.append(z)

    assert len(residual_points) > 2 * len(iterates)  # backtracking rejected trials
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
