"""Equality-constrained nonlinear least squares via an augmented Lagrangian.

Inner iterations run a damped Gauss-Newton with backtracking on the
augmented objective, with simple projection onto box bounds; the outer loop
updates multipliers and grows the penalty tenfold whenever the constraint
violation stalls. Deterministic given the starting point.

Residuals and Jacobians come from separate callbacks. A backtracking trial
is accepted or rejected on its residual alone; Jacobians are evaluated only
at the start point of each outer round and at each accepted iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# residual callback: z -> residual vector; called at every trial point
ResidualFn = Callable[[np.ndarray], np.ndarray]
# Jacobian callback: z -> d(residual)/dz; called at round starts and accepted iterates
JacobianFn = Callable[[np.ndarray], np.ndarray]


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveResult:
    z: np.ndarray
    multipliers: np.ndarray
    max_violation: float
    objective: float
    outer_iterations: int
    inner_iterations: int
    converged: bool


def _project(z: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(z, lower), upper)


def solve_constrained(
    z0: np.ndarray,
    constraints: ResidualFn,
    constraint_jacobian: JacobianFn,
    objective: ResidualFn | None = None,
    objective_jacobian: JacobianFn | None = None,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    tol_eq: float = 1e-6,
    tol_step: float = 1e-12,
    max_outer: int = 20,
    max_inner: int = 60,
    penalty0: float = 10.0,
    penalty_growth: float = 10.0,
) -> SolveResult:
    """Minimize ||r_obj(z)||^2 subject to c(z) = 0 and lower <= z <= upper.

    With objective=None this is a pure feasibility solve that stays close to
    z0 (minimum-norm Gauss-Newton steps). `objective` and `objective_jacobian`
    are given together or not at all.
    """
    if (objective is None) != (objective_jacobian is None):
        raise ValueError("objective and objective_jacobian must be given together")
    z = np.asarray(z0, dtype=float).copy()
    nz = len(z)
    lower = np.full(nz, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(nz, np.inf) if upper is None else np.asarray(upper, dtype=float)
    z = _project(z, lower, upper)

    c0 = constraints(z)
    lam = np.zeros(len(c0))
    rho = penalty0
    prev_violation = float(np.max(np.abs(c0))) if len(c0) else 0.0
    total_inner = 0

    def residual(zv: np.ndarray) -> np.ndarray:
        r_pen = np.sqrt(rho / 2.0) * (constraints(zv) + lam / rho)
        if objective is None:
            return r_pen
        return np.concatenate([objective(zv), r_pen])

    def jacobian(zv: np.ndarray) -> np.ndarray:
        j_pen = np.sqrt(rho / 2.0) * constraint_jacobian(zv)
        if objective_jacobian is None:
            return j_pen
        return np.vstack([objective_jacobian(zv), j_pen])

    for outer in range(1, max_outer + 1):
        # inner: projected damped Gauss-Newton on the augmented objective
        r, jac = residual(z), jacobian(z)
        f_cur = float(r @ r)
        mu = 1e-10
        for _ in range(max_inner):
            total_inner += 1
            grad = 2.0 * jac.T @ r
            # projected gradient accounts for active bounds
            pg = grad.copy()
            pg[(z <= lower) & (grad > 0)] = 0.0
            pg[(z >= upper) & (grad < 0)] = 0.0
            if np.max(np.abs(pg)) < 1e-12 or f_cur < 1e-28:
                break

            jtj = jac.T @ jac
            step = None
            while mu < 1e12:
                try:
                    d = np.linalg.solve(jtj + mu * np.eye(nz), -0.5 * grad)
                except np.linalg.LinAlgError:
                    mu = max(mu * 100.0, 1e-8)
                    continue
                alpha = 1.0
                while alpha >= 1e-8:
                    z_try = _project(z + alpha * d, lower, upper)
                    r_try = residual(z_try)
                    f_try = float(r_try @ r_try)
                    if f_try < f_cur - 1e-16 * max(1.0, f_cur):
                        step = (z_try, r_try, f_try)
                        break
                    alpha *= 0.5
                if step is not None:
                    mu = max(mu / 10.0, 1e-10)
                    break
                mu = max(mu * 100.0, 1e-8)
            if step is None:
                break
            z_new, r, f_new = step
            moved = float(np.max(np.abs(z_new - z)))
            z, f_cur = z_new, f_new
            if moved < tol_step:
                break
            jac = jacobian(z)

        c = constraints(z)
        violation = float(np.max(np.abs(c))) if len(c) else 0.0
        if violation < tol_eq:
            r_obj = objective(z) if objective is not None else np.zeros(0)
            return SolveResult(
                z=z,
                multipliers=lam,
                max_violation=violation,
                objective=float(r_obj @ r_obj),
                outer_iterations=outer,
                inner_iterations=total_inner,
                converged=True,
            )
        lam = lam + rho * c
        if violation > 0.25 * prev_violation:
            rho *= penalty_growth
        prev_violation = violation

    raise SolverError(
        f"no feasible point within {max_outer} outer rounds "
        f"(max constraint violation {prev_violation:.3e})"
    )
