"""Equality-constrained nonlinear least squares via an augmented Lagrangian,
and the damped Gauss-Newton trial rule that it and the WLS estimator share.

The outer loop updates multipliers and grows the penalty tenfold whenever
the constraint violation stalls. Each outer round minimises the augmented
objective f(z) = ||r(z)||^2 over the box bounds with a projected
Levenberg-Marquardt iteration (More, 1978; Nocedal and Wright, Numerical
Optimization, 2006, ch. 4, 10 and 17):

- Step. Variables at a bound that the gradient pushes against are held
  there; the step d in the others solves (J^T J + mu I) d = -J^T r, with J
  restricted to their columns. When that J has fewer rows than columns, as
  in a pure feasibility solve, the same step is taken in its row-space form
  d = -J^T (J J^T + mu I)^-1 r: d then lies exactly in the row space of J,
  so rounding in the inputs has no null-space direction to grow along.
- Trial. Each trial costs one residual evaluation, at z_try = P(z + d)
  with P the projection onto the bounds; its predicted decrease is
  f - ||r + J (z_try - z)||^2. `Damping` judges it.
- Stop. A round ends when the projected gradient vanishes; when no trial
  is acceptable before mu passes its cap or the step degenerates; or when
  an accepted step moves less than _TOL_STEP although the damping had not
  shrunk it (mu at its starting value).

`Damping` is the trial rule of both this solver and
`estimation.wls_estimate` (Madsen, Nielsen and Tingleff, *Methods for
Non-Linear Least Squares Problems*, 2004, sec. 3.2):

- Acceptance. A trial is accepted when the gain ratio, the actual over the
  predicted decrease, exceeds 1e-4 and the actual decrease beats the
  rounding floor eps (1 + m f) of an f that sums m squares. A step whose
  predicted decrease is within the floor has degenerated; one the model
  calls uphill, or a non-finite one, is damped further without a trial.
- Damping. Nielsen's update: on success mu *= max(1/3, 1 - (2 rho - 1)^3)
  and nu = 2; on failure mu *= nu and nu doubles. mu starts at, and never
  goes below, 1e-10 max(1, max diag J^T J), and past 1e12 times that scale
  the caller gives up.

One callback evaluates the constraints at a point: their values, and a
function that reads dc/dz off the same evaluation; the objective's rows
z[:k] - anchor and their constant Jacobian are the solver's own. A trial is
accepted or rejected on its residual alone. A Jacobian is read at most once
per point, at the start and at accepted iterates, and an accepted trial's
values and Jacobian carry into the next step and round. The caller
evaluates the start and the solver each trial. Deterministic given z0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# constraint callback, called at every trial point: z -> (c(z), jacobian),
# where jacobian() gives dc/dz at z from the same evaluation
ConstraintFn = Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]

_MU_START = 1e-10  # starting damping, relative to max(1, max diag J^T J)
_MU_CAP = 1e12  # damping past which the caller gives up, same scale
_MIN_GAIN = 1e-4  # smallest gain ratio that accepts a trial
_TOL_STEP = 1e-12  # an undamped accepted step shorter than this ends a round
_EPS = float(np.finfo(float).eps)


class SolverError(RuntimeError):
    """No feasible point; `row` is the constraint with the largest violation
    after the last round and `value` its residual there."""

    def __init__(self, message: str, row: int, value: float):
        super().__init__(message)
        self.row = row
        self.value = value


@dataclass(frozen=True)
class RoundInfo:
    """One outer round: the constraint violation at its end, the penalty it
    ran with, and its accepted steps and rejected trials."""

    violation: float
    penalty: float
    accepted_steps: int
    rejected_trials: int


@dataclass(frozen=True)
class SolveResult:
    z: np.ndarray
    max_violation: float
    objective: float
    outer_iterations: int
    inner_iterations: int
    rounds: tuple[RoundInfo, ...]


class Damping:
    """The trial rule of a damped Gauss-Newton iteration on an objective f
    that sums `rows` squares, started where the Gauss-Newton matrix has
    largest diagonal entry `gn_diag_max`. It keeps mu and nu across steps and
    counts the accepted steps and rejected trials."""

    def __init__(self, gn_diag_max: float, rows: int):
        self.scale = max(1.0, gn_diag_max)
        self.mu = self.mu_start = _MU_START * self.scale
        self.nu = 2.0
        self.rows = rows
        self.accepted = self.rejected = 0

    @property
    def exhausted(self) -> bool:
        # an infinite mu, as a Gauss-Newton matrix with an infinite diagonal
        # gives from the start, is exhausted too, although it is not above an
        # infinite cap
        return self.mu > _MU_CAP * self.scale or self.mu == np.inf

    def floor(self, f: float) -> float:
        """The rounding level of f: eps (1 + rows f)."""
        return _EPS * (1.0 + self.rows * f)

    def step(self, f: float, solve: Callable, evaluate: Callable) -> tuple | None:
        """The first acceptable trial from a point where the objective is f.

        solve(mu) gives the trial point of the step damped by mu and its
        predicted decrease, or None when the damped system does not solve;
        evaluate(point) gives the objective there and what the caller keeps
        of it. Returns (point, objective, kept, mu) of the accepted trial, or
        None when the step degenerates or, as `exhausted` then tells, mu
        passes its cap.
        """
        floor = self.floor(f)
        while not self.exhausted:
            mu = self.mu
            solved = solve(mu)
            if solved is not None:
                point, predicted = solved
                if 0.0 <= predicted <= floor:
                    return None  # the step degenerated
                if predicted > 0.0:  # an uphill or non-finite one is not tried
                    f_try, kept = evaluate(point)
                    gain = (f - f_try) / predicted
                    if gain > _MIN_GAIN and f_try < f - floor:
                        shrink = max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                        self.mu = max(self.mu_start, mu * shrink)
                        self.nu = 2.0
                        self.accepted += 1
                        return point, f_try, kept, mu
                    self.rejected += 1
            self.mu *= self.nu
            self.nu *= 2.0
        return None


def check_limits(tol: float, max_iter: int) -> None:
    """Raise ValueError unless 0 < tol < inf (a nan fails) and max_iter >= 1."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")


def _project(z: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(z, lower), upper)


def solve_constrained(
    start: tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]],
    constraints: ConstraintFn,
    anchor: np.ndarray | None,
    lower: np.ndarray,
    upper: np.ndarray,
    tol_eq: float,
    max_outer: int,
    max_inner: int,
    penalty0: float,
    penalty_growth: float,
) -> SolveResult:
    """Minimize ||z[:k] - anchor||^2, k = len(anchor), subject to c(z) = 0 and
    lower <= z <= upper; the variables past k (slacks) are free of cost.

    start = (z0, *constraints(z0)) is the caller's evaluation at a z0 inside
    the bounds (else ValueError). With anchor=None this is a pure
    feasibility solve that stays close to z0 (minimum-norm steps).
    """
    z0, c, read_jac = start
    z = np.asarray(z0, dtype=float).copy()
    nz = len(z)
    anchor = np.zeros(0) if anchor is None else np.asarray(anchor, dtype=float)
    k = len(anchor)
    anchor_jac = np.eye(k, nz)  # the objective is linear in z
    if np.any(z < lower) or np.any(z > upper):
        raise ValueError("the start lies outside the bounds")

    # c, its Jacobian's reader and c_jac (None until read) are those of the
    # current iterate, carried from the start or the trial that reached it
    c_jac = None
    lam = np.zeros(len(c))
    rho = penalty0
    prev_violation = float(np.max(np.abs(c))) if len(c) else 0.0
    total_inner = 0
    rounds: list[RoundInfo] = []

    def residual(zv: np.ndarray, cv: np.ndarray) -> np.ndarray:
        r_pen = np.sqrt(rho / 2.0) * (cv + lam / rho)
        return np.concatenate([zv[:k] - anchor, r_pen])

    def jacobian(c_jac: np.ndarray) -> np.ndarray:
        return np.vstack([anchor_jac, np.sqrt(rho / 2.0) * c_jac])

    for outer in range(1, max_outer + 1):
        if c_jac is None:
            c_jac = read_jac()
        r, jac = residual(z, c), jacobian(c_jac)
        f_cur = float(r @ r)
        damping = Damping(float(np.max(np.einsum("ij,ij->j", jac, jac), initial=0.0)), len(r))
        for _ in range(max_inner):
            total_inner += 1
            grad = 2.0 * jac.T @ r
            # variables the gradient pushes against a bound stay there; the
            # step is taken in the others, whose gradient is the projected one
            free = ~(((z <= lower) & (grad > 0)) | ((z >= upper) & (grad < 0)))
            if np.max(np.abs(grad[free]), initial=0.0) < 1e-12 or f_cur < 1e-28:
                break

            jf = jac[:, free]
            wide = jf.shape[0] < jf.shape[1]
            gram = jf @ jf.T if wide else jf.T @ jf
            eye = np.eye(len(gram))

            def solve(mu: float) -> tuple[np.ndarray, float]:
                d = np.zeros(nz)
                if wide:
                    d[free] = -jf.T @ np.linalg.solve(gram + mu * eye, r)
                else:
                    d[free] = np.linalg.solve(gram + mu * eye, -0.5 * grad[free])
                z_try = _project(z + d, lower, upper)
                lin = r + jac @ (z_try - z)
                return z_try, f_cur - float(lin @ lin)

            def evaluate(z_try: np.ndarray) -> tuple[float, tuple]:
                c_try, read_try = constraints(z_try)
                r_try = residual(z_try, c_try)
                return float(r_try @ r_try), (c_try, read_try, r_try)

            step = damping.step(f_cur, solve, evaluate)
            if step is None:
                break
            z_new, f_cur, (c, read_jac, r), mu_used = step
            moved = float(np.max(np.abs(z_new - z)))
            z, c_jac = z_new, None
            if moved < _TOL_STEP and mu_used <= damping.mu_start:
                break
            c_jac = read_jac()
            jac = jacobian(c_jac)

        violation = float(np.max(np.abs(c))) if len(c) else 0.0
        rounds.append(RoundInfo(violation, rho, damping.accepted, damping.rejected))
        if violation < tol_eq:
            r_obj = z[:k] - anchor
            return SolveResult(
                z=z,
                max_violation=violation,
                objective=float(r_obj @ r_obj),
                outer_iterations=outer,
                inner_iterations=total_inner,
                rounds=tuple(rounds),
            )
        lam = lam + rho * c
        if violation > 0.25 * prev_violation:
            rho *= penalty_growth
        prev_violation = violation

    row = int(np.argmax(np.abs(c)))
    raise SolverError(
        f"no feasible point within {max_outer} outer rounds "
        f"(max constraint violation {prev_violation:.3e} in row {row})",
        row=row,
        value=float(c[row]),
    )
