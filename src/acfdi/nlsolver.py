"""The point nearest an anchor on a nonlinear constraint set inside box
bounds, by projection steps with a primal active set.

Each step is the SQP step of the least-distance objective, whose Hessian is
constant: the Gauss-Newton method for equality-constrained least squares
(Nocedal and Wright, *Numerical Optimization*, 2006, ch. 18). From z it
moves to the point nearest the anchor on the constraints linearized at z,
c + J d = 0, by one dense KKT solve over the free variables; slacks are
free of cost. Without an anchor every variable is costed and the step is
the minimum-norm one onto the linearized constraints. With no line search,
it converges linearly at the ratio of the multipliers times the constraints'
curvature to the objective's Hessian, and diverges where that passes one:
1e-4 to 4e-2 per step on case39 designs at λ 1.05-12.

The box is a primal active set (ibid., ch. 16.5) that carries from step to
step: a free variable that the step would carry past a bound is held there
and the step is solved again; a held variable whose reduced gradient
points into the box is released, the most inward first, at most once per
step. A slack held at 0 is a binding constraint, and one whose multiplier
has the wrong sign leaves the working set.

The solve stops at the first point whose step is at rounding level, within
len(z) eps of the point's largest component, with each constraint within
what such a step moves it by. It returns that point with its KKT solve's
multipliers, working set and stationarity residual, for no further
evaluation. One callback evaluates the constraints at a point: their
values, and a function that reads dc/dz off the same evaluation. Each point
is evaluated once and its Jacobian read once. Deterministic given z0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# constraint callback, called at every step's point: z -> (c(z), jacobian),
# where jacobian() gives dc/dz at z from the same evaluation
ConstraintFn = Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]

_EPS = float(np.finfo(float).eps)


class SolverError(RuntimeError):
    """No feasible point; `row` is the constraint with the largest violation
    after the last step and `value` its residual there, or a constraint whose
    every variable is held at a bound and the residual they leave it at."""

    def __init__(self, message: str, row: int, value: float):
        super().__init__(message)
        self.row = row
        self.value = value


@dataclass(frozen=True)
class RoundInfo:
    """One projection step: the constraint violation at the point it starts
    from, the largest component of its step, and the KKT solves it took."""

    violation: float
    step: float
    kkt_solves: int


@dataclass(frozen=True)
class SolveResult:
    """The solution, its objective and each step's record, whose count,
    KKT solves and last violation are the result's. The KKT solve at z
    gives the multipliers mu (2 (z[:k] - anchor) = J^T mu on the free
    variables), the variables held at each bound and the largest
    stationarity residual over the free ones."""

    z: np.ndarray
    objective: float
    rounds: tuple[RoundInfo, ...]
    multipliers: np.ndarray
    at_lower: np.ndarray
    at_upper: np.ndarray
    stationarity: float

    @property
    def outer_iterations(self) -> int:
        return len(self.rounds)

    @property
    def inner_iterations(self) -> int:
        return sum(rd.kkt_solves for rd in self.rounds)

    @property
    def max_violation(self) -> float:
        return self.rounds[-1].violation


def _project(z, c, jac, pull, weight, lower, upper, at_lower, at_upper):
    """The step d from z to the point nearest z + pull on the constraints
    linearized at z, c + J d = 0, with the held variables on their bounds;
    also the multipliers nu of that solve and the number of solves. The
    working set, at_lower and at_upper, is updated in place, and a variable
    leaves it at most once per step."""
    nz, m = len(z), len(c)
    released = np.zeros(nz, dtype=bool)
    solves = 0
    while True:
        solves += 1
        free = ~(at_lower | at_upper)
        nf = int(free.sum())
        d = np.where(at_lower, lower - z, np.where(at_upper, upper - z, 0.0))
        kkt = np.zeros((nf + m, nf + m))
        kkt[np.arange(nf), np.arange(nf)] = weight[free]
        kkt[:nf, nf:] = jac[:, free].T
        kkt[nf:, :nf] = jac[:, free]
        rhs = np.concatenate([pull[free], -c - jac @ d])
        try:
            solution = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            # singular: a constraint whose every variable is held, left at c + J d
            left = np.where(jac[:, free].any(axis=1), 0.0, c + jac @ d)
            row = int(np.argmax(np.abs(left)))
            raise SolverError(f"no feasible point: every variable of row {row} is held at a bound "
                              f"(violation {abs(left[row]):.3e})", row, float(left[row])) from None
        d[free], nu = solution[:nf], solution[nf:]
        below, above = free & (z + d < lower), free & (z + d > upper)
        if below.any() or above.any():
            at_lower |= below
            at_upper |= above
            continue
        # the reduced gradient of the held variables, W d - pull + J^T nu:
        # where it points into the box, the objective falls off the bound
        grad = weight * d - pull + jac.T @ nu
        inward = np.where(at_lower, -grad, 0.0) + np.where(at_upper, grad, 0.0)
        inward[released] = 0.0
        if not np.max(inward, initial=0.0) > 0.0:
            return d, nu, solves
        i = int(np.argmax(inward))
        at_lower[i] = at_upper[i] = False
        released[i] = True


def solve_constrained(
    start: tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]],
    constraints: ConstraintFn,
    anchor: np.ndarray | None,
    lower: np.ndarray,
    upper: np.ndarray,
    max_outer: int,
) -> SolveResult:
    """Minimize ||z[:k] - anchor||^2, k = len(anchor), subject to c(z) = 0 and
    lower <= z <= upper; the variables past k (slacks) are free of cost.

    start = (z0, *constraints(z0)) is the caller's evaluation at a z0 inside
    the bounds (else ValueError). With anchor=None this is a pure
    feasibility solve that stays close to z0 (minimum-norm steps). SolverError
    if none of the first max_outer steps (outer rounds) is at rounding level.
    """
    z0, c, read_jac = start
    z = np.asarray(z0, dtype=float).copy()
    if np.any(z < lower) or np.any(z > upper):
        raise ValueError("the start lies outside the bounds")
    nz = len(z)
    # the anchor pulls the costed variables, z[:k]; without one, every
    # variable is costed and nothing pulls
    k = 0 if anchor is None else len(anchor)
    weight = np.ones(nz) if anchor is None else (np.arange(nz) < k).astype(float)
    anchor = np.zeros(0) if anchor is None else np.asarray(anchor, dtype=float)
    at_lower, at_upper = z <= lower, z >= upper
    rounds: list[RoundInfo] = []
    for _ in range(max_outer):
        jac = read_jac()
        pull = np.zeros(nz)
        pull[:k] = anchor - z[:k]
        d, nu, n = _project(z, c, jac, pull, weight, lower, upper, at_lower, at_upper)
        step = float(np.max(np.abs(d), initial=0.0))
        rounds.append(RoundInfo(float(np.max(np.abs(c), initial=0.0)), step, n))
        # rounding level: the step within len(z) eps of the point's size, and
        # each constraint within what such a step moves it by
        level = nz * _EPS * float(np.max(np.abs(z), initial=0.0))
        if step <= level and np.all(np.abs(c) <= level * np.abs(jac).sum(axis=1)):
            free = ~(at_lower | at_upper)
            return SolveResult(
                z, float(np.sum((z[:k] - anchor) ** 2)), tuple(rounds), -2.0 * nu,
                at_lower, at_upper, 2.0 * float(np.max(np.abs(weight * d)[free], initial=0.0)),
            )
        z = np.minimum(np.maximum(z + d, lower), upper)
        c, read_jac = constraints(z)

    row = int(np.argmax(np.abs(c)))
    raise SolverError(
        f"no feasible point after {max_outer} outer rounds "
        f"(max constraint violation {abs(float(c[row])):.3e} in row {row})",
        row=row,
        value=float(c[row]),
    )
