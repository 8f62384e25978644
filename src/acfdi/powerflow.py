"""AC power flow: Newton-Raphson from a flat start.

The mismatch and its Jacobian come from the measurement model of the Newton
rows (`estimation.MeasurementModel`); no network equation is written in this
module. The branch flows and bus injections of a solved state are read from
the full layout's model (`estimation.network_powers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .banded import BlockBand, lapack, read_only
from .estimation import KIND_CODE, Layout, MeasurementModel, layout_pattern
from .network import AdmittanceModel, NetworkCase, StateVector, build_admittance, shared
from .nlsolver import check_limits


class PowerFlowError(RuntimeError):
    pass


class _StepFailure(PowerFlowError):
    """A Newton step that is not taken. Its args are the message and the end
    of the iteration's message, which names the bus it stopped at, if any."""


@dataclass(frozen=True)
class PowerFlowSolution:
    state: StateVector
    iterations: int
    mismatch_history: tuple[float, ...]  # max |P,Q| mismatch before each update


def flat_start(case: NetworkCase) -> StateVector:
    """V = 1, angle = 0, with PV/slack magnitudes taken from generator setpoints."""
    vset: dict[int, float] = {}
    for g in case.gens:
        if g.status:
            vset.setdefault(g.bus, g.vset)  # the first in-service generator's
    vm = np.ones(case.n_bus)
    va = np.zeros(case.n_bus)
    for i, b in enumerate(case.buses):
        if b.kind in ("PV", "slack") and b.id in vset:
            vm[i] = vset[b.id]
    return StateVector(tuple(b.id for b in case.buses), vm, va)


def scheduled_injections(case: NetworkCase) -> tuple[np.ndarray, np.ndarray]:
    """Net scheduled P, Q per bus (generation minus load), p.u."""
    p = np.array([-b.pd for b in case.buses])
    q = np.array([-b.qd for b in case.buses])
    for g in case.gens:
        if g.status:
            i = case.bus_index(g.bus)
            p[i] += g.pg
            q[i] += g.qg
    return p, q


# bound on a Newton step's linear residual |J dx - r|, relative to
# |J| |dx| + |r| in the infinity norm; a backward-stable solve leaves a few
# ulps, an LU that lost accuracy (pivot growth) far more
_STEP_RESIDUAL_BOUND = 1e-10


class _NewtonPattern:
    """The Newton equations as far as the topology fixes them, and the step
    they give. Built once per topology (`network.shared`), from the bus
    kinds of adm's case; holds no admittance model or value.

    Rows are [P at PV and PQ buses | Q at PQ buses] and columns [angles at PV
    and PQ buses | magnitudes at PQ buses], each in case bus order. Both come
    from the measurement model of `layout` compiled against an admittance
    model, whose columns are [non-slack angles | all magnitudes]: `kept`
    drops the PV and slack magnitude columns. Row k and column k belong to
    the same bus (P with angle, Q with magnitude), and two buses share a cell
    only where Ybus couples them, so the pattern is structurally symmetric:
    its RCM order (`banded.BlockBand`) makes it a band of half-width b, and
    `slot` places each nonzero in the general band storage of LAPACK's band
    LU `dgbtrf`, so the step is no dense m x m solve.
    """

    def __init__(self, adm: AdmittanceModel):
        buses = adm.case.buses
        kinds = np.array([b.kind for b in buses])
        self.pq = np.flatnonzero(kinds == "PQ")
        self.pvpq = np.flatnonzero(kinds != "slack")
        self.layout = Layout.from_rows(
            [(f"Pinj:{buses[i].id}", KIND_CODE["Pinj"], buses[i].id, False) for i in self.pvpq]
            + [(f"Qinj:{buses[i].id}", KIND_CODE["Qinj"], buses[i].id, False) for i in self.pq]
        )
        pattern = layout_pattern(adm, self.layout)
        self.m = pattern.m
        n_ang = len(self.pvpq)
        column = np.full(pattern.n_state, -1)
        column[:n_ang] = np.arange(n_ang)
        column[n_ang + self.pq] = n_ang + np.arange(len(self.pq))
        self.kept = np.flatnonzero(column[pattern.cols] >= 0)
        self.rows = pattern.rows[self.kept]
        self.cols = column[pattern.cols[self.kept]]
        self.band = BlockBand(self.m, self.rows, self.cols)
        self.slot = self.band.lu_slot(self.rows, self.cols)
        read_only(self.pq, self.pvpq, self.kept, self.rows, self.cols, self.slot)

    def factor(self, values: np.ndarray) -> _Factor:
        """The Jacobian with these nonzeros at (rows, cols), factored by
        LAPACK's band LU with partial pivoting, `dgbtrf`."""
        lu = np.zeros((self.m, 3 * self.band.size + 1))
        lu.reshape(-1)[self.slot] = values
        pivots, info = lapack().gbtrf(lu, self.band.size)
        norm = np.max(np.bincount(self.rows, weights=np.abs(values), minlength=self.m))
        return _Factor(values, lu, pivots, info, norm)

    def step(self, factor: _Factor, mismatch: np.ndarray) -> np.ndarray:
        """J⁻¹ mismatch from J's factor, by LAPACK's `dgbtrs`.

        Raises _StepFailure when the Jacobian is singular, naming the bus of
        the column whose pivot vanished, when the step overflows, naming the
        bus of the largest mismatch, or when its linear residual exceeds
        _STEP_RESIDUAL_BOUND, which one O(nnz) pass over the nonzeros
        measures."""
        band, values = self.band, factor.values
        if factor.info:
            bus = self.layout.where[band.order[factor.info - 1]]
            raise _StepFailure("singular Jacobian", f", zero pivot at bus {bus}")
        x = mismatch[band.order]
        lapack().gbtrs(factor.lu, band.size, factor.pivots, x)
        dx = band.scatter(x)
        residual = np.bincount(self.rows, weights=values * dx[self.cols], minlength=self.m)
        if not np.isfinite(residual).all():  # the Jacobian, dx or J dx overflowed
            worst = self.layout.where[np.argmax(np.abs(mismatch))]
            raise _StepFailure("Newton step overflows", f" at bus {worst}")
        scale = factor.norm * np.max(np.abs(dx)) + np.max(np.abs(mismatch))
        error = np.max(np.abs(residual - mismatch))
        # written so that a nan residual fails too
        if not error <= _STEP_RESIDUAL_BOUND * scale:
            raise _StepFailure(
                f"inaccurate Newton step (linear residual {error:.3e}, "
                f"{error / scale:.1e} relative)",
                "",
            )
        return dx

    def flat_start(self, model: MeasurementModel, state: StateVector) -> _NewtonStart:
        """The first iterate, which reads no load: h at the flat state and the
        factor of the Jacobian there, read-only."""
        flat = model.evaluate(state)
        h, factor = flat.h(), self.factor(flat.jacobian_values()[self.kept])
        read_only(h, factor.values, factor.lu, factor.pivots)
        return _NewtonStart(h, factor)


class _Factor(NamedTuple):
    """A Newton Jacobian: its nonzeros, its band LU from `dgbtrf` (the LU in
    general band storage, the interchanges and info, 0 or the position of
    the first zero pivot) and its largest absolute row sum."""

    values: np.ndarray
    lu: np.ndarray
    pivots: np.ndarray
    info: int
    norm: float


class _NewtonStart(NamedTuple):
    """h and the Jacobian's factor at the flat start."""

    h: np.ndarray
    factor: _Factor


def newton_power_flow(
    case: NetworkCase,
    adm: AdmittanceModel | None = None,
    tol: float = 1e-8,
    max_iter: int = 20,
) -> PowerFlowSolution:
    """Full Newton-Raphson from a flat start.

    Each iterate is evaluated once by the measurement model of the Newton
    rows (`_NewtonPattern`): the mismatch is the scheduled injections minus
    its h, and the step reads its kept Jacobian values. The flat start's h
    and Jacobian factor are shared by every call on the same admittance
    values and generator setpoints; its step is solved and checked anew.
    PV magnitudes stay pinned to their setpoints and generator reactive
    limits are not enforced. Raises on non-convergence, a mismatch that is not finite, a
    singular Jacobian, naming the bus of the vanished pivot, a step that
    overflows, naming the bus of the largest mismatch, or an inaccurate
    step; numpy's floating-point warnings are silenced, as these checks
    report what they would.
    """
    check_limits(tol, max_iter)
    if adm is None:
        adm = build_admittance(case)

    state = flat_start(case)
    vm, va = state.vm.copy(), state.va.copy()
    pattern = shared((adm.topology, "newton"), lambda: _NewtonPattern(adm))
    pvpq, pq = pattern.pvpq, pattern.pq
    model = MeasurementModel(adm, pattern.layout)
    p_sched, q_sched = scheduled_injections(case)
    scheduled = np.concatenate([p_sched[pvpq], q_sched[pq]])

    # the flat start reads no load: keyed as `MeasurementModel.flat_start`
    # keys its own, by the admittance values and the flat magnitudes
    key = (adm.topology, "newton", model._yr.tobytes(), model._yi.tobytes(), vm.tobytes())
    history: list[float] = []
    with np.errstate(all="ignore"):
        h, factor = shared(key, lambda: pattern.flat_start(model, state))
        for it in range(max_iter):
            current = StateVector(state.bus_ids, vm, va)
            if it:
                evaluation = model.evaluate(current)
                h, factor = evaluation.h(), None
            mismatch = scheduled - h
            max_mis = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
            if not np.isfinite(max_mis):
                raise PowerFlowError(f"mismatch is not finite at iteration {it}")
            history.append(max_mis)
            if max_mis < tol:
                return PowerFlowSolution(current, it, tuple(history))

            if factor is None:
                factor = pattern.factor(evaluation.jacobian_values()[pattern.kept])
            try:
                step = pattern.step(factor, mismatch)
            except _StepFailure as err:
                message, at = err.args
                raise PowerFlowError(
                    f"{message} at iteration {it} (max mismatch {max_mis:.3e}{at})"
                ) from None
            va[pvpq] += step[: len(pvpq)]
            vm[pq] += step[len(pvpq):]

    raise PowerFlowError(
        f"no convergence in {max_iter} iterations (final max mismatch {history[-1]:.3e})"
    )


def solve_power_flow(
    case: NetworkCase, adm: AdmittanceModel | None = None, **limits
) -> StateVector:
    """The state newton_power_flow converges to; limits are its tol and max_iter."""
    return newton_power_flow(case, adm, **limits).state
