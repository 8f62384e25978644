"""AC power flow: Newton-Raphson solution, branch flows, bus injections.

Every evaluator here reads a measurement model compiled against the
admittance model: branch flows and bus injections are the powers of the full
layout's model (`network_powers`), and the Newton-Raphson mismatch and
Jacobian come from the model of its own rows. No network equation is written
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import ConfigError, member
from .banded import BlockBand, block_lu_solve, read_only
from .network import AdmittanceModel, NetworkCase, build_admittance

if TYPE_CHECKING:
    from .estimation import Evaluation


class PowerFlowError(RuntimeError):
    pass


@dataclass(frozen=True)
class StateVector:
    """Per-bus voltage magnitude (p.u.) and angle (radians), case bus order."""

    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va: np.ndarray

    def __post_init__(self):
        if len(self.bus_ids) != len(self.vm) or len(self.vm) != len(self.va):
            raise ValueError("bus_ids, vm, va must have equal length")

    @cached_property
    def _position(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.bus_ids)}

    def index(self, bus_id: int) -> int:
        try:
            return self._position[bus_id]
        except KeyError:
            raise ValueError(f"bus {bus_id} is not in the state") from None

    def magnitude(self, bus_id: int) -> float:
        return float(self.vm[self.index(bus_id)])

    def angle(self, bus_id: int) -> float:
        return float(self.va[self.index(bus_id)])

    def complex_voltages(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.va)

    def to_dict(self) -> dict:
        return {
            "buses": [
                {"id": b, "vm": vm, "va": va}
                for b, vm, va in zip(
                    self.bus_ids,
                    np.asarray(self.vm, dtype=float).tolist(),
                    np.asarray(self.va, dtype=float).tolist(),
                )
            ]
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str = "state") -> "StateVector":
        """The state that `to_dict` wrote; a missing or mistyped field raises
        ConfigError naming it."""
        rows = [
            (member(row, "id", int, f"{where} buses[{i}]"),
             member(row, "vm", float, f"{where} buses[{i}]"),
             member(row, "va", float, f"{where} buses[{i}]"))
            for i, row in enumerate(member(doc, "buses", list, where))
        ]
        if not rows:
            raise ConfigError(f"{where} field 'buses' is empty")
        bus_ids, vm, va = zip(*rows)
        for i, magnitude in enumerate(vm):
            if magnitude <= 0:
                raise ConfigError(f"{where} buses[{i}] field 'vm' must be positive")
        return cls(bus_ids=bus_ids, vm=np.array(vm), va=np.array(va))


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
# ulps, a block LU that lost accuracy without pivoting across blocks far more
_STEP_RESIDUAL_BOUND = 1e-10


class _NewtonPattern:
    """What the Newton equations take from the topology alone: the layout of
    their rows, the PV and PQ positions, the Jacobian's kept entries and
    their band layout. Built once per topology (`estimation.shared`), from
    the bus kinds of adm's case; holds no admittance model or value."""

    def __init__(self, adm: AdmittanceModel):
        # imported here because estimation imports StateVector from this module
        from .estimation import KIND_CODE, Layout, layout_pattern

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
        self.slot = self.band.slot(self.rows, self.cols)
        read_only(self.pq, self.pvpq, self.kept, self.rows, self.cols, self.slot)


class _NewtonEquations:
    """The power-flow mismatch and its Jacobian as functions of the state,
    and the Newton step they give.

    Rows are [P at PV and PQ buses | Q at PQ buses] and columns [angles at PV
    and PQ buses | magnitudes at PQ buses], each in case bus order. Both come
    from the measurement model of those rows compiled against adm, whose
    columns are [non-slack angles | all magnitudes]: the PV and slack
    magnitude columns are dropped. Row k and column k belong to the same bus
    (P with angle, Q with magnitude), and two buses share a cell only where
    Ybus couples them, so the pattern is structurally symmetric: the step is
    a block LU over its `banded.BlockBand` layout, no dense m x m solve.
    Everything but the scheduled injections and the model's values comes
    from the topology's `_NewtonPattern`.
    """

    def __init__(self, case: NetworkCase, adm: AdmittanceModel):
        from .estimation import MeasurementModel, shared

        shape = shared((adm.topology, "newton"), lambda: _NewtonPattern(adm))
        self.pq, self.pvpq, self.m = shape.pq, shape.pvpq, shape.m
        self.rows, self.cols = shape.rows, shape.cols
        self._kept, self._band, self._slot = shape.kept, shape.band, shape.slot
        self._model = MeasurementModel(adm, shape.layout)
        self.evaluate = self._model.evaluate
        p_sched, q_sched = scheduled_injections(case)
        self._scheduled = np.concatenate([p_sched[self.pvpq], q_sched[self.pq]])
        # the band storage of every step: the slots of the nonzeros are
        # rewritten, every other cell keeps its zero or its padding one
        band = self._band
        self._storage = np.zeros((3 * band.blocks - 2) * band.size * band.size)
        self._storage[band.pad_slot] = 1.0

    def mismatch(self, evaluation: Evaluation) -> np.ndarray:
        """The mismatch at the state of this evaluation (`evaluate`)."""
        return self._scheduled - evaluation.h()

    def jacobian(self, evaluation: Evaluation) -> np.ndarray:
        """The Jacobian's nonzeros at (rows, cols), at the state of this
        evaluation."""
        return evaluation.jacobian_values()[self._kept]

    def step(self, values: np.ndarray, mismatch: np.ndarray) -> np.ndarray:
        """J⁻¹ mismatch for the Jacobian with these nonzeros.

        Raises PowerFlowError when a diagonal block of the LU is singular or
        when the step's linear residual exceeds _STEP_RESIDUAL_BOUND, which
        one O(nnz) pass over the nonzeros measures."""
        band, storage = self._band, self._storage
        storage[self._slot] = values
        try:
            dx = band.scatter(block_lu_solve(*band.split(storage), band.gather(mismatch)))
        except np.linalg.LinAlgError:
            raise PowerFlowError("singular Jacobian block") from None
        residual = np.bincount(self.rows, weights=values * dx[self.cols], minlength=self.m)
        norm = np.max(np.bincount(self.rows, weights=np.abs(values), minlength=self.m))
        scale = norm * np.max(np.abs(dx)) + np.max(np.abs(mismatch))
        error = np.max(np.abs(residual - mismatch))
        # written so that a nan residual fails too
        if not error <= _STEP_RESIDUAL_BOUND * scale:
            raise PowerFlowError(
                f"inaccurate Newton step (linear residual {error:.3e}, "
                f"{error / scale:.1e} relative)"
            )
        return dx


def check_limits(tol: float, max_iter: int) -> None:
    """Raise ValueError unless 0 < tol < inf (a nan fails) and max_iter >= 1."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")


def newton_power_flow(
    case: NetworkCase,
    adm: AdmittanceModel | None = None,
    tol: float = 1e-8,
    max_iter: int = 20,
) -> PowerFlowSolution:
    """Full Newton-Raphson from a flat start.

    PV magnitudes stay pinned to their setpoints and generator reactive
    limits are not enforced. Raises on non-convergence, a singular Jacobian
    block or an inaccurate step.
    """
    check_limits(tol, max_iter)
    if adm is None:
        adm = build_admittance(case)

    state = flat_start(case)
    vm, va = state.vm.copy(), state.va.copy()
    equations = _NewtonEquations(case, adm)
    pvpq, pq = equations.pvpq, equations.pq

    history: list[float] = []
    for it in range(max_iter):
        current = StateVector(state.bus_ids, vm, va)
        evaluation = equations.evaluate(current)
        mismatch = equations.mismatch(evaluation)
        max_mis = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
        history.append(max_mis)
        if max_mis < tol:
            return PowerFlowSolution(current, it, tuple(history))

        try:
            step = equations.step(equations.jacobian(evaluation), mismatch)
        except PowerFlowError as err:
            raise PowerFlowError(
                f"{err} at iteration {it} (max mismatch {max_mis:.3e})"
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


def full_layout_powers(evaluation: Evaluation, adm: AdmittanceModel) -> tuple[np.ndarray, ...]:
    """Complex power (s_bus, s_from, s_to) at every bus in case order and at both
    ends of every in-service branch, aligned with adm.branches, from an evaluation
    of adm's full layout: its current rows are the Ybus rows, from ends, to ends."""
    s = evaluation.powers()
    n, nl = adm.case.n_bus, len(adm.branches)
    return s[:n], s[n : n + nl], s[n + nl :]


def network_powers(state: StateVector, adm: AdmittanceModel) -> tuple[np.ndarray, ...]:
    """The `full_layout_powers` of adm's full layout at state."""
    from .estimation import MeasurementModel  # estimation imports this module

    return full_layout_powers(MeasurementModel(adm, adm.full_layout).evaluate(state), adm)


def bus_injection(
    state: StateVector,
    case: NetworkCase,
    bus_id: int,
    adm: AdmittanceModel | None = None,
) -> tuple[float, float]:
    """Net complex injection at a bus (generation minus load convention):
    the sum of outgoing branch flows plus bus-shunt consumption."""
    if adm is None:
        adm = build_admittance(case)
    s = network_powers(state, adm)[0][case.bus_index(bus_id)]
    return float(s.real), float(s.imag)
