"""AC power flow: Newton-Raphson solution, branch flows, bus injections.

Every evaluator here reads the admittance model: branch flows come from the
two-port stamps that `network.build_admittance` writes, injections from Ybus,
and the Newton-Raphson mismatch and Jacobian from the measurement model
compiled against it. No branch equation is written in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .banded import BlockBand, block_lu_solve
from .network import AdmittanceModel, NetworkCase, build_admittance


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

    def replace_buses(self, vm_by_bus: dict[int, float], va_by_bus: dict[int, float]) -> "StateVector":
        vm = self.vm.copy()
        va = self.va.copy()
        for bus, v in vm_by_bus.items():
            vm[self.index(bus)] = v
        for bus, a in va_by_bus.items():
            va[self.index(bus)] = a
        return StateVector(self.bus_ids, vm, va)

    def to_dict(self) -> dict:
        return {
            "buses": [
                {"id": b, "vm": float(self.vm[i]), "va": float(self.va[i])}
                for i, b in enumerate(self.bus_ids)
            ]
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StateVector":
        rows = doc["buses"]
        return cls(
            bus_ids=tuple(r["id"] for r in rows),
            vm=np.array([r["vm"] for r in rows], dtype=float),
            va=np.array([r["va"] for r in rows], dtype=float),
        )


@dataclass(frozen=True)
class BranchFlow:
    """Two-port flow at a given state: from-end and to-end P/Q plus apparent magnitudes."""

    pf: float
    qf: float
    pt: float
    qt: float

    @property
    def sf(self) -> float:
        return float(np.hypot(self.pf, self.qf))

    @property
    def st(self) -> float:
        return float(np.hypot(self.pt, self.qt))


@dataclass(frozen=True)
class PowerFlowSolution:
    state: StateVector
    converged: bool
    iterations: int
    mismatch_history: tuple[float, ...]  # max |P,Q| mismatch before each update

    @property
    def final_mismatch(self) -> float:
        return self.mismatch_history[-1] if self.mismatch_history else float("inf")


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
    """

    def __init__(self, case: NetworkCase, adm: AdmittanceModel):
        # imported here because estimation imports StateVector from this module
        from .estimation import KIND_CODE, Layout, measurement_model

        kinds = [b.kind for b in case.buses]
        self.pq = [i for i, k in enumerate(kinds) if k == "PQ"]
        self.pvpq = [i for i, k in enumerate(kinds) if k in ("PV", "PQ")]

        ids = [b.id for b in case.buses]
        self._model = measurement_model(
            adm,
            Layout.from_rows(
                [(f"Pinj:{ids[i]}", KIND_CODE["Pinj"], ids[i], False) for i in self.pvpq]
                + [(f"Qinj:{ids[i]}", KIND_CODE["Qinj"], ids[i], False) for i in self.pq]
            ),
        )
        self.m = self._model.m
        n_ang = len(self.pvpq)
        column = np.full(self._model.n_state, -1)
        column[:n_ang] = np.arange(n_ang)
        column[n_ang + np.array(self.pq, dtype=int)] = n_ang + np.arange(len(self.pq))
        self._kept = np.flatnonzero(column[self._model.cols] >= 0)
        self.rows = self._model.rows[self._kept]
        self.cols = column[self._model.cols[self._kept]]
        self._band = BlockBand(self.m, self.rows, self.cols)
        self._slot = self._band.slot(self.rows, self.cols)
        p_sched, q_sched = scheduled_injections(case)
        self._scheduled = np.concatenate([p_sched[self.pvpq], q_sched[self.pq]])

    def mismatch(self, state: StateVector) -> np.ndarray:
        return self._scheduled - self._model.h(state)

    def jacobian(self, state: StateVector) -> np.ndarray:
        """The Jacobian's nonzeros at (rows, cols)."""
        return self._model.jacobian_values(state)[self._kept]

    def step(self, values: np.ndarray, mismatch: np.ndarray) -> np.ndarray:
        """J⁻¹ mismatch for the Jacobian with these nonzeros.

        Raises PowerFlowError when a diagonal block of the LU is singular or
        when the step's linear residual exceeds _STEP_RESIDUAL_BOUND, which
        one O(nnz) pass over the nonzeros measures."""
        band = self._band
        storage = np.zeros((3 * band.blocks - 2) * band.size * band.size)
        storage[self._slot] = values
        storage[band.pad_slot] = 1.0
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if adm is None:
        adm = build_admittance(case)

    state = flat_start(case)
    vm, va = state.vm.copy(), state.va.copy()
    equations = _NewtonEquations(case, adm)
    pvpq, pq = equations.pvpq, equations.pq

    history: list[float] = []
    for it in range(max_iter):
        current = StateVector(state.bus_ids, vm, va)
        mismatch = equations.mismatch(current)
        max_mis = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
        history.append(max_mis)
        if max_mis < tol:
            return PowerFlowSolution(current, True, it, tuple(history))

        try:
            step = equations.step(equations.jacobian(current), mismatch)
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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex a * b from real parts. numpy fuses its complex
    array product into FMA on some hosts (AVX-512), which rounds differently
    from scalar complex arithmetic; this rounds the same on every host."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def branch_flows(state: StateVector, adm: AdmittanceModel) -> tuple[np.ndarray, np.ndarray]:
    """Complex power (sf, st) entering every in-service branch at its from and
    to end, aligned with adm.branches: sf = vf conj(yff vf + yft vt) and
    st = vt conj(ytf vf + ytt vt), with tap, phase shift and charging all in
    the stamps."""
    v = state.complex_voltages()
    vf, vt = v[adm.f_idx], v[adm.t_idx]
    i_from = _product(adm.yff, vf) + _product(adm.yft, vt)
    i_to = _product(adm.ytf, vf) + _product(adm.ytt, vt)
    return _product(vf, np.conj(i_from)), _product(vt, np.conj(i_to))


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
    i = case.bus_index(bus_id)
    v = state.complex_voltages()
    s = v[i] * np.conj(adm.ybus[i] @ v)
    return float(s.real), float(s.imag)


def all_injections(state: StateVector, adm: AdmittanceModel) -> tuple[np.ndarray, np.ndarray]:
    v = state.complex_voltages()
    s = v * np.conj(adm.ybus @ v)
    return s.real, s.imag
