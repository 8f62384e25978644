"""AC power flow: Newton-Raphson solution, branch flows, bus injections.

The branch/injection evaluators are the physical ground truth every other
module measures against, so they are written once here in plain complex
phasor arithmetic and reused everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import AdmittanceModel, Branch, NetworkCase, build_admittance


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
    vm = np.ones(case.n_bus)
    va = np.zeros(case.n_bus)
    for i, b in enumerate(case.buses):
        if b.kind in ("PV", "slack"):
            gens = case.gens_at(b.id)
            if gens:
                vm[i] = gens[0].vset
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


def _newton_equations(case: NetworkCase, adm: AdmittanceModel):
    """The power-flow mismatch and its Jacobian as functions of the state.

    Rows are [P at PV and PQ buses | Q at PQ buses] and columns [angles at PV
    and PQ buses | magnitudes at PQ buses], each in case bus order. Both come
    from the measurement model of those rows compiled against adm, whose
    columns are [non-slack angles | all magnitudes]: the PV and slack
    magnitude columns are dropped. Returns (pvpq, pq, mismatch, jacobian).
    """
    # imported here because estimation imports StateVector from this module
    from .estimation import MeasurementKey, measurement_model

    kinds = [b.kind for b in case.buses]
    pv = [i for i, k in enumerate(kinds) if k == "PV"]
    pq = [i for i, k in enumerate(kinds) if k == "PQ"]
    pvpq = sorted(pv + pq)

    ids = [b.id for b in case.buses]
    model = measurement_model(
        adm,
        tuple(MeasurementKey(f"Pinj:{ids[i]}", "Pinj", ids[i]) for i in pvpq)
        + tuple(MeasurementKey(f"Qinj:{ids[i]}", "Qinj", ids[i]) for i in pq),
    )
    n_ang = len(pvpq)
    column = np.full(model.n_state, -1)
    column[:n_ang] = np.arange(n_ang)
    column[n_ang + np.array(pq, dtype=int)] = n_ang + np.arange(len(pq))
    kept = np.flatnonzero(column[model.cols] >= 0)
    rows, cols = model.rows[kept], column[model.cols[kept]]
    p_sched, q_sched = scheduled_injections(case)
    scheduled = np.concatenate([p_sched[pvpq], q_sched[pq]])

    def mismatch(state: StateVector) -> np.ndarray:
        return scheduled - model.h(state)

    def jacobian(state: StateVector) -> np.ndarray:
        jac = np.zeros((model.m, model.m))
        jac[rows, cols] = model.jacobian_values(state)[kept]
        return jac

    return pvpq, pq, mismatch, jacobian


def newton_power_flow(
    case: NetworkCase,
    adm: AdmittanceModel | None = None,
    tol: float = 1e-8,
    max_iter: int = 20,
) -> PowerFlowSolution:
    """Full Newton-Raphson from a flat start.

    PV magnitudes stay pinned to their setpoints and generator reactive
    limits are not enforced. Raises on non-convergence or a singular Jacobian.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if adm is None:
        adm = build_admittance(case)

    state = flat_start(case)
    vm, va = state.vm.copy(), state.va.copy()
    pvpq, pq, mismatch_at, jacobian_at = _newton_equations(case, adm)

    history: list[float] = []
    for it in range(max_iter):
        current = StateVector(state.bus_ids, vm, va)
        mismatch = mismatch_at(current)
        max_mis = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
        history.append(max_mis)
        if max_mis < tol:
            return PowerFlowSolution(current, True, it, tuple(history))

        try:
            step = np.linalg.solve(jacobian_at(current), mismatch)
        except np.linalg.LinAlgError:
            raise PowerFlowError(
                f"singular Jacobian at iteration {it} (max mismatch {max_mis:.3e})"
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


def branch_flow(state: StateVector, branch: Branch) -> BranchFlow:
    """Exact two-port evaluation including tap, phase shift, and charging."""
    vf = state.magnitude(branch.from_bus) * np.exp(1j * state.angle(branch.from_bus))
    vt = state.magnitude(branch.to_bus) * np.exp(1j * state.angle(branch.to_bus))
    ys = 1.0 / complex(branch.r, branch.x)
    ysh = 0.5j * branch.b
    tap = branch.tap * np.exp(1j * branch.shift)
    i_from = (ys + ysh) * vf / (branch.tap * branch.tap) - ys * vt / np.conj(tap)
    i_to = (ys + ysh) * vt - ys * vf / tap
    sf = vf * np.conj(i_from)
    st = vt * np.conj(i_to)
    return BranchFlow(pf=sf.real, qf=sf.imag, pt=st.real, qt=st.imag)


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
