"""Measurement generation, WLS AC state estimation, and bad data detection.

The measurement function h maps a full voltage state to every metered
quantity; the estimator inverts it by Gauss-Newton on the weighted normal
equations. State ordering throughout: all non-slack angles (case bus order)
followed by all magnitudes; the slack angle is pinned at zero and excluded.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass

import numpy as np
from scipy import special

from .network import AdmittanceModel, NetworkCase, build_admittance
from .powerflow import StateVector

KINDS = ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang")

DEFAULT_SIGMAS = {
    "Pflow": 0.008,
    "Qflow": 0.008,
    "Pinj": 0.008,
    "Qinj": 0.008,
    "Vmag": 0.004,
    "Vang": 0.002,
}

# residual covariance entries below this are treated as critical measurements
CRITICAL_OMEGA = 1e-10


class EstimationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MeasurementKey:
    """Identity of one metered quantity: what is measured and where."""

    id: str
    kind: str
    bus: int | None = None  # Pinj/Qinj/Vmag/Vang
    branch_index: int | None = None  # flows: index into in-service branches
    side: str | None = None  # flows: 'from' | 'to'


@dataclass(frozen=True)
class Measurement(MeasurementKey):
    value: float = 0.0
    variance: float = 1.0


@dataclass(frozen=True)
class MeasurementSet:
    measurements: tuple[Measurement, ...]

    def __post_init__(self):
        ids = [m.id for m in self.measurements]
        if len(set(ids)) != len(ids):
            raise EstimationError("duplicate measurement ids")
        if any(m.variance <= 0 for m in self.measurements):
            raise EstimationError("all measurement variances must be positive")

    @property
    def m(self) -> int:
        return len(self.measurements)

    def keys(self) -> tuple[MeasurementKey, ...]:
        return tuple(
            MeasurementKey(m.id, m.kind, m.bus, m.branch_index, m.side)
            for m in self.measurements
        )

    def values(self) -> np.ndarray:
        return np.array([m.value for m in self.measurements])

    def variances(self) -> np.ndarray:
        return np.array([m.variance for m in self.measurements])

    def index_of(self, meas_id: str) -> int:
        for i, m in enumerate(self.measurements):
            if m.id == meas_id:
                return i
        raise EstimationError(f"unknown measurement id {meas_id!r}")

    def with_values(self, values: np.ndarray) -> "MeasurementSet":
        return MeasurementSet(
            tuple(
                Measurement(m.id, m.kind, m.bus, m.branch_index, m.side, float(v), m.variance)
                for m, v in zip(self.measurements, values)
            )
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["id", "kind", "location", "value", "variance"])
        for m in self.measurements:
            loc = f"{m.bus}" if m.bus is not None else f"branch{m.branch_index}:{m.side}"
            w.writerow([m.id, m.kind, loc, repr(m.value), repr(m.variance)])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "measurements": [
                    {
                        "id": m.id, "kind": m.kind, "bus": m.bus,
                        "branch_index": m.branch_index, "side": m.side,
                        "value": m.value, "variance": m.variance,
                    }
                    for m in self.measurements
                ]
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        doc = json.loads(text)
        return cls(
            tuple(
                Measurement(
                    r["id"], r["kind"], r["bus"], r["branch_index"], r["side"],
                    r["value"], r["variance"],
                )
                for r in doc["measurements"]
            )
        )


def measurement_set_from_csv(text: str, case: NetworkCase) -> MeasurementSet:
    """Rebuild a measurement set from CSV, resolving ids against the case layout."""
    by_id = {k.id: k for k in full_layout(case)}
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["id", "kind"]:
        raise EstimationError("measurement CSV must start with an id,kind,... header")
    out = []
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 5:
            raise EstimationError(
                f"measurement CSV line {lineno} has {len(row)} fields, "
                "expected id,kind,location,value,variance"
            )
        meas_id, _kind, _loc, value, variance = row
        key = by_id.get(meas_id)
        if key is None:
            raise EstimationError(f"unknown measurement id {meas_id!r} for this case")
        try:
            numbers = float(value), float(variance)
        except ValueError:
            raise EstimationError(
                f"measurement CSV line {lineno}: value and variance must be numbers"
            ) from None
        out.append(Measurement(key.id, key.kind, key.bus, key.branch_index, key.side, *numbers))
    return MeasurementSet(tuple(out))


def full_layout(case: NetworkCase, kinds: tuple[str, ...] = KINDS) -> tuple[MeasurementKey, ...]:
    """Canonical layout: P/Q flow at both ends of every in-service branch,
    P/Q injection and V magnitude/angle at every bus."""
    for k in kinds:
        if k not in KINDS:
            raise EstimationError(f"unknown measurement kind {k!r}")
    branches = [br for br in case.branches if br.status]
    pair_count: dict[tuple[int, int], int] = {}
    branch_tag = []
    for br in branches:
        pair = (br.from_bus, br.to_bus)
        dup = pair_count.get(pair, 0)
        pair_count[pair] = dup + 1
        tag = f"{br.from_bus}-{br.to_bus}" + (f"#{dup}" if dup else "")
        branch_tag.append(tag)

    keys: list[MeasurementKey] = []
    if "Pflow" in kinds or "Qflow" in kinds:
        for k, tag in enumerate(branch_tag):
            if "Pflow" in kinds:
                keys.append(MeasurementKey(f"Pf:{tag}", "Pflow", None, k, "from"))
                keys.append(MeasurementKey(f"Pt:{tag}", "Pflow", None, k, "to"))
            if "Qflow" in kinds:
                keys.append(MeasurementKey(f"Qf:{tag}", "Qflow", None, k, "from"))
                keys.append(MeasurementKey(f"Qt:{tag}", "Qflow", None, k, "to"))
    for b in case.buses:
        if "Pinj" in kinds:
            keys.append(MeasurementKey(f"Pinj:{b.id}", "Pinj", b.id, None, None))
        if "Qinj" in kinds:
            keys.append(MeasurementKey(f"Qinj:{b.id}", "Qinj", b.id, None, None))
    for b in case.buses:
        if "Vmag" in kinds:
            keys.append(MeasurementKey(f"Vmag:{b.id}", "Vmag", b.id, None, None))
    for b in case.buses:
        if "Vang" in kinds:
            keys.append(MeasurementKey(f"Vang:{b.id}", "Vang", b.id, None, None))
    return tuple(keys)


def state_dimension(case: NetworkCase) -> int:
    return 2 * case.n_bus - 1


# compiled layouts kept per admittance model; the attack solver and the
# estimator each reuse one layout, so a few entries cover every caller
_COMPILED_PER_MODEL = 8
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) for each (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


class MeasurementModel:
    """A measurement layout compiled against one admittance model.

    Compilation turns the layout into index arrays once: where each row of h
    is gathered from, and where each Jacobian entry sits on the sparsity
    pattern of Ybus, Yf and Yt (MATPOWER's dSbus_dV/dSbr_dV formulation,
    Zimmerman, Murillo-Sanchez and Thomas, IEEE Trans. Power Syst. 2011).
    Evaluation is then loop-free. The currents stay dense matvecs and each
    derivative entry repeats the elementwise arithmetic of the dense
    formulas, so h and the Jacobian match them bit for bit.

    The model also owns the state packing x = [non-slack angles (case bus
    order) | all magnitudes] and the row-pair index that assembles the gain
    HᵀWH and the leverages diag(H G⁻¹ Hᵀ) from the Jacobian's nonzeros.
    """

    def __init__(self, adm: AdmittanceModel, layout: tuple[MeasurementKey, ...]):
        case = adm.case
        n, nl, m = case.n_bus, len(adm.branches), len(layout)
        # the model holds the admittance arrays, not the AdmittanceModel that
        # caches it, so a dropped AdmittanceModel is freed without a cycle
        self._ybus, self._yf, self._yt = adm.ybus, adm.yf, adm.yt
        self._f, self._t = adm.f_idx, adm.t_idx
        self.m = m
        self.n_state = 2 * n - 1
        self._bus_ids = tuple(b.id for b in case.buses)
        self._ang_pos = np.delete(np.arange(n), case.bus_index(case.slack_bus))
        ang_col = np.full(n, -1)
        ang_col[self._ang_pos] = np.arange(n - 1)

        kind = np.empty(m, dtype=int)
        where = np.empty(m, dtype=int)  # bus position, or branch index for flows
        from_side = np.zeros(m, dtype=bool)
        for i, key in enumerate(layout):
            code = _KIND_CODE.get(key.kind)
            if code is None:
                raise EstimationError(f"unknown measurement kind {key.kind!r}")
            kind[i] = code
            if code < 2:
                if key.branch_index is None or not 0 <= key.branch_index < nl:
                    raise EstimationError(f"{key.id}: no in-service branch {key.branch_index}")
                where[i] = key.branch_index
                from_side[i] = key.side == "from"
            else:
                where[i] = case.bus_index(key.bus)
        flow, inj = kind < 2, (kind == 2) | (kind == 3)
        imag = (kind == 1) | (kind == 3)

        # h gathers from [P, Q bus | P, Q from | P, Q to | vm | va]
        offset = np.array([2 * n, 2 * n + nl, 0, n, 2 * n + 4 * nl, 3 * n + 4 * nl])
        self._h_index = offset[kind] + np.where(flow & ~from_side, 2 * nl, 0) + where

        # derivative entries of injection rows: the row's pattern in Ybus
        f, t = self._f, self._t
        cells = np.unique(np.concatenate([f * n + t, t * n + f, np.arange(n) * (n + 1)]))
        ybus_row, ybus_col = np.divmod(cells, n)
        ybus_ptr = np.searchsorted(ybus_row, np.arange(n + 1))
        inj_rows = np.flatnonzero(inj)
        counts = np.diff(ybus_ptr)[where[inj_rows]]
        cells = _concat_ranges(ybus_ptr[where[inj_rows]], counts)
        b_row = np.repeat(inj_rows, counts)
        self._b_own = where[b_row]
        self._b_col = ybus_col[cells]
        self._b_y = adm.ybus[self._b_own, self._b_col]
        self._b_diag = np.flatnonzero(self._b_col == self._b_own)

        # derivative entries of flow rows: both ends of the row's branch
        flow_rows = np.flatnonzero(flow)
        r_row = np.repeat(flow_rows, 2)
        k = where[r_row]
        at_f = np.arange(len(k)) % 2 == 0
        self._r_k = k
        self._r_from = from_side[r_row]
        self._r_own = np.where(self._r_from, f[k], t[k])
        self._r_col = np.where(at_f, f[k], t[k])
        self._r_y = np.where(
            at_f,
            np.where(self._r_from, adm.yff[k], adm.ytf[k]),
            np.where(self._r_from, adm.yft[k], adm.ytt[k]),
        )
        self._r_diag = np.flatnonzero(self._r_col == self._r_own)

        e_row = np.concatenate([b_row, r_row])
        e_col = np.concatenate([self._b_col, self._r_col])
        self._e_imag = imag[e_row]
        n_e = len(e_row)

        # Jacobian entries: d/dva of every derivative entry off the slack
        # column, d/dvm of every one, then the unit V rows; values come from
        # [angle parts | magnitude parts | 1.0]
        has_ang = ang_col[e_col] >= 0
        vmag_rows = np.flatnonzero(kind == 4)
        vang_rows = np.flatnonzero(kind == 5)
        vang_rows = vang_rows[ang_col[where[vang_rows]] >= 0]
        rows = np.concatenate([e_row[has_ang], e_row, vmag_rows, vang_rows])
        cols = np.concatenate([
            ang_col[e_col[has_ang]], n - 1 + e_col,
            n - 1 + where[vmag_rows], ang_col[where[vang_rows]],
        ])
        source = np.concatenate([
            np.flatnonzero(has_ang), n_e + np.arange(n_e),
            np.full(len(vmag_rows) + len(vang_rows), 2 * n_e),
        ])
        order = np.lexsort((cols, rows))
        self.rows, self.cols, self._source = rows[order], cols[order], source[order]

    @functools.cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(row, a, b, gain cell) of every ordered pair of entries sharing a row:
        G[col a, col b] and the row's h G⁻¹ hᵀ sum over them. Built on first
        use, as only gain and leverage read it."""
        row_ptr = np.searchsorted(self.rows, np.arange(self.m + 1))
        per_row = np.diff(row_ptr)
        sq = per_row * per_row
        step = _concat_ranges(np.zeros(self.m, dtype=int), sq)
        width = np.repeat(per_row, sq)
        start = np.repeat(row_ptr[:-1], sq)
        a, b = start + step // width, start + step % width
        return np.repeat(np.arange(self.m), sq), a, b, self.cols[a] * self.n_state + self.cols[b]

    def x_of(self, state: StateVector) -> np.ndarray:
        return np.concatenate([state.va[self._ang_pos], state.vm])

    def state_of(self, x: np.ndarray) -> StateVector:
        n_ang = len(self._ang_pos)
        va = np.zeros(n_ang + 1)
        va[self._ang_pos] = x[:n_ang]
        return StateVector(self._bus_ids, x[n_ang:].copy(), va)

    def h(self, state: StateVector) -> np.ndarray:
        v = state.complex_voltages()
        sbus = v * np.conj(self._ybus @ v)
        sf = v[self._f] * np.conj(self._yf @ v)
        st = v[self._t] * np.conj(self._yt @ v)
        parts = (sbus.real, sbus.imag, sf.real, sf.imag, st.real, st.imag, state.vm, state.va)
        return np.concatenate(parts)[self._h_index]

    def jacobian_values(self, state: StateVector) -> np.ndarray:
        """Nonzeros of the Jacobian at (self.rows, self.cols)."""
        v = state.complex_voltages()
        vnorm = v / np.abs(v)
        ibus = self._ybus @ v

        own, col, diag = self._b_own, self._b_col, self._b_diag
        at_diag = np.zeros(len(own), dtype=complex)
        at_diag[diag] = (v * np.conj(ibus))[own[diag]]
        b_va = 1j * (at_diag - v[own] * np.conj(self._b_y * v[col]))
        at_diag[diag] = (np.conj(ibus) * vnorm)[own[diag]]
        b_vm = v[own] * np.conj(self._b_y * vnorm[col]) + at_diag

        own, col, diag = self._r_own, self._r_col, self._r_diag
        current = np.where(self._r_from, (self._yf @ v)[self._r_k], (self._yt @ v)[self._r_k])
        r_va = -1j * v[own] * np.conj(self._r_y * v[col])
        r_va[diag] += 1j * np.conj(current[diag]) * v[own[diag]]
        r_vm = v[own] * np.conj(self._r_y * vnorm[col])
        r_vm[diag] += np.conj(current[diag]) * vnorm[own[diag]]

        d_va = np.concatenate([b_va, r_va])
        d_vm = np.concatenate([b_vm, r_vm])
        values = np.concatenate([
            np.where(self._e_imag, d_va.imag, d_va.real),
            np.where(self._e_imag, d_vm.imag, d_vm.real),
            [1.0],
        ])
        return values[self._source]

    def jacobian(self, state: StateVector) -> np.ndarray:
        jac = np.zeros((self.m, self.n_state))
        jac[self.rows, self.cols] = self.jacobian_values(state)
        return jac

    def gain(self, values: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Dense HᵀWH from the Jacobian's nonzeros."""
        _, a, b, cell = self._pairs
        weighted = values * w[self.rows]
        g = np.bincount(
            cell, weights=weighted[a] * values[b], minlength=self.n_state * self.n_state
        )
        return g.reshape(self.n_state, self.n_state)

    def transpose_times(self, values: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Hᵀy from the Jacobian's nonzeros."""
        return np.bincount(self.cols, weights=values * y[self.rows], minlength=self.n_state)

    def leverage(self, values: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
        """diag(H G⁻¹ Hᵀ): one quadratic form per row over its nonzeros."""
        row, a, b, _ = self._pairs
        terms = values[a] * g_inv[self.cols[a], self.cols[b]] * values[b]
        return np.bincount(row, weights=terms, minlength=self.m)


def measurement_model(
    adm: AdmittanceModel, layout: tuple[MeasurementKey, ...]
) -> MeasurementModel:
    """The layout compiled against adm, compiled on first use and then reused."""
    cache = adm.compiled_layouts
    model = cache.get(layout)
    if model is None:
        model = MeasurementModel(adm, layout)
        if len(cache) >= _COMPILED_PER_MODEL:
            del cache[next(iter(cache))]
        cache[layout] = model
    return model


def eval_h(adm: AdmittanceModel, state: StateVector, layout: tuple[MeasurementKey, ...]) -> np.ndarray:
    """Evaluate every metered quantity in layout order at the given state."""
    return measurement_model(adm, layout).h(state)


def eval_jacobian(
    adm: AdmittanceModel, state: StateVector, layout: tuple[MeasurementKey, ...]
) -> np.ndarray:
    """m x n Jacobian of eval_h; columns are [non-slack angles | all magnitudes]."""
    return measurement_model(adm, layout).jacobian(state)


def generate_measurements(
    case: NetworkCase,
    state: StateVector,
    sigmas: dict[str, float] | None = None,
    seed: int = 0,
    adm: AdmittanceModel | None = None,
    layout: tuple[MeasurementKey, ...] | None = None,
) -> MeasurementSet:
    """Meter the full layout at a state with seeded Gaussian noise.

    A kind with sigma 0 is measured exactly but keeps the kind's nominal
    variance so the estimator's weighting stays defined.
    """
    if adm is None:
        adm = build_admittance(case)
    if layout is None:
        layout = full_layout(case)
    sig = dict(DEFAULT_SIGMAS)
    if sigmas:
        for k, s in sigmas.items():
            if k not in KINDS:
                raise EstimationError(f"unknown measurement kind {k!r}")
            if s < 0:
                raise EstimationError("sigma must be >= 0")
            sig[k] = s

    truth = eval_h(adm, state, layout)
    scale = np.array([sig[k.kind] for k in layout])
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(layout)) * scale
    values = truth + noise
    variances = np.array(
        [(sig[k.kind] if sig[k.kind] > 0 else DEFAULT_SIGMAS[k.kind]) ** 2 for k in layout]
    )
    return MeasurementSet(
        tuple(
            Measurement(k.id, k.kind, k.bus, k.branch_index, k.side, float(z), float(r))
            for k, z, r in zip(layout, values, variances)
        )
    )


@dataclass(frozen=True)
class EstimationResult:
    x_hat: StateVector
    residual: np.ndarray  # z - h(x_hat), layout order
    j_statistic: float  # weighted residual sum of squares
    r_normalized: np.ndarray  # nan where critical
    converged: bool
    iterations: int
    dof: int
    measurement_ids: tuple[str, ...]
    critical_ids: tuple[str, ...]
    gradient_norm: float
    objective_history: tuple[float, ...] = ()  # after each accepted step

    def to_json(self) -> str:
        return json.dumps(
            {
                "converged": self.converged,
                "iterations": self.iterations,
                "dof": self.dof,
                "j_statistic": self.j_statistic,
                "gradient_norm": self.gradient_norm,
                "state": self.x_hat.to_dict(),
                "residuals": {
                    i: r for i, r in zip(self.measurement_ids, self.residual.tolist())
                },
                "normalized_residuals": {
                    i: (None if np.isnan(r) else r)
                    for i, r in zip(self.measurement_ids, self.r_normalized.tolist())
                },
                "critical": list(self.critical_ids),
            },
            indent=2,
        )


@dataclass(frozen=True)
class BddPolicy:
    confidence: float = 0.95
    lnr_threshold: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.lnr_threshold <= 0:
            raise ValueError("lnr_threshold must be positive")


@dataclass(frozen=True)
class BddVerdict:
    passed: bool
    statistic: float
    threshold: float
    dof: int


_UNOBSERVABLE = "measurement set is unobservable (rank-deficient gain)"


def _require_observable(gain: np.ndarray) -> None:
    """Pivot test on the Cholesky factor of the gain matrix.

    A rank-deficient Jacobian leaves a Cholesky pivot at rounding level of
    the largest one (or no factor at all). The cut-off is the dimension
    times machine epsilon, relative to the largest pivot, as
    np.linalg.matrix_rank uses for singular values.
    """
    try:
        chol = np.linalg.cholesky(gain)
    except np.linalg.LinAlgError:
        raise EstimationError(_UNOBSERVABLE) from None
    pivots = np.diag(chol) ** 2
    if pivots.min() <= pivots.max() * len(pivots) * np.finfo(float).eps:
        raise EstimationError(_UNOBSERVABLE)


def wls_estimate(
    ms: MeasurementSet,
    case: NetworkCase,
    adm: AdmittanceModel | None = None,
    init: StateVector | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> EstimationResult:
    """Gauss-Newton WLS estimation with backtracking on the weighted objective.

    Converges when the max state update falls below tol. Raises on a
    rank-deficient (unobservable) layout or non-convergence.
    """
    if adm is None:
        adm = build_admittance(case)
    n = state_dimension(case)
    if ms.m - n < 1:
        raise EstimationError(f"insufficient redundancy: m={ms.m}, n={n}")

    model = measurement_model(adm, ms.keys())
    z = ms.values()
    w = 1.0 / ms.variances()

    if init is None:
        x = np.concatenate([np.zeros(case.n_bus - 1), np.ones(case.n_bus)])
    else:
        x = model.x_of(init)

    def objective(xv: np.ndarray) -> tuple[float, np.ndarray]:
        r = z - model.h(model.state_of(xv))
        return float(r @ (w * r)), r

    f_cur, r = objective(x)
    history = [f_cur]
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        jac = model.jacobian_values(model.state_of(x))
        g = model.gain(jac, w)
        if it == 1:
            _require_observable(g)
        rhs = model.transpose_times(jac, w * r)
        try:
            dx = np.linalg.solve(g, rhs)
        except np.linalg.LinAlgError:
            raise EstimationError(_UNOBSERVABLE) from None
        if not np.all(np.isfinite(dx)):
            raise EstimationError(_UNOBSERVABLE)

        alpha = 1.0
        while True:
            f_new, r_new = objective(x + alpha * dx)
            if f_new <= f_cur + 1e-14 or alpha < 1e-4:
                break
            alpha *= 0.5
        x = x + alpha * dx
        f_cur, r = f_new, r_new
        history.append(f_cur)
        if np.max(np.abs(alpha * dx)) < tol:
            converged = True
            break

    if not converged:
        raise EstimationError(
            f"estimator did not converge in {max_iter} iterations "
            f"(last objective {f_cur:.6e})"
        )

    x_hat = model.state_of(x)
    jac = model.jacobian_values(x_hat)
    grad = 2.0 * model.transpose_times(jac, w * r)
    # residual covariance diag: R - H G^-1 H^T
    try:
        g_inv = np.linalg.inv(model.gain(jac, w))
    except np.linalg.LinAlgError:
        raise EstimationError(_UNOBSERVABLE) from None
    omega = ms.variances() - model.leverage(jac, g_inv)
    critical = omega < CRITICAL_OMEGA
    r_norm = np.full(ms.m, np.nan)
    r_norm[~critical] = r[~critical] / np.sqrt(omega[~critical])

    return EstimationResult(
        x_hat=x_hat,
        residual=r,
        j_statistic=f_cur,
        r_normalized=r_norm,
        converged=True,
        iterations=iterations,
        dof=ms.m - n,
        measurement_ids=tuple(m.id for m in ms.measurements),
        critical_ids=tuple(
            m.id for m, c in zip(ms.measurements, critical) if c
        ),
        gradient_norm=float(np.max(np.abs(grad))),
        objective_history=tuple(history),
    )


def chi_square_threshold(confidence: float, dof: int) -> float:
    if dof < 1:
        raise EstimationError("chi-square test needs dof >= 1")
    # scipy's own chi2.ppf formula; chdtri(dof, 1 - confidence) differs in
    # the last bits for some confidences because 1 - confidence rounds
    return float(2.0 * special.gammaincinv(dof / 2.0, confidence))


def chi_square_test(res: EstimationResult, policy: BddPolicy | None = None) -> BddVerdict:
    """Global consistency test: fail means bad data (or an attack that failed)."""
    if policy is None:
        policy = BddPolicy()
    if not res.converged:
        raise EstimationError("chi-square test requires a converged estimate")
    threshold = chi_square_threshold(policy.confidence, res.dof)
    return BddVerdict(
        passed=res.j_statistic <= threshold,
        statistic=res.j_statistic,
        threshold=threshold,
        dof=res.dof,
    )


def largest_normalized_residual(res: EstimationResult) -> tuple[str, float]:
    """Identify the most suspicious measurement; ties break to the lowest id."""
    if not res.converged:
        raise EstimationError("LNR test requires a converged estimate")
    usable = [
        (i, abs(r)) for i, r in zip(res.measurement_ids, res.r_normalized) if not np.isnan(r)
    ]
    if not usable:
        raise EstimationError("all measurements are critical; LNR undefined")
    worst = max(v for _, v in usable)
    ties = [i for i, v in usable if v == worst]
    return min(ties), float(worst)
