"""Measurement generation, WLS AC state estimation, and bad data detection.

The measurement function h maps a full voltage state to every metered
quantity; the estimator inverts it by Gauss-Newton on the weighted normal
equations. State ordering throughout: all non-slack angles (case bus order)
followed by all magnitudes; the slack angle is pinned at zero and excluded.
"""

from __future__ import annotations

import csv
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


def _angle_columns(case: NetworkCase) -> dict[int, int]:
    slack = case.slack_bus
    cols = {}
    k = 0
    for b in case.buses:
        if b.id != slack:
            cols[b.id] = k
            k += 1
    return cols


def eval_h(adm: AdmittanceModel, state: StateVector, layout: tuple[MeasurementKey, ...]) -> np.ndarray:
    """Evaluate every metered quantity in layout order at the given state."""
    case = adm.case
    v = state.complex_voltages()
    sbus = v * np.conj(adm.ybus @ v)
    sf = v[adm.f_idx] * np.conj(adm.yf @ v)
    st = v[adm.t_idx] * np.conj(adm.yt @ v)

    out = np.empty(len(layout))
    for i, key in enumerate(layout):
        if key.kind in ("Pflow", "Qflow"):
            s = sf[key.branch_index] if key.side == "from" else st[key.branch_index]
            out[i] = s.real if key.kind == "Pflow" else s.imag
        elif key.kind == "Pinj":
            out[i] = sbus.real[case.bus_index(key.bus)]
        elif key.kind == "Qinj":
            out[i] = sbus.imag[case.bus_index(key.bus)]
        elif key.kind == "Vmag":
            out[i] = state.vm[case.bus_index(key.bus)]
        elif key.kind == "Vang":
            out[i] = state.va[case.bus_index(key.bus)]
        else:
            raise EstimationError(f"unknown measurement kind {key.kind!r}")
    return out


def eval_jacobian(
    adm: AdmittanceModel, state: StateVector, layout: tuple[MeasurementKey, ...]
) -> np.ndarray:
    """m x n Jacobian of eval_h; columns are [non-slack angles | all magnitudes]."""
    case = adm.case
    n_bus = case.n_bus
    v = state.complex_voltages()
    vnorm = v / np.abs(v)
    ibus = adm.ybus @ v

    ds_dva = 1j * (np.diag(v * np.conj(ibus)) - v[:, None] * np.conj(adm.ybus * v[None, :]))
    ds_dvm = v[:, None] * np.conj(adm.ybus * vnorm[None, :]) + np.diag(np.conj(ibus) * vnorm)

    nl = len(adm.branches)
    yf, yt = adm.yf, adm.yt
    i_f = yf @ v
    i_t = yt @ v
    rows = np.arange(nl)

    dsf_dva = -1j * v[adm.f_idx, None] * np.conj(yf * v[None, :])
    dsf_dva[rows, adm.f_idx] += 1j * np.conj(i_f) * v[adm.f_idx]
    dsf_dvm = v[adm.f_idx, None] * np.conj(yf * vnorm[None, :])
    dsf_dvm[rows, adm.f_idx] += np.conj(i_f) * vnorm[adm.f_idx]

    dst_dva = -1j * v[adm.t_idx, None] * np.conj(yt * v[None, :])
    dst_dva[rows, adm.t_idx] += 1j * np.conj(i_t) * v[adm.t_idx]
    dst_dvm = v[adm.t_idx, None] * np.conj(yt * vnorm[None, :])
    dst_dvm[rows, adm.t_idx] += np.conj(i_t) * vnorm[adm.t_idx]

    ang_cols = _angle_columns(case)
    n_ang = len(ang_cols)
    ang_sel = [case.bus_index(b) for b in sorted(ang_cols, key=ang_cols.get)]

    jac = np.zeros((len(layout), n_ang + n_bus))
    for i, key in enumerate(layout):
        if key.kind in ("Pflow", "Qflow"):
            da = dsf_dva[key.branch_index] if key.side == "from" else dst_dva[key.branch_index]
            dm = dsf_dvm[key.branch_index] if key.side == "from" else dst_dvm[key.branch_index]
            part = np.real if key.kind == "Pflow" else np.imag
            jac[i, :n_ang] = part(da)[ang_sel]
            jac[i, n_ang:] = part(dm)
        elif key.kind in ("Pinj", "Qinj"):
            bi = case.bus_index(key.bus)
            part = np.real if key.kind == "Pinj" else np.imag
            jac[i, :n_ang] = part(ds_dva[bi])[ang_sel]
            jac[i, n_ang:] = part(ds_dvm[bi])
        elif key.kind == "Vmag":
            jac[i, n_ang + case.bus_index(key.bus)] = 1.0
        elif key.kind == "Vang":
            if key.bus != case.slack_bus:
                jac[i, ang_cols[key.bus]] = 1.0
    return jac


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


def _state_to_x(case: NetworkCase, state: StateVector) -> np.ndarray:
    ang_cols = _angle_columns(case)
    x = np.empty(state_dimension(case))
    for b, col in ang_cols.items():
        x[col] = state.va[case.bus_index(b)]
    x[len(ang_cols):] = state.vm
    return x


def _x_to_state(case: NetworkCase, x: np.ndarray) -> StateVector:
    ang_cols = _angle_columns(case)
    va = np.zeros(case.n_bus)
    for b, col in ang_cols.items():
        va[case.bus_index(b)] = x[col]
    vm = x[len(ang_cols):].copy()
    return StateVector(tuple(b.id for b in case.buses), vm, va)


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

    layout = ms.keys()
    z = ms.values()
    w = 1.0 / ms.variances()

    if init is None:
        x = np.concatenate([np.zeros(case.n_bus - 1), np.ones(case.n_bus)])
    else:
        x = _state_to_x(case, init)

    def objective(xv: np.ndarray) -> tuple[float, np.ndarray]:
        r = z - eval_h(adm, _x_to_state(case, xv), layout)
        return float(r @ (w * r)), r

    f_cur, r = objective(x)
    history = [f_cur]
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        jac = eval_jacobian(adm, _x_to_state(case, x), layout)
        if it == 1 and np.linalg.matrix_rank(jac) < n:
            raise EstimationError("measurement set is unobservable (rank-deficient Jacobian)")
        g = (jac * w[:, None]).T @ jac
        rhs = (jac * w[:, None]).T @ r
        try:
            dx = np.linalg.solve(g, rhs)
        except np.linalg.LinAlgError:
            raise EstimationError("measurement set is unobservable (rank-deficient gain)") from None
        if not np.all(np.isfinite(dx)):
            raise EstimationError("measurement set is unobservable (rank-deficient gain)")

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

    x_hat = _x_to_state(case, x)
    jac = eval_jacobian(adm, x_hat, layout)
    g = (jac * w[:, None]).T @ jac
    grad = 2.0 * (jac * w[:, None]).T @ r
    # residual covariance diag: R - H G^-1 H^T
    hx = np.linalg.solve(g, jac.T)
    leverage = np.einsum("ij,ji->i", jac, hx)
    omega = ms.variances() - leverage
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
