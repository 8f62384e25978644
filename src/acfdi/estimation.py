"""Measurement generation, WLS AC state estimation, and bad data detection.

The measurement function h maps a full voltage state to every metered
quantity; the estimator inverts it by damped Gauss-Newton on the weighted
normal equations, under the trial rule it shares with the attack solver
(`nlsolver.Damping`). State ordering throughout: all non-slack angles (case
bus order) followed by all magnitudes; the slack angle is pinned at zero.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .banded import BlockBand, BlockCholesky, concat_ranges
from .network import AdmittanceModel, NetworkCase, build_admittance
from .nlsolver import Damping
from .powerflow import StateVector

KINDS = ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang")
# a Layout stores each row's kind as its position in KINDS
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}

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


class MeasurementKey(NamedTuple):
    """One Layout row as the artifacts spell it: what is measured and where.
    A layout is built from keys by `Layout.from_keys` and listed by `keys`."""

    id: str
    kind: str
    bus: int | None = None  # Pinj/Qinj/Vmag/Vang
    branch_index: int | None = None  # flows: index into in-service branches
    side: str | None = None  # flows: 'from' | 'to'


@dataclass(frozen=True, eq=False)
class Layout:
    """What is metered, row by row, as read-only arrays: each row's id, kind
    (position in KINDS), where (the bus id of an injection or voltage row,
    the in-service branch row of a flow) and, for a flow, whether at the
    from end. Built once and shared: `AdmittanceModel.full_layout` holds a
    case's full layout, and every set derived from a set keeps its layout."""

    ids: tuple[str, ...]
    kind: np.ndarray
    where: np.ndarray
    from_side: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name, dtype in (("kind", np.intp), ("where", np.intp), ("from_side", bool)):
            array = np.array(getattr(self, name), dtype=dtype)
            if array.shape != (len(self.ids),):
                raise EstimationError(f"layout {name} must have one entry per id")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if np.any((self.kind < 0) | (self.kind >= len(KINDS))):
            raise EstimationError("layout kind codes must index KINDS")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_rows(cls, rows: list[tuple[str, int, int, bool]]) -> "Layout":
        """The layout of (id, kind code, where, from_side) rows."""
        return cls(*zip(*rows)) if rows else cls((), [], [], [])

    @classmethod
    def from_keys(cls, keys) -> "Layout":
        rows = []
        for k in keys:
            if k.kind not in KIND_CODE:
                raise EstimationError(f"unknown measurement kind {k.kind!r}")
            where = k.branch_index if KIND_CODE[k.kind] < 2 else k.bus
            rows.append((k.id, KIND_CODE[k.kind], -1 if where is None else where, k.side == "from"))
        return cls.from_rows(rows)

    def keys(self) -> tuple[MeasurementKey, ...]:
        rows = zip(self.ids, self.kind.tolist(), self.where.tolist(), self.from_side.tolist())
        return tuple(
            MeasurementKey(i, KINDS[code], None, w, "from" if from_end else "to")
            if code < 2
            else MeasurementKey(i, KINDS[code], w)
            for i, code, w, from_end in rows
        )

    def subset(self, rows) -> "Layout":
        """The layout of these rows, in this order."""
        rows = np.asarray(rows, dtype=np.intp)
        ids = tuple(self.ids[i] for i in rows.tolist())
        return Layout(ids, self.kind[rows], self.where[rows], self.from_side[rows])

    @functools.cached_property
    def signature(self) -> bytes:
        """The arrays as bytes: equal exactly for layouts that compile to the
        same MeasurementModel, whatever their ids."""
        return self.kind.tobytes() + self.where.tobytes() + self.from_side.tobytes()

    @functools.cached_property
    def position(self) -> dict[str, int]:
        """Row of each id; the last one for an id given twice."""
        return {meas_id: i for i, meas_id in enumerate(self.ids)}


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Metered values and their variances, one of each per layout row. The
    arrays are read-only copies of the ones given."""

    layout: Layout
    values: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        for name in ("values", "variances"):
            array = np.array(getattr(self, name), dtype=float)
            if array.shape != (len(self.layout),):
                raise EstimationError(f"measurement {name} must have one entry per layout row")
            bad = np.flatnonzero(~np.isfinite(array))
            if len(bad):
                raise EstimationError(f"measurement {self.layout.ids[bad[0]]}: {name[:-1]} is not finite")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if len(self.layout.position) != len(self.layout):
            raise EstimationError("duplicate measurement ids")
        if np.any(self.variances <= 0):
            raise EstimationError("all measurement variances must be positive")

    @property
    def m(self) -> int:
        return len(self.layout)

    def index_of(self, meas_id: str) -> int:
        try:
            return self.layout.position[meas_id]
        except KeyError:
            raise EstimationError(f"unknown measurement id {meas_id!r}") from None

    def to_csv(self) -> str:
        lay = self.layout
        location = [
            f"branch{w}:{'from' if end else 'to'}" if code < 2 else f"{w}"
            for code, w, end in zip(lay.kind.tolist(), lay.where.tolist(), lay.from_side.tolist())
        ]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["id", "kind", "location", "value", "variance"])
        w.writerows(zip(
            lay.ids, [KINDS[code] for code in lay.kind.tolist()], location,
            map(repr, self.values.tolist()), map(repr, self.variances.tolist()),
        ))
        return buf.getvalue()


def measurement_set_from_csv(text: str, case: NetworkCase) -> MeasurementSet:
    """Rebuild a measurement set from CSV, resolving ids against the case layout."""
    full = full_layout(case)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["id", "kind"]:
        raise EstimationError("measurement CSV must start with an id,kind,... header")
    picked, values, variances = [], [], []
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 5:
            raise EstimationError(
                f"measurement CSV line {lineno} has {len(row)} fields, "
                "expected id,kind,location,value,variance"
            )
        meas_id, _kind, _loc, value, variance = row
        i = full.position.get(meas_id)
        if i is None:
            raise EstimationError(f"unknown measurement id {meas_id!r} for this case")
        try:
            value, variance = float(value), float(variance)
        except ValueError:
            value = variance = np.nan
        if not (np.isfinite(value) and np.isfinite(variance)):
            raise EstimationError(
                f"measurement CSV line {lineno}: value and variance must be finite numbers"
            )
        values.append(value)
        variances.append(variance)
        picked.append(i)
    return MeasurementSet(full.subset(picked), values, variances)


def full_layout(case: NetworkCase, kinds: tuple[str, ...] = KINDS) -> Layout:
    """Canonical layout: P/Q flow at both ends of every in-service branch,
    P/Q injection and V magnitude/angle at every bus."""
    for k in kinds:
        if k not in KINDS:
            raise EstimationError(f"unknown measurement kind {k!r}")
    branch_tag, pair_count = [], {}
    for br in case.in_service_branches():
        dup = pair_count.get((br.from_bus, br.to_bus), 0)
        pair_count[br.from_bus, br.to_bus] = dup + 1
        branch_tag.append(f"{br.from_bus}-{br.to_bus}" + (f"#{dup}" if dup else ""))
    flows = [(p, KIND_CODE[kind]) for p, kind in (("P", "Pflow"), ("Q", "Qflow")) if kind in kinds]
    injections = [KIND_CODE[kind] for kind in ("Pinj", "Qinj") if kind in kinds]
    voltages = [KIND_CODE[kind] for kind in ("Vmag", "Vang") if kind in kinds]
    buses = [b.id for b in case.buses]
    return Layout.from_rows(
        [(f"{p}{end}:{tag}", code, k, end == "f")
         for k, tag in enumerate(branch_tag) for p, code in flows for end in "ft"]
        + [(f"{KINDS[code]}:{b}", code, b, False) for b in buses for code in injections]
        + [(f"{KINDS[code]}:{b}", code, b, False) for code in voltages for b in buses]
    )


# compiled layouts kept per admittance model; the attack solver and the
# estimator each reuse one layout, so a few entries cover every caller
_COMPILED_PER_MODEL = 8


class _GainCells(NamedTuple):
    """Where the row pairs of one layout sit in the gain's [sub | diag] storage."""

    slot: np.ndarray  # storage slot of each row pair's cell, upper-block cells mirrored
    a: np.ndarray  # the row pairs summed into storage: every cell not mirrored
    b: np.ndarray
    summed_slot: np.ndarray


class MeasurementModel:
    """A measurement layout compiled against one admittance model.

    Compilation turns the layout into index arrays once: where each row of h
    is gathered from, and where each Jacobian entry sits on the sparsity
    pattern of Ybus, Yf and Yt (MATPOWER's dSbus_dV/dSbr_dV formulation,
    Zimmerman, Murillo-Sanchez and Thomas, IEEE Trans. Power Syst. 2011).
    It also stacks the k rows of Ybus, Yf and Yt that the layout reads into
    one dense k x n block (`y_rows`), so every evaluation makes one O(k n)
    matvec for its currents instead of three full ones. Evaluation is then
    loop-free. Each row of that matvec rounds as the same row of the full
    product does, and each derivative entry repeats the elementwise
    arithmetic of the dense formulas, so h and the Jacobian match them bit
    for bit.

    The model also owns the state packing x = [non-slack angles (case bus
    order) | all magnitudes] and the row-pair index that assembles the gain
    HᵀWH and the leverages diag(H G⁻¹ Hᵀ) from the Jacobian's nonzeros. The
    gain is kept in the block-tridiagonal band of an RCM order of its
    pattern, factored by `banded.BlockCholesky`, and the leverages read the
    factor's selected inverse, so no dense (2n - 1)² matrix is formed.
    """

    def __init__(self, adm: AdmittanceModel, layout: Layout):
        case = adm.case
        n, nl, m = case.n_bus, len(adm.branches), len(layout)
        f, t = adm.f_idx, adm.t_idx
        self.m = m
        self.n_state = 2 * n - 1
        self._bus_ids = tuple(b.id for b in case.buses)
        self._ang_pos = np.delete(np.arange(n), case.bus_index(case.slack_bus))
        ang_col = np.full(n, -1)
        ang_col[self._ang_pos] = np.arange(n - 1)

        kind, from_side = layout.kind, layout.from_side
        where = layout.where.copy()  # bus position, or branch index for flows
        off = np.flatnonzero((kind < 2) & ((where < 0) | (where >= nl)))
        if len(off):
            raise EstimationError(f"{layout.ids[off[0]]}: no in-service branch {where[off[0]]}")
        where[kind >= 2] = [case.bus_index(b) for b in where[kind >= 2].tolist()]
        flow, inj = kind < 2, (kind == 2) | (kind == 3)
        imag = (kind == 1) | (kind == 3)

        # the current rows the layout reads, keyed by bus position for Ybus
        # rows, n + branch for Yf rows and n + nl + branch for Yt rows; the
        # model holds its own copy of them, not the AdmittanceModel that
        # caches it, so a dropped AdmittanceModel is freed without a cycle
        reads = flow | inj
        row_key = np.where(flow, n + np.where(from_side, 0, nl) + where, where)
        keys, cur_of_read = np.unique(row_key[reads], return_inverse=True)
        cur = np.zeros(m, dtype=int)
        cur[reads] = cur_of_read
        bus = keys[keys < n]
        br = keys[len(bus):] - n
        to_end = br >= nl
        br = np.where(to_end, br - nl, br)
        # numpy sends a one-row product to dot, which rounds differently from
        # the gemv of the full products; a zero second row keeps it on gemv
        y = np.zeros((len(keys) + (len(keys) == 1), n), dtype=complex)
        y[: len(bus)] = adm.ybus[bus]
        branch_rows = np.arange(len(bus), len(keys))
        y[branch_rows, f[br]] = np.where(to_end, adm.ytf[br], adm.yff[br])
        y[branch_rows, t[br]] = np.where(to_end, adm.ytt[br], adm.yft[br])
        self.y_rows = y
        self._own = np.zeros(len(y), dtype=int)  # bus of each row's voltage
        self._own[: len(keys)] = np.concatenate([bus, np.where(to_end, t[br], f[br])])

        # h gathers from [P of each current row | Q of each | vm | va]
        width = len(y)
        offset = np.array([0, width, 0, width, 2 * width, 2 * width + n])
        self._h_index = offset[kind] + np.where(reads, cur, where)

        # derivative entries of injection rows: the row's pattern in Ybus
        cells = np.unique(np.concatenate([f * n + t, t * n + f, np.arange(n) * (n + 1)]))
        ybus_row, ybus_col = np.divmod(cells, n)
        ybus_ptr = np.searchsorted(ybus_row, np.arange(n + 1))
        inj_rows = np.flatnonzero(inj)
        counts = np.diff(ybus_ptr)[where[inj_rows]]
        cells = concat_ranges(ybus_ptr[where[inj_rows]], counts)
        b_row = np.repeat(inj_rows, counts)
        self._b_own = where[b_row]
        self._b_col = ybus_col[cells]
        self._b_y = adm.ybus[self._b_own, self._b_col]
        self._b_diag = np.flatnonzero(self._b_col == self._b_own)
        self._b_cur = cur[b_row[self._b_diag]]

        # derivative entries of flow rows: both ends of the row's branch
        flow_rows = np.flatnonzero(flow)
        r_row = np.repeat(flow_rows, 2)
        k = where[r_row]
        at_f = np.arange(len(k)) % 2 == 0
        r_from = from_side[r_row]
        self._r_own = np.where(r_from, f[k], t[k])
        self._r_col = np.where(at_f, f[k], t[k])
        self._r_y = np.where(
            at_f,
            np.where(r_from, adm.yff[k], adm.ytf[k]),
            np.where(r_from, adm.yft[k], adm.ytt[k]),
        )
        self._r_diag = np.flatnonzero(self._r_col == self._r_own)
        self._r_cur = cur[r_row[self._r_diag]]

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
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, a, b) of every ordered pair of entries sharing a row: G[col a,
        col b] and the row's h G⁻¹ hᵀ sum over them. Built on first use, as
        only gain and leverage read it."""
        row_ptr = np.searchsorted(self.rows, np.arange(self.m + 1))
        per_row = np.diff(row_ptr)
        sq = per_row * per_row
        step = concat_ranges(np.zeros(self.m, dtype=int), sq)
        width = np.repeat(per_row, sq)
        start = np.repeat(row_ptr[:-1], sq)
        return np.repeat(np.arange(self.m), sq), start + step // width, start + step % width

    @functools.cached_property
    def _band(self) -> BlockBand:
        """The gain's band layout, built on first use from the row pairs.

        The order is RCM over the gain's structural pattern, every cell some
        row pair reaches, so a cell whose value is zero at one state (flat
        start on a lossless branch) still lies in the band at every other."""
        n = self.n_state
        _, a, b = self._pairs
        return BlockBand(n, *np.divmod(np.unique(self.cols[a] * n + self.cols[b]), n))

    @functools.cached_property
    def _gain_cells(self) -> _GainCells:
        _, a, b = self._pairs
        slot, kept = self._band.lower_slot(self.cols[a], self.cols[b])
        kept = np.flatnonzero(kept)
        return _GainCells(slot, a[kept], b[kept], slot[kept])

    def state_columns(self, positions: np.ndarray) -> np.ndarray:
        """Columns of x holding the angles, then the magnitudes, of the buses
        at these positions; the slack bus has no angle column."""
        angles = np.searchsorted(self._ang_pos, positions)
        return np.concatenate([angles, len(self._ang_pos) + positions])

    def x_of(self, state: StateVector) -> np.ndarray:
        return np.concatenate([state.va[self._ang_pos], state.vm])

    def state_of(self, x: np.ndarray) -> StateVector:
        n_ang = len(self._ang_pos)
        va = np.zeros(n_ang + 1)
        va[self._ang_pos] = x[:n_ang]
        return StateVector(self._bus_ids, x[n_ang:].copy(), va)

    def h(self, state: StateVector) -> np.ndarray:
        v = state.complex_voltages()
        s = v[self._own] * np.conj(self.y_rows @ v)
        return np.concatenate((s.real, s.imag, state.vm, state.va))[self._h_index]

    def jacobian_values(self, state: StateVector) -> np.ndarray:
        """Nonzeros of the Jacobian at (self.rows, self.cols)."""
        v = state.complex_voltages()
        vnorm = v / np.abs(v)
        current = self.y_rows @ v

        own, col, diag = self._b_own, self._b_col, self._b_diag
        ibus = current[self._b_cur]
        at_diag = np.zeros(len(own), dtype=complex)
        at_diag[diag] = v[own[diag]] * np.conj(ibus)
        b_va = 1j * (at_diag - v[own] * np.conj(self._b_y * v[col]))
        at_diag[diag] = np.conj(ibus) * vnorm[own[diag]]
        b_vm = v[own] * np.conj(self._b_y * vnorm[col]) + at_diag

        own, col, diag = self._r_own, self._r_col, self._r_diag
        ibranch = current[self._r_cur]
        r_va = -1j * v[own] * np.conj(self._r_y * v[col])
        r_va[diag] += 1j * np.conj(ibranch) * v[own[diag]]
        r_vm = v[own] * np.conj(self._r_y * vnorm[col])
        r_vm[diag] += np.conj(ibranch) * vnorm[own[diag]]

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

    def gain(self, values: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """HᵀWH from the Jacobian's nonzeros, in RCM order, as the diagonal
        blocks and the blocks below them of its block-tridiagonal band (the
        storage `BlockCholesky` takes). The dimension is padded to whole
        blocks with identity rows."""
        band, cells = self._band, self._gain_cells
        weighted = values * w[self.rows]
        g = np.bincount(
            cells.summed_slot,
            weights=weighted[cells.a] * values[cells.b],
            minlength=(2 * band.blocks - 1) * band.size * band.size,
        )
        g[band.pad_slot] = 1.0
        sub, diag, _ = band.split(g)
        return diag, sub

    def solve(self, chol: BlockCholesky, rhs: np.ndarray) -> np.ndarray:
        """G⁻¹ rhs in state order, from the factor of `gain`."""
        return self._band.scatter(chol.solve(self._band.gather(rhs)))

    def transpose_times(self, values: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Hᵀy from the Jacobian's nonzeros."""
        return np.bincount(self.cols, weights=values * y[self.rows], minlength=self.n_state)

    def leverage(self, values: np.ndarray, chol: BlockCholesky) -> np.ndarray:
        """diag(H G⁻¹ Hᵀ): one quadratic form per row over its nonzeros.

        Two columns that share a row share a gain cell, so every G⁻¹ entry
        read here lies in the band of the selected inverse."""
        row, a, b = self._pairs
        z_diag, z_sub = chol.selected_inverse()
        g_inv = np.concatenate([z_sub.ravel(), z_diag.ravel()])
        terms = values[a] * g_inv[self._gain_cells.slot] * values[b]
        return np.bincount(row, weights=terms, minlength=self.m)


def measurement_model(adm: AdmittanceModel, layout: Layout) -> MeasurementModel:
    """The layout compiled against adm, compiled on first use and then reused.

    The cache is keyed by the layout's signature, which each Layout computes
    once, so a lookup is one dict probe, and layouts built apart with the
    same rows (both attack modes' constraint rows) share one model."""
    cache = adm.compiled_layouts
    model = cache.get(layout.signature)
    if model is None:
        model = MeasurementModel(adm, layout)
        if len(cache) >= _COMPILED_PER_MODEL:
            del cache[next(iter(cache))]
        cache[layout.signature] = model
    return model


def eval_h(adm: AdmittanceModel, state: StateVector, layout: Layout) -> np.ndarray:
    """Evaluate every metered quantity in layout order at the given state."""
    return measurement_model(adm, layout).h(state)


def eval_jacobian(adm: AdmittanceModel, state: StateVector, layout: Layout) -> np.ndarray:
    """m x n Jacobian of eval_h; columns are [non-slack angles | all magnitudes]."""
    return measurement_model(adm, layout).jacobian(state)


def generate_measurements(
    case: NetworkCase,
    state: StateVector,
    sigmas: dict[str, float] | None = None,
    seed: int = 0,
    adm: AdmittanceModel | None = None,
    layout: Layout | None = None,
) -> MeasurementSet:
    """Meter a layout, by default the full one, at a state with seeded
    Gaussian noise.

    A kind with sigma 0 is measured exactly but keeps the kind's nominal
    variance so the estimator's weighting stays defined.
    """
    if adm is None:
        adm = build_admittance(case)
    if layout is None:
        layout = adm.full_layout
    sig = dict(DEFAULT_SIGMAS)
    if sigmas:
        for k, s in sigmas.items():
            if k not in KINDS:
                raise EstimationError(f"unknown measurement kind {k!r}")
            if not s >= 0:
                raise EstimationError(f"sigma of {k} must be >= 0")
            sig[k] = s

    truth = eval_h(adm, state, layout)
    scale = np.array([sig[k] for k in KINDS])[layout.kind]
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(layout)) * scale
    variances = np.array(
        [(sig[k] if sig[k] > 0 else DEFAULT_SIGMAS[k]) ** 2 for k in KINDS]
    )[layout.kind]
    return MeasurementSet(layout, truth + noise, variances)


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

    def to_dict(self) -> dict:
        return {
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
        }


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


def _factor(gain: tuple[np.ndarray, np.ndarray], failure: str) -> BlockCholesky:
    try:
        return BlockCholesky(*gain)
    except np.linalg.LinAlgError:
        raise EstimationError(failure) from None


def _require_observable(chol: BlockCholesky, n: int) -> None:
    """Pivot test on the block Cholesky factor of the gain matrix.

    A rank-deficient Jacobian leaves a Cholesky pivot at rounding level of
    the largest one (or a block that fails to factor, which `_factor`
    reports). The cut-off is the dimension times machine epsilon, relative
    to the largest pivot, as np.linalg.matrix_rank uses for singular
    values. The padding past the n state columns is not tested.
    """
    pivots = chol.pivots[:n]
    if pivots.min() <= pivots.max() * n * np.finfo(float).eps:
        raise EstimationError(_UNOBSERVABLE)


def wls_estimate(
    ms: MeasurementSet,
    case: NetworkCase,
    adm: AdmittanceModel | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> EstimationResult:
    """WLS estimation from flat start by damped Gauss-Newton: the
    Levenberg-Marquardt trial rule of `nlsolver.Damping`, which the attack
    solver also uses.

    Each iteration solves (G + mu I) dx = HᵀW r on the gain's band and
    predicts the decrease dxᵀHᵀW r + mu |dx|² of J = rᵀW r. The pivot test
    on the undamped gain of the first iteration decides observability;
    after that a damped gain that does not factor is a rejected trial.
    Converges on an accepted step below tol taken at the starting mu, or
    when the predicted decrease is within rounding of J. Raises on an
    unobservable layout, and on any other stop.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if adm is None:
        adm = build_admittance(case)
    n = 2 * case.n_bus - 1
    if ms.m - n < 1:
        raise EstimationError(f"insufficient redundancy: m={ms.m}, n={n}")

    model = measurement_model(adm, ms.layout)
    z = ms.values
    w = 1.0 / ms.variances

    def objective(xv: np.ndarray) -> tuple[float, np.ndarray]:
        r = z - model.h(model.state_of(xv))
        return float(r @ (w * r)), r

    x = np.concatenate([np.zeros(case.n_bus - 1), np.ones(case.n_bus)])
    f_cur, r = objective(x)
    history = [f_cur]
    jac = model.jacobian_values(model.state_of(x))
    diag, sub = model.gain(jac, w)
    _require_observable(_factor((diag, sub), _UNOBSERVABLE), n)
    damping = Damping(float(np.max(np.diagonal(diag, axis1=1, axis2=2))), ms.m)

    def solve(mu: float) -> tuple[np.ndarray, float] | None:
        try:
            chol = BlockCholesky(diag + mu * np.eye(len(diag[0])), sub)
        except np.linalg.LinAlgError:
            return None
        dx = model.solve(chol, rhs)
        return x + dx, float(dx @ rhs + mu * (dx @ dx))

    for iterations in range(1, max_iter + 1):
        rhs = model.transpose_times(jac, w * r)
        step = damping.step(f_cur, solve, objective)
        if step is None:
            if damping.exhausted:
                raise EstimationError(f"estimator found no step that lowers J = {f_cur:.6e}")
            break
        x_new, f_cur, r, mu = step
        moved = float(np.max(np.abs(x_new - x)))
        x = x_new
        history.append(f_cur)
        jac = model.jacobian_values(model.state_of(x))
        diag, sub = model.gain(jac, w)
        if moved < tol and mu <= damping.mu_start:
            break
    else:
        raise EstimationError(
            f"estimator did not converge in {max_iter} iterations "
            f"(last objective {f_cur:.6e})"
        )

    # jac and the gain are those at the estimate; residual covariance diag:
    # R - H G^-1 H^T
    grad = 2.0 * model.transpose_times(jac, w * r)
    chol = _factor((diag, sub), "the gain does not factor at the estimate")
    omega = ms.variances - model.leverage(jac, chol)
    critical = omega < CRITICAL_OMEGA
    r_norm = np.full(ms.m, np.nan)
    r_norm[~critical] = r[~critical] / np.sqrt(omega[~critical])

    return EstimationResult(
        x_hat=model.state_of(x),
        residual=r,
        j_statistic=f_cur,
        r_normalized=r_norm,
        converged=True,
        iterations=iterations,
        dof=ms.m - n,
        measurement_ids=ms.layout.ids,
        critical_ids=tuple(ms.layout.ids[i] for i in np.flatnonzero(critical).tolist()),
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
    size = np.abs(res.r_normalized)  # nan where critical
    usable = ~np.isnan(size)
    if not usable.any():
        raise EstimationError("all measurements are critical; LNR undefined")
    worst = np.max(size, where=usable, initial=0.0)
    ties = np.flatnonzero(size == worst).tolist()
    return min(res.measurement_ids[i] for i in ties), float(worst)
