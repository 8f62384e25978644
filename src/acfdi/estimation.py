"""The network equations, measurement generation, WLS AC state estimation,
and bad data detection.

The network equations are written once, in `MeasurementModel`: Newton-Raphson
power flow, attack design and WLS read it, and the branch flows and bus
injections of a state are the powers of the full layout's model
(`network_powers`). The measurement function h maps a full voltage state to
every metered quantity; the estimator inverts it by damped Gauss-Newton on
the weighted normal equations, under the trial rule it shares with the
attack solver (`nlsolver.Damping`). State ordering throughout: all non-slack
angles (case bus order) followed by all magnitudes; the slack angle is
pinned at zero.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .banded import BlockBand, BlockCholesky, concat_ranges, read_only
from .network import AdmittanceModel, NetworkCase, StateVector, build_admittance, shared
from .nlsolver import Damping, check_limits

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


class MeasurementError(EstimationError):
    """A measurement set the estimator cannot start from: its weighted
    objective at the flat start is not finite, so no step can lower it."""


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

    @functools.cached_property
    def csv_prefixes(self) -> tuple[str, ...]:
        """Each row's id, kind and location as `MeasurementSet.to_csv` writes
        them, through `csv.writer` so that quoting is its own, each followed
        by the comma before the value. The writer writes each row in one call."""
        lines: list[str] = []
        writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
        writer.writerows(zip(
            self.ids,
            [KINDS[code] for code in self.kind.tolist()],
            [
                f"branch{w}:{'from' if end else 'to'}" if code < 2 else f"{w}"
                for code, w, end in zip(
                    self.kind.tolist(), self.where.tolist(), self.from_side.tolist()
                )
            ],
        ))
        return tuple(line[:-1] + "," for line in lines)


_CSV_HEADER = "id,kind,location,value,variance"


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

    def shifted(self, rows: list[int], deltas: list[float]) -> "MeasurementSet":
        """This set with deltas added to the values of rows, which are
        distinct positions; the variances stay. Its CSV reformats only those
        rows and takes every other row's line from this set's."""
        values = self.values.copy()
        values[rows] += deltas
        derived = MeasurementSet(self.layout, values, self.variances)
        object.__setattr__(derived, "_shifted_from", (self, rows))
        return derived

    @functools.cached_property
    def _lines(self) -> list[str]:
        """Each row's CSV line. A float's repr needs no quoting, so only the
        layout's columns go through `csv.writer`."""
        prefixes = self.layout.csv_prefixes
        values, variances = self.values.tolist(), self.variances.tolist()
        text = {v: repr(v) for v in set(variances)}
        source, rows = self.__dict__.get("_shifted_from", (None, ()))
        if source is None:
            return [f"{prefix}{value!r},{text[var]}\n"
                    for prefix, value, var in zip(prefixes, values, variances)]
        lines = list(source._lines)
        for i in rows:
            lines[i] = f"{prefixes[i]}{values[i]!r},{text[variances[i]]}\n"
        return lines

    def to_csv(self) -> str:
        """The set as CSV, one row per layout row."""
        return _CSV_HEADER + "\n" + "".join(self._lines)


def measurement_set_from_csv(text: str, layout: Layout) -> MeasurementSet:
    """Rebuild a measurement set from CSV, resolving ids against layout,
    usually a case's full layout (`AdmittanceModel.full_layout`). The header
    and each row's kind and location must be what `MeasurementSet.to_csv`
    writes."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _CSV_HEADER.split(","):
        raise EstimationError(f"measurement CSV line 1 must be the header {_CSV_HEADER}")
    prefixes = layout.csv_prefixes
    picked, values, variances = [], [], []
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 5:
            raise EstimationError(
                f"measurement CSV line {lineno} has {len(row)} fields, expected {_CSV_HEADER}"
            )
        meas_id, kind, location, value, variance = row
        i = layout.position.get(meas_id)
        if i is None:
            raise EstimationError(
                f"measurement CSV line {lineno}: unknown measurement id {meas_id!r} for this case"
            )
        # no id, kind or location holds a character that the writer quotes
        if f"{meas_id},{kind},{location}," != prefixes[i]:
            raise EstimationError(f"measurement CSV line {lineno}: {meas_id} is written with "
                                  f"{prefixes[i][len(meas_id) + 1:-1]}, not {kind},{location}")
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
    return MeasurementSet(layout.subset(picked), values, variances)


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


class _GainCells(NamedTuple):
    """The pair index of one layout: each unordered pair of entries that share
    a row, once, in row order. A pair (a, b) is oriented so that its cell
    (cols[a], cols[b]) lies on or below the diagonal of the band order; a
    pair with a == b is a diagonal cell. The gain sums every pair into its
    slot, and the leverage reads G⁻¹ at its inverse slot, twice off the
    diagonal."""

    band: BlockBand
    row: np.ndarray
    a: np.ndarray
    b: np.ndarray
    slot: np.ndarray  # slot of each pair's cell in the gain's lower band storage
    inverse_slot: np.ndarray  # and in the selected inverse's [sub | diag] block storage


class LayoutPattern:
    """A measurement layout compiled against a network topology: every index
    array of a `MeasurementModel` and none of its values.

    Of the admittance model it reads only what `AdmittanceModel.topology`
    holds -- bus positions, the slack, each branch's ends and the Ybus cells
    they give -- so the models of one grid under any loads or admittance
    values share one pattern (`layout_pattern`). Its arrays are read-only.

    Compilation turns the layout into one entry list over the k current rows
    it reads: Ybus rows at its injection buses, then Yf rows at its from-end
    flows and Yt rows at its to-end flows. A Ybus row gives its cells in
    column order and a branch end its two stamps; each entry records its
    current row, its column, the bus of its row's voltage and its source in
    [ybus_values | yff | yft | ytf | ytt]. The currents sum the entries, and
    the Jacobian's derivative entries are the same entries (MATPOWER's
    dSbus_dV/dSbr_dV formulation, Zimmerman, Murillo-Sanchez and Thomas,
    IEEE Trans. Power Syst. 2011).

    The Jacobian's entries, sorted by row and then column, give the pair
    index of the gain and the leverages (`_GainCells`), built on first use:
    each unordered pair of a row's entries once, Σ sᵢ(sᵢ + 1)/2 pairs over
    rows of sᵢ entries.
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
        flow, reads = kind < 2, kind < 4  # flows, and the rows that read a current
        imag = (kind == 1) | (kind == 3)

        # the current rows the layout reads, keyed by bus position for Ybus
        # rows, n + branch for Yf rows and n + nl + branch for Yt rows
        row_key = np.where(flow, n + np.where(from_side, 0, nl) + where, where)
        keys, cur_of_read = np.unique(row_key[reads], return_inverse=True)
        cur = np.zeros(m, dtype=int)
        cur[reads] = cur_of_read
        bus = keys[keys < n]
        br = keys[len(bus):] - n
        to_end = br >= nl
        br = np.where(to_end, br - nl, br)
        # the bus of each current row's voltage
        self._own = np.concatenate([bus, np.where(to_end, t[br], f[br])])

        # the entries: each Ybus row's cells, then each branch end's stamps
        # at its from and to bus
        ybus_row, ybus_col = np.divmod(adm.ybus_cells, n)
        ybus_ptr = np.searchsorted(ybus_row, np.arange(n + 1))
        counts = np.diff(ybus_ptr)[bus]
        cells = concat_ranges(ybus_ptr[bus], counts)
        end, at_t = np.repeat(br, 2), np.tile([0, 1], len(br))
        self._e_cur = np.concatenate([
            np.repeat(np.arange(len(bus)), counts), np.repeat(np.arange(len(bus), len(keys)), 2)
        ])
        self._e_col = np.concatenate([ybus_col[cells], np.where(at_t, t[end], f[end])])
        self._e_y = np.concatenate(
            [cells, len(adm.ybus_cells) + (2 * np.repeat(to_end, 2) + at_t) * nl + end]
        )
        self._e_own = self._own[self._e_cur]
        self._e_diag = np.flatnonzero(self._e_col == self._e_own)
        n_e = len(self._e_cur)

        # h gathers from [P of each current row | Q of each | vm | va]
        k = len(keys)
        offset = np.array([0, k, 0, k, 2 * k, 2 * k + n])
        self._h_index = offset[kind] + np.where(reads, cur, where)

        # Jacobian entries: every entry of a flow or injection row's current
        # row, d/dva off the slack column and d/dvm, then the unit V rows;
        # values come from [d/dva of P | of Q | d/dvm of P | of Q | 1.0]
        e_ptr = np.searchsorted(self._e_cur, np.arange(k + 1))
        read_rows = np.flatnonzero(reads)
        counts = np.diff(e_ptr)[cur[read_rows]]
        entry = concat_ranges(e_ptr[cur[read_rows]], counts)
        e_row = np.repeat(read_rows, counts)
        e_col = self._e_col[entry]
        e_source = entry + n_e * imag[e_row]
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
            e_source[has_ang], 2 * n_e + e_source,
            np.full(len(vmag_rows) + len(vang_rows), 4 * n_e),
        ])
        order = np.lexsort((cols, rows))
        self.rows, self.cols, self._source = rows[order], cols[order], source[order]
        read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)))

    @functools.cached_property
    def _gain_cells(self) -> _GainCells:
        """The pair index, and the gain's band layout built from it, on first
        use: only gain and leverage read them.

        The pairs (a, b), a <= b, of each row's entries are listed a by a;
        no row reads one column twice, so a pair of two entries is an
        off-diagonal cell. The band's order is RCM over the gain's structural
        pattern, every cell some pair reaches, mirrored, so a cell whose
        value is zero at one state (flat start on a lossless branch) still
        lies in the band at every other. Each pair is then oriented by the
        band order."""
        n, rows, cols = self.n_state, self.rows, self.cols
        first = np.arange(len(rows))
        count = np.searchsorted(rows, rows, side="right") - first  # b from a to its row's end
        a, b = np.repeat(first, count), concat_ranges(first, count)
        i, j = np.divmod(np.unique(cols[a] * n + cols[b]), n)
        band = BlockBand(n, np.concatenate([i, j]), np.concatenate([j, i]))
        upper = band.pos[cols[a]] < band.pos[cols[b]]
        a, b = np.where(upper, b, a), np.where(upper, a, b)
        i, j = cols[a], cols[b]
        cells = _GainCells(band, rows[a], a, b, band.band_slot(i, j), band.lower_slot(i, j))
        read_only(*cells[1:])
        return cells

    @property
    def _band(self) -> BlockBand:
        """The gain's band layout."""
        return self._gain_cells.band


def layout_pattern(adm: AdmittanceModel, layout: Layout) -> LayoutPattern:
    """The pattern of layout on adm's topology, built once and shared."""
    return shared((adm.topology, layout.signature), lambda: LayoutPattern(adm, layout))


class FlatStart(NamedTuple):
    """The first step of every estimate on one model and weighting, which
    reads no measured value: the flat state x, h and the Jacobian values
    there, the gain's band storage, its largest diagonal entry (the scale of
    `nlsolver.Damping`), the starting damping mu of that scale and the
    factor of the gain damped by mu, None when that does not factor. The
    arrays are read-only."""

    x: np.ndarray
    h: np.ndarray
    jac: np.ndarray
    gain: np.ndarray
    gain_max: float
    mu: float
    chol: BlockCholesky | None


class MeasurementModel:
    """A measurement layout compiled against one admittance model: the
    layout's `LayoutPattern`, shared by every model of the topology, plus
    the admittance of each of its entries, gathered on construction as
    contiguous real and imaginary parts. The model holds its own copy of the
    values, not the AdmittanceModel. A caller that evaluates one layout many
    times builds its model once.

    `evaluate` reads a state once (`Evaluation`): the currents, the powers
    v conj(I) (no other code forms them), h and the Jacobian all come from
    its real arithmetic, each complex product written as the four real
    products and two sums of scalar complex arithmetic, so they round the
    same on every host and at any BLAS thread count. numpy's complex array
    product would not: it fuses into FMA on some hosts (AVX-512).

    The model also owns the state packing x = [non-slack angles (case bus
    order) | all magnitudes] and the pair index that assembles the gain
    HᵀWH and the leverages diag(H G⁻¹ Hᵀ) from the Jacobian's nonzeros. The
    gain is summed straight into LAPACK's lower band storage of an RCM order
    of its pattern; `banded.BlockCholesky` factors and solves it with
    LAPACK's band Cholesky `dpbtrf`/`dpbtrs`, bound from numpy's own
    OpenBLAS (from scipy's `cython_lapack` where numpy bundles none), and the
    leverages read the factor's selected inverse, so no dense (2n - 1)²
    matrix is formed.
    """

    def __init__(self, adm: AdmittanceModel, layout: Layout):
        p = self.pattern = layout_pattern(adm, layout)
        self.m, self.n_state, self.rows, self.cols = p.m, p.n_state, p.rows, p.cols
        values = np.concatenate([adm.ybus_values, adm.yff, adm.yft, adm.ytf, adm.ytt])[p._e_y]
        self._yr, self._yi = values.real.copy(), values.imag.copy()
        self._pattern_key = (adm.topology, layout.signature)

    def evaluate(self, state: StateVector) -> Evaluation:
        """The model at state: the one place a state is evaluated."""
        return Evaluation(self, state)

    def state_columns(self, positions: np.ndarray) -> np.ndarray:
        """Columns of x holding the angles, then the magnitudes, of the buses
        at these positions; the slack bus has no angle column."""
        ang_pos = self.pattern._ang_pos
        return np.concatenate([np.searchsorted(ang_pos, positions), len(ang_pos) + positions])

    def state_of(self, x: np.ndarray) -> StateVector:
        p = self.pattern
        n_ang = len(p._ang_pos)
        va = np.zeros(n_ang + 1)
        va[p._ang_pos] = x[:n_ang]
        return StateVector(p._bus_ids, x[n_ang:].copy(), va)

    def gain(self, values: np.ndarray, w: np.ndarray) -> np.ndarray:
        """HᵀWH from the Jacobian's nonzeros, in RCM order, in the lower band
        storage `BlockCholesky` takes: shape (N, b + 1), row q holding the
        cells on and below the diagonal of column q. The dimension N is
        padded to whole b x b blocks with identity rows."""
        cells = self.pattern._gain_cells
        band = cells.band
        width = band.size + 1
        weighted = values * w[self.rows]
        g = np.bincount(
            cells.slot,
            weights=weighted[cells.a] * values[cells.b],
            minlength=band.blocks * band.size * width,
        )
        g[band.dim * width :: width] = 1.0
        return g.reshape(-1, width)

    def solve(self, chol: BlockCholesky, rhs: np.ndarray) -> np.ndarray:
        """G⁻¹ rhs in state order, from the factor of `gain`."""
        band = self.pattern._band
        return band.scatter(chol.solve(band.gather(rhs)))

    def transpose_times(self, values: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Hᵀy from the Jacobian's nonzeros."""
        return np.bincount(self.cols, weights=values * y[self.rows], minlength=self.n_state)

    def flat_start(self, w: np.ndarray) -> FlatStart:
        """The flat start under weights w, built once and shared by every
        model with this pattern and these admittance values. Raises, and
        keeps nothing, when the layout is unobservable: the pivot test on
        the undamped gain decides it."""
        key = (*self._pattern_key, self._yr.tobytes(), self._yi.tobytes(), w.tobytes())
        return shared(key, lambda: self._build_flat_start(w))

    def _build_flat_start(self, w: np.ndarray) -> FlatStart:
        n_bus = len(self.pattern._bus_ids)
        x = np.concatenate([np.zeros(n_bus - 1), np.ones(n_bus)])
        flat = self.evaluate(self.state_of(x))
        h, jac = flat.h(), flat.jacobian_values()
        gain = self.gain(jac, w)
        _nonsingular_factor(gain, self.n_state, _UNOBSERVABLE)
        gain_max = float(np.max(gain[:, 0]))
        mu = Damping(gain_max, self.m).mu_start
        read_only(x, h, jac, gain)
        return FlatStart(x, h, jac, gain, gain_max, mu, _damped(gain, mu))

    def leverage(self, values: np.ndarray, chol: BlockCholesky) -> np.ndarray:
        """diag(H G⁻¹ Hᵀ): one quadratic form per row over its nonzeros, each
        off-diagonal pair counted twice.

        Two columns that share a row share a gain cell, so every G⁻¹ entry
        read here lies in the band of the selected inverse."""
        cells = self.pattern._gain_cells
        terms = chol.selected_inverse().reshape(-1)[cells.inverse_slot]
        terms *= values[cells.a]
        terms *= values[cells.b]
        terms[cells.a != cells.b] *= 2.0
        return np.bincount(cells.row, weights=terms, minlength=self.m)


class Evaluation:
    """A `MeasurementModel` at one state, built by `MeasurementModel.evaluate`.

    Construction forms what `powers`, `h` and `jacobian_values` share, once
    and in real arithmetic on contiguous arrays: the voltages v, each
    entry's product y·v of its admittance and its column's voltage, and the
    k currents, those products summed per row in entry order. A complex
    product a·b is written as (a.re b.re - a.im b.im, a.re b.im + a.im b.re)
    and a product with a conjugate by the same terms with the sign folded
    into the sum, which rounds identically."""

    def __init__(self, model: MeasurementModel, state: StateVector):
        p = model.pattern
        self.model, self.state = model, state
        self._v = state.complex_voltages()
        self._vr, self._vi = self._v.real.copy(), self._v.imag.copy()
        vr, vi = self._vr[p._e_col], self._vi[p._e_col]
        yr, yi = model._yr, model._yi
        self._yv = yr * vr - yi * vi, yr * vi + yi * vr
        k = len(p._own)
        self._current = np.bincount(p._e_cur, self._yv[0], k), np.bincount(p._e_cur, self._yv[1], k)

    def _power_parts(self) -> tuple[np.ndarray, np.ndarray]:
        own = self.model.pattern._own
        vr, vi = self._vr[own], self._vi[own]
        ir, ii = self._current
        return vr * ir + vi * ii, vi * ir - vr * ii

    def powers(self) -> np.ndarray:
        """v conj(I) of each current row the layout reads (`LayoutPattern`)."""
        s = np.empty(len(self.model.pattern._own), dtype=complex)
        s.real, s.imag = self._power_parts()
        return s

    def h(self) -> np.ndarray:
        state = self.state
        return np.concatenate((*self._power_parts(), state.vm, state.va))[
            self.model.pattern._h_index
        ]

    def jacobian_values(self) -> np.ndarray:
        """Nonzeros of the Jacobian at (model.rows, model.cols).

        For an entry of admittance y in a row of current I, with own bus o
        and column c, dS/dva_c = j a and dS/dvm_c = b, where a = d v_o conj(I)
        - v_o conj(y v_c) and b = v_o conj(y v_c / |v_c|) + d conj(I) v_o / |v_o|,
        and d is 1 where c = o and 0 elsewhere."""
        model = self.model
        p = model.pattern
        own, col, diag = p._e_own, p._e_col, p._e_diag
        vnorm = self._v / np.abs(self._v)
        nr, ni = vnorm.real.copy(), vnorm.imag.copy()
        vr, vi = self._vr[own], self._vi[own]
        row = p._e_cur[diag]
        ir, ii = self._current[0][row], self._current[1][row]
        pr, pi = self._yv
        ar, ai = -(vr * pr + vi * pi), -(vi * pr - vr * pi)
        dr, di = vr[diag], vi[diag]
        ar[diag] += dr * ir + di * ii
        ai[diag] += di * ir - dr * ii
        cr, ci = nr[col], ni[col]
        yr, yi = model._yr, model._yi
        qr, qi = yr * cr - yi * ci, yr * ci + yi * cr
        br, bi = vr * qr + vi * qi, vi * qr - vr * qi
        ur, ui = nr[own[diag]], ni[own[diag]]
        br[diag] += ir * ur + ii * ui
        bi[diag] += ir * ui - ii * ur
        return np.concatenate([-ai, ar, br, bi, [1.0]])[p._source]


def full_layout_powers(evaluation: Evaluation, adm: AdmittanceModel) -> tuple[np.ndarray, ...]:
    """Complex power (s_bus, s_from, s_to) at every bus in case order and at both
    ends of every in-service branch, aligned with adm.branches, from an evaluation
    of adm's full layout, whose current rows `LayoutPattern` orders as the Ybus
    rows, the from ends, the to ends."""
    s = evaluation.powers()
    n, nl = adm.case.n_bus, len(adm.branches)
    return s[:n], s[n : n + nl], s[n + nl :]


def network_powers(state: StateVector, adm: AdmittanceModel) -> tuple[np.ndarray, ...]:
    """The `full_layout_powers` of adm's full layout at state."""
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


def eval_h(adm: AdmittanceModel, state: StateVector, layout: Layout) -> np.ndarray:
    """Evaluate every metered quantity in layout order at the given state."""
    return MeasurementModel(adm, layout).evaluate(state).h()


def eval_jacobian(adm: AdmittanceModel, state: StateVector, layout: Layout) -> np.ndarray:
    """m x n Jacobian of eval_h; columns are [non-slack angles | all magnitudes]."""
    model = MeasurementModel(adm, layout)
    jac = np.zeros((model.m, model.n_state))
    jac[model.rows, model.cols] = model.evaluate(state).jacobian_values()
    return jac


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
            if not (s >= 0 and s * s < np.inf):
                raise EstimationError(f"sigma of {k} must be >= 0, with a finite square")
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
                i: (None if r != r else r)
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


_UNOBSERVABLE = "measurement set is unobservable (rank-deficient gain)"
_SINGULAR = "the gain is singular at the estimate"


def _damped(gain: np.ndarray, mu: float) -> BlockCholesky | None:
    """The factor of the gain plus mu I, or None when it does not factor."""
    try:
        return BlockCholesky(gain, mu)
    except np.linalg.LinAlgError:
        return None


def _nonsingular_factor(gain: np.ndarray, n: int, failure: str) -> BlockCholesky:
    """The factor of the gain, after the pivot test; raises failure when the
    gain does not factor or fails the test.

    A rank-deficient Jacobian leaves a Cholesky pivot at rounding level of
    the largest one, or a leading minor that rounding leaves not positive
    definite: which of the two is decided by rounding. The cut-off is the
    dimension times machine epsilon, relative to the largest pivot, as
    np.linalg.matrix_rank uses for singular values. The padding past the n
    state columns is not tested.
    """
    try:
        chol = BlockCholesky(gain)
    except np.linalg.LinAlgError:
        raise EstimationError(failure) from None
    pivots = chol.pivots[:n]
    if pivots.min() <= pivots.max() * n * np.finfo(float).eps:
        raise EstimationError(failure)
    return chol


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
    after that a damped gain that does not factor is a rejected trial. The
    first iteration reads no measured value until its right-hand side, so
    it starts from the model's shared `flat_start`; a set whose objective
    is not finite there raises `MeasurementError`, naming its first row. Each trial evaluates
    the model once, and the accepted trial's evaluation gives the next
    Jacobian.
    Converges on an accepted step below tol taken at the starting mu, or
    when the predicted decrease is within rounding of J. Raises on an
    unobservable layout, on a gain that fails the same pivot test at the
    estimate, and on any other stop.
    """
    check_limits(tol, max_iter)
    if adm is None:
        adm = build_admittance(case)
    n = 2 * case.n_bus - 1
    if ms.m - n < 1:
        raise EstimationError(f"insufficient redundancy: m={ms.m}, n={n}")

    model = MeasurementModel(adm, ms.layout)
    z = ms.values
    w = 1.0 / ms.variances

    def weighted(r: np.ndarray) -> tuple[float, np.ndarray]:
        return float(r @ (w * r)), r

    def objective(xv: np.ndarray) -> tuple[float, tuple[np.ndarray, Evaluation]]:
        evaluation = model.evaluate(model.state_of(xv))
        f, r = weighted(z - evaluation.h())
        return f, (r, evaluation)

    start = model.flat_start(w)
    x, jac, gain = start.x, start.jac, start.gain
    with np.errstate(over="ignore"):
        f_cur, r = weighted(z - start.h)
        if not np.isfinite(f_cur):
            # the first row at which the running sum of J's terms is not finite
            first = np.argmax(~np.isfinite(np.cumsum(w * r * r)))
            raise MeasurementError(
                f"measurement {ms.layout.ids[first]}: the weighted objective is not finite "
                "at the flat start"
            )
    history = [f_cur]
    damping = Damping(start.gain_max, ms.m)

    def solve(mu: float) -> tuple[np.ndarray, float] | None:
        first = gain is start.gain and mu == start.mu
        chol = start.chol if first else _damped(gain, mu)
        if chol is None:
            return None
        dx = model.solve(chol, rhs)
        return x + dx, float(dx @ rhs + mu * (dx @ dx))

    for iterations in range(1, max_iter + 1):
        rhs = model.transpose_times(jac, w * r)
        with np.errstate(over="ignore"):  # a trial whose J overflows is a rejected one
            step = damping.step(f_cur, solve, objective)
        if step is None:
            if damping.exhausted:
                raise EstimationError(f"estimator found no step that lowers J = {f_cur:.6e}")
            break
        x_new, f_cur, (r, evaluation), mu = step
        moved = float(np.max(np.abs(x_new - x)))
        x = x_new
        history.append(f_cur)
        jac = evaluation.jacobian_values()
        gain = model.gain(jac, w)
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
    chol = _nonsingular_factor(gain, n, _SINGULAR)
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


@functools.cache
def _gammaincinv():
    """scipy's `gammaincinv` ufunc, loaded on first use from the one extension
    module that defines it, so that the scipy.special package's __init__
    never runs: it loads scipy's second OpenBLAS and about 300 modules, 0.21 s
    and 25.7 MB against 10 ms and 2.3 MB for the extension alone (scipy
    1.17.1, 2-core Xeon guest). A scipy without that module keeps the ufunc
    in the package's BLAS-linked `_ufuncs`, and gets it from the package."""
    import importlib.machinery
    import importlib.util
    import os

    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.special._special_ufuncs", [os.path.join(os.path.dirname(scipy.__file__), "special")]
    )
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if hasattr(module, "gammaincinv"):
            return module.gammaincinv
    from scipy import special

    return special.gammaincinv


def chi_square_threshold(confidence: float, dof: int) -> float:
    if dof < 1:
        raise EstimationError("chi-square test needs dof >= 1")
    # scipy's own chi2.ppf formula; chdtri(dof, 1 - confidence) differs in
    # the last bits for some confidences because 1 - confidence rounds
    return float(2.0 * _gammaincinv()(dof / 2.0, confidence))


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
