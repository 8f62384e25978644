"""Grid model: MATPOWER case parsing, the case JSON format, validation,
admittance assembly, and the voltage state in case bus order.

Everything downstream works in per-unit on the system MVA base with angles
in radians; conversion from the MW/MVAr/degree source format happens here.
The case JSON format is written once, as one field table per row type
(`_CASE_TABLES`), which its writer, its reader and the value checks of both
readers read.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import re
import struct
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .artifacts import NUMBER, ConfigError, known, member, read_text, to_json, typed_column
from .banded import read_only

BUS_KINDS = ("slack", "PV", "PQ")
_MATPOWER_BUS_TYPE = {1: "PQ", 2: "PV", 3: "slack"}
# how a MATPOWER case's errors name a row of each table
_MATPOWER_ROW = {
    "buses": lambda b: f"bus {b.id}",
    "branches": lambda br: f"branch {br.from_bus}-{br.to_bus}",
    "gens": lambda g: f"generator at bus {g.bus}",
}


class CaseError(ValueError):
    """Base for anything wrong with a case file or model."""


class CaseParseError(CaseError):
    """Source text is not a readable MATPOWER case (missing table, bad row)."""


class CaseValidationError(CaseError):
    """Parsed tables violate a model invariant (duplicate bus, no slack, ...)."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # slack | PV | PQ
    pd: float  # p.u.
    qd: float
    gs: float  # shunt conductance, p.u. at V=1
    bs: float
    vmin: float
    vmax: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float  # total line charging susceptance, p.u.
    tap: float = 1.0
    shift: float = 0.0  # radians
    rating: float = 0.0  # p.u.; 0 means no rating given
    status: bool = True
    index: int = 0  # row position in the source table


@dataclass(frozen=True)
class Gen:
    bus: int
    pg: float  # p.u.
    qg: float
    vset: float
    qmin: float
    qmax: float
    pmin: float
    pmax: float
    status: bool = True


@dataclass(frozen=True)
class NetworkCase:
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    gens: tuple[Gen, ...]
    name: str = "case"
    _index: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {b.id: i for i, b in enumerate(self.buses)})

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._index[bus_id]
        except KeyError:
            raise CaseValidationError(f"unknown bus id {bus_id}") from None

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index(bus_id)]

    @property
    def slack_bus(self) -> int:
        return next(b.id for b in self.buses if b.kind == "slack")

    def in_service_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.status)

    def gens_at(self, bus_id: int) -> tuple[Gen, ...]:
        return tuple(g for g in self.gens if g.bus == bus_id and g.status)

    def has_injection(self, bus_id: int) -> bool:
        """Scheduled load or an in-service generator makes a bus non-zero-injection."""
        b = self.bus(bus_id)
        return abs(b.pd) + abs(b.qd) > 0.0 or bool(self.gens_at(bus_id))

    def neighbors(self, bus_id: int) -> tuple[int, ...]:
        out = set()
        for br in self.in_service_branches():
            if br.from_bus == bus_id:
                out.add(br.to_bus)
            elif br.to_bus == bus_id:
                out.add(br.from_bus)
        return tuple(sorted(out))


@dataclass(frozen=True)
class StateVector:
    """Per-bus voltage magnitude (p.u.) and angle (radians), case bus order."""

    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va: np.ndarray

    def __post_init__(self):
        if len(self.bus_ids) != len(self.vm) or len(self.vm) != len(self.va):
            raise ValueError("bus_ids, vm, va must have equal length")

    @functools.cached_property
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
        """The state that `to_dict` wrote; a missing, mistyped or unknown
        field raises ConfigError naming it."""
        buses = member(doc, "buses", list, where)
        known(doc, ("buses",), where)
        rows = []
        for i, row in enumerate(buses):
            rows.append(tuple(member(row, key, kind, f"{where} buses[{i}]")
                              for key, kind in (("id", int), ("vm", float), ("va", float))))
            known(row, ("id", "vm", "va"), f"{where} buses[{i}]")
        if not rows:
            raise ConfigError(f"{where} field 'buses' is empty")
        bus_ids, vm, va = zip(*rows)
        for i, magnitude in enumerate(vm):
            if magnitude <= 0:
                raise ConfigError(f"{where} buses[{i}] field 'vm' must be positive")
        return cls(bus_ids=bus_ids, vm=np.array(vm), va=np.array(va))


# each MATPOWER table's leading integer columns (bus ids and the bus type),
# and the fields a row needs
_MATPOWER_TABLES = {"bus": (2, 13), "gen": (1, 10), "branch": (2, 11)}


def _extract_table(text: str, name: str) -> list[list]:
    """mpc.<name>'s rows: the leading integer columns as ints where they are
    written in digits, so that every id reads exactly, and all else as floats.
    A float holds every integer only below 2**53, so one of those columns
    written otherwise, such as 2.0, must be below it."""
    ints, width = _MATPOWER_TABLES[name]
    m = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.DOTALL)
    if m is None:
        raise CaseParseError(f"missing table mpc.{name}")
    rows = []
    for lineno, raw in enumerate(m.group(1).splitlines(), 1):
        line = raw.split("%")[0].strip().rstrip(";").strip()
        if not line:
            continue
        tokens = line.split()
        try:
            try:
                ids = list(map(int, tokens[:ints]))  # written in digits, as ids are
            except ValueError:
                ids = list(map(float, tokens[:ints]))  # "2.0", "1e3" or "NaN"
            rows.append([*ids, *map(float, tokens[ints:])])
        except ValueError:
            raise CaseParseError(
                f"malformed row in mpc.{name} (line {lineno}): {line!r}"
            ) from None
        if len(tokens) < width:
            raise CaseParseError(f"{name} row too short (line {lineno}): {line!r}")
        if type(ids[0]) is float and any(2**53 <= abs(x) < math.inf for x in ids):
            raise CaseParseError(
                f"{name} row (line {lineno}): an integer of 2**53 or more must be "
                f"written in digits: {line!r}"
            )
    if not rows:
        raise CaseParseError(f"empty table mpc.{name}")
    return rows


def _scalar(text: str, name: str) -> float:
    m = re.search(rf"mpc\.{name}\s*=\s*([0-9eE.+-]+)\s*;", text)
    if m is None:
        raise CaseParseError(f"missing scalar mpc.{name}")
    return float(m.group(1))


def _integer(value: int | float, what: str) -> int:
    """A table entry that must be a whole number (NaN and Inf are not)."""
    if type(value) is int:
        return value
    if not value.is_integer():
        raise CaseParseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def parse_case(text: str, name: str = "case") -> NetworkCase:
    """Parse MATPOWER-format case text (baseMVA, bus, gen, branch; gencost ignored).

    All MW/MVAr quantities are normalized to per-unit on baseMVA and branch
    shift angles converted to radians. tap = 0 in the source means "no
    transformer" and is normalized to 1.
    """
    base_mva = _scalar(text, "baseMVA")
    if not 0 < base_mva < math.inf:
        raise CaseValidationError(f"baseMVA must be positive and finite, got {base_mva}")

    buses = []
    for row in _extract_table(text, "bus"):
        bus_id = _integer(row[0], "bus id")
        kind = _MATPOWER_BUS_TYPE.get(_integer(row[1], f"bus {bus_id}: bus type"))
        if kind is None:
            raise CaseParseError(f"bus {bus_id}: unknown bus type {int(row[1])}")
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                pd=row[2] / base_mva,
                qd=row[3] / base_mva,
                gs=row[4] / base_mva,
                bs=row[5] / base_mva,
                vmax=row[11],
                vmin=row[12],
            )
        )

    gens = []
    for row in _extract_table(text, "gen"):
        gens.append(
            Gen(
                bus=_integer(row[0], "generator bus"),
                pg=row[1] / base_mva,
                qg=row[2] / base_mva,
                qmax=row[3] / base_mva,
                qmin=row[4] / base_mva,
                vset=row[5],
                status=row[7] > 0,
                pmax=row[8] / base_mva,
                pmin=row[9] / base_mva,
            )
        )

    branches = []
    for i, row in enumerate(_extract_table(text, "branch")):
        branches.append(
            Branch(
                from_bus=_integer(row[0], "branch from bus"),
                to_bus=_integer(row[1], "branch to bus"),
                r=row[2],
                x=row[3],
                b=row[4],
                rating=row[5] / base_mva,
                tap=row[8] if row[8] != 0 else 1.0,
                shift=math.radians(row[9]),
                status=row[10] > 0,
                index=i,
            )
        )

    case = NetworkCase(
        base_mva=base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        gens=tuple(gens),
        name=name,
    )
    validate_case(case)
    _check_values(case, lambda table, i: _MATPOWER_ROW[table](getattr(case, table)[i]))
    return case


def validate_case(case: NetworkCase) -> None:
    seen = set()
    for b in case.buses:
        if b.id in seen:
            raise CaseValidationError(f"duplicate bus id {b.id}")
        seen.add(b.id)
        if b.vmin > b.vmax:  # false for a NaN, which `_check_values` names
            raise CaseValidationError(
                f"bus {b.id} field 'vmin' ({b.vmin!r}) is above its 'vmax' ({b.vmax!r})"
            )

    for br in case.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in seen:
                raise CaseValidationError(
                    f"unknown endpoint: branch {br.from_bus}-{br.to_bus} references bus {end}"
                )
        if br.from_bus == br.to_bus:
            raise CaseValidationError(f"branch {br.from_bus}-{br.to_bus} is a self-loop")
        if br.status and br.r * br.r + br.x * br.x == 0.0:
            raise CaseValidationError(
                f"branch {br.from_bus}-{br.to_bus} has zero impedance"
            )
    for g in case.gens:
        if g.bus not in seen:
            raise CaseValidationError(f"generator references unknown bus {g.bus}")

    slacks = [b.id for b in case.buses if b.kind == "slack"]
    if not slacks:
        raise CaseValidationError("no slack bus")
    if len(slacks) > 1:
        raise CaseValidationError(f"multiple slack buses: {slacks}")

    # connectivity over in-service branches
    adj: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for br in case.in_service_branches():
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    reached = {slacks[0]}
    stack = [slacks[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in reached:
                reached.add(nb)
                stack.append(nb)
    if len(reached) != case.n_bus:
        missing = sorted(set(seen) - reached)
        raise CaseValidationError(f"disconnected graph: buses {missing} unreachable")


def load_case(path: str) -> NetworkCase:
    """A case from a MATPOWER file, or from a `case_to_json` file when path
    ends in .json. A file that does not read as one raises CaseError naming
    it."""
    text = read_text(path, "case file", CaseParseError)
    try:
        if path.endswith(".json"):
            return case_from_json(text)
        name = re.sub(r"\.[^.]*$", "", path.replace("\\", "/").rsplit("/", 1)[-1])
        return parse_case(text, name=name)
    except CaseError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_bundled_case39() -> NetworkCase:
    text = resources.files("acfdi.data").joinpath("case39.m").read_text(encoding="utf-8")
    return parse_case(text, name="case39")


# the case format: each JSON table's row type and fields, in that type's
# field order, with each field's kind (`artifacts.typed`; a number may be any
# JSON number, as a MATPOWER table may hold Inf or NaN) and the rules its
# value must hold (`_VALUE_TESTS`), in order. Power flow reads the finite
# ones and divides by the square of a tap and by r² + x²; design and impact
# read the bounds and the rating, which may be infinite (no limit). No stage
# reads qmin, qmax, pmin or pmax
_FINITE, _NOT_NAN = (NUMBER, "finite"), (NUMBER, "not-NaN")
_CASE_TABLES = {
    "buses": (Bus, {
        "id": (int, ""), "kind": (str, ""), **dict.fromkeys(("pd", "qd", "gs", "bs"), _FINITE),
        "vmin": _NOT_NAN, "vmax": _NOT_NAN,
    }),
    "branches": (Branch, {
        "from": (int, ""), "to": (int, ""),
        **dict.fromkeys(("r", "x"), (NUMBER, "finite finite-square")), "b": _FINITE,
        "tap": (NUMBER, "positive square"), "shift": _FINITE, "rating": _NOT_NAN,
        "status": (bool, ""),
    }),
    "gens": (Gen, {
        "bus": (int, ""), "pg": _FINITE, "qg": _FINITE, "vset": (NUMBER, "positive"),
        **dict.fromkeys(("qmin", "qmax", "pmin", "pmax"), (NUMBER, "")), "status": (bool, ""),
    }),
}
_INT64 = range(-(2**63), 2**63)  # the bus ids that the topology's int64 key holds
# each rule's test of a column, and how it names a value that fails it
_VALUE_TESTS = {
    "finite": (np.isfinite, "must be finite"),
    "not-NaN": (lambda column: ~np.isnan(column), "must not be NaN"),
    "positive": (lambda column: np.isfinite(column) & (column > 0), "must be positive and finite"),
    "square": (lambda column: np.isfinite(column * column) & (column * column > 0),
               "must have a square that is positive and finite"),
    "finite-square": (lambda column: np.isfinite(column * column), "must have a finite square"),
}


def case_to_json(case: NetworkCase) -> str:
    """Canonical JSON rendering; reparsing it reproduces the model exactly."""
    doc = {"name": case.name, "base_mva": case.base_mva}
    for table, (row_type, fields) in _CASE_TABLES.items():
        values = operator.attrgetter(*(f.name for f in dataclasses.fields(row_type)[:len(fields)]))
        doc[table] = [dict(zip(fields, values(row))) for row in getattr(case, table)]
    return to_json(doc, sort_keys=True)


def case_from_json(text: str) -> NetworkCase:
    """The case of a `case_to_json` text. A field that is missing, unknown or
    not of its kind raises CaseParseError naming its row and field, and a
    value that no stage can use (`_check_values`) CaseValidationError."""
    try:
        case = _case_of_doc(json.loads(text))
    except ValueError as exc:  # a JSON syntax error or a field's ConfigError
        raise CaseParseError(f"case JSON is malformed: {exc}") from None
    validate_case(case)
    if not 0 < case.base_mva < math.inf:
        raise CaseValidationError(
            f"case field 'base_mva' must be positive and finite, got {case.base_mva}"
        )
    _check_values(case, lambda table, i: f"{table}[{i}]")
    return case


def _table(doc, name: str) -> list[tuple]:
    """doc[name]'s rows, each as the tuple of its fields' values, checked to
    be of their kinds and to hold no other key. Each field is checked over its
    whole column; only when a column fails does the row loop run, to name the
    first row and field at fault. The values are only checked, never
    converted, so a case that loads is the model its file describes bit for
    bit."""
    fields = _CASE_TABLES[name][1]
    rows = member(doc, name, list, "case")
    try:
        values = list(map(operator.itemgetter(*fields), rows))
    except (KeyError, TypeError):  # a missing field, or a row that is no JSON object
        values = None
    # with every field present, a row of another length holds an unknown key
    if values is None or set(map(len, rows)) - {len(fields)} or not all(
        typed_column(column, kind) for column, (kind, _) in zip(zip(*values), fields.values())
    ):
        for i, row in enumerate(rows):
            for key, (kind, _) in fields.items():
                member(row, key, kind, f"{name}[{i}]")
            known(row, fields, f"{name}[{i}]")
    return values


def _case_of_doc(doc) -> NetworkCase:
    member(doc, "base_mva", NUMBER, "case")
    known(doc, ("name", "base_mva", *_CASE_TABLES), "case")
    name = member(doc, "name", str, "case") if "name" in doc else "case"
    buses = tuple(Bus(*row) for row in _table(doc, "buses"))
    branches = tuple(Branch(*row, index=i) for i, row in enumerate(_table(doc, "branches")))
    gens = tuple(Gen(*row) for row in _table(doc, "gens"))
    for i, b in enumerate(buses):
        if b.kind not in BUS_KINDS:
            raise ConfigError(f"buses[{i}] field 'kind' must be one of {', '.join(BUS_KINDS)}")
    return NetworkCase(
        base_mva=doc["base_mva"], buses=buses, branches=branches, gens=gens,
        name=name,
    )


def _check_values(case: NetworkCase, row_name) -> None:
    """Raise CaseValidationError naming the first row (by row_name(table, i))
    and field of case whose value no stage can use: a bus id outside int64,
    as the topology's key packs it, or a value that breaks `_CASE_TABLES`'
    rules. Each ruled field is tested over its whole column; the ids are
    compared as Python ints, which a float could not tell from their
    neighbours."""
    for i, b in enumerate(case.buses):
        if b.id not in _INT64:
            raise CaseValidationError(f"{row_name('buses', i)} field 'id' is outside int64")
    for table, (_, fields) in _CASE_TABLES.items():
        rows = getattr(case, table)
        checks = [(key, rule) for key, (_, rules) in fields.items() for rule in rules.split()]
        keys = operator.attrgetter(*(key for key, _ in checks))  # a ruled key is an attribute
        values = np.array(list(map(keys, rows)), dtype=float)
        columns = values.reshape(len(rows), len(checks)).T
        with np.errstate(over="ignore"):  # a square may overflow
            holds = np.column_stack(
                [_VALUE_TESTS[rule][0](column) for (_, rule), column in zip(checks, columns)]
            )
        if not holds.all():
            i, j = np.argwhere(~holds)[0]
            key, rule = checks[j]
            raise CaseValidationError(f"{row_name(table, i)} field '{key}' {_VALUE_TESTS[rule][1]}")


# entries kept by `shared`: a scenario reads eight per network (the
# admittance stamps, the full layout, the Newton pattern and flat start,
# three layout patterns and the flat start of its estimates), so this covers
# two networks at once. At n = 312 a layout pattern is 1.7 MB at most (the
# full layout's, with its pair index), an estimate's flat start 0.7 MB, the
# Newton flat start 0.45 MB (its band LU) and the stamps 0.06 MB, each key
# of bits 0.03 MB
_SHARED_LIMIT = 16
_shared: dict[tuple, object] = {}


def shared(key: tuple, build):
    """The value kept under key, built by build() on a miss; the least
    recently used entry is dropped past _SHARED_LIMIT. This is the package's
    one cache.

    The admittance stamps of `build_admittance` are keyed by the bits of
    every branch and bus value they are built from, so every load snapshot
    of one network shares them. Every other key starts with an
    `AdmittanceModel.topology`, so every admittance model of one grid shares
    what is kept: full layouts, layout patterns and Newton-Raphson patterns,
    structure that the topology alone decides, and the flat starts of
    `MeasurementModel` and of Newton-Raphson, whose keys also hold the
    admittance values and the weights or the flat magnitudes their values
    derive from. Nothing kept holds an admittance model, a case or a branch,
    so a dropped model is freed."""
    value = _shared.pop(key, None)
    if value is None:
        value = build()
        if len(_shared) >= _SHARED_LIMIT:
            del _shared[next(iter(_shared))]
    _shared[key] = value
    return value


@dataclass(frozen=True)
class AdmittanceModel:
    """Nodal admittance matrix plus per-branch two-port terms.

    Out-of-service branches are dropped before assembly. Branch arrays are
    aligned with `branches` (the in-service subset, source order). The stamps
    yff/yft/ytf/ytt are the only definition of the branch two-port: Ybus sums
    them, and the measurement model, which also gives the branch flows,
    reads them.

    Ybus is kept as compressed rows: `ybus_cells` holds the flat positions
    i * n + j of its pattern in ascending order, which depends on the
    topology alone, and `ybus_values` one value per cell.
    """

    case: NetworkCase
    branches: tuple[Branch, ...]
    ybus_cells: np.ndarray  # sorted flat positions of the Ybus pattern
    ybus_values: np.ndarray  # complex, one per cell
    yff: np.ndarray  # per-branch self/mutual terms
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    f_idx: np.ndarray  # from-bus positional indices
    t_idx: np.ndarray

    @functools.cached_property
    def topology(self) -> bytes:
        """What every index array built for this model depends on, as bytes:
        the bus ids and kinds in case order, the slack position and each
        in-service branch's end positions. Models of one grid under other
        loads or admittance values share it."""
        case = self.case
        sizes = [case.n_bus, len(self.branches), case.bus_index(case.slack_bus)]
        ids = [b.id for b in case.buses]
        kinds = [BUS_KINDS.index(b.kind) for b in case.buses]
        parts = (sizes, ids, kinds, self.f_idx, self.t_idx)
        return np.concatenate(parts).astype(np.int64).tobytes()

    @functools.cached_property
    def ybus(self) -> np.ndarray:
        """Ybus as a dense n x n array, scattered from the cells on first
        access; the package itself reads only the cells."""
        n = self.case.n_bus
        dense = np.zeros((n, n), dtype=complex)
        dense.ravel()[self.ybus_cells] = self.ybus_values
        return dense

    @functools.cached_property
    def full_layout(self):
        """The case's full measurement layout (`acfdi.estimation.full_layout`),
        built once per topology and shared, so that every caller shares one
        Layout and the pattern compiled from it."""
        from .estimation import full_layout  # estimation imports this module

        return shared((self.topology, "full layout"), lambda: full_layout(self.case))

    @functools.cached_property
    def position(self) -> dict[int, int]:
        """Row of each in-service branch in `branches` and the stamp arrays,
        keyed by its source-table index (`Branch.index`)."""
        return {br.index: k for k, br in enumerate(self.branches)}

    @functools.cached_property
    def pair_position(self) -> dict[tuple[int, int], int]:
        """Row of the first in-service branch from each (from, to) bus pair."""
        rows: dict[tuple[int, int], int] = {}
        for k, br in enumerate(self.branches):
            rows.setdefault((br.from_bus, br.to_bus), k)
        return rows


class _Stamps(NamedTuple):
    """The arrays of an `AdmittanceModel` that its values decide: the Ybus
    cells and values and the branch stamps and end positions, read-only."""

    ybus_cells: np.ndarray
    ybus_values: np.ndarray
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    f_idx: np.ndarray
    t_idx: np.ndarray


# the fields the stamps read, and how their key packs them: as the bits of
# each value, so that -0.0 and 0.0, or two NaNs, are never one key
_BUS_STAMPED = operator.attrgetter("id", "gs", "bs")
_BUS_BITS = struct.Struct("<q2d")
_BRANCH_STAMPED = operator.attrgetter(
    "from_bus", "to_bus", "r", "x", "b", "tap", "shift", "status"
)
_BRANCH_BITS = struct.Struct("<2q6d")


def build_admittance(case: NetworkCase) -> AdmittanceModel:
    """The admittance model of case, its stamps read from the shared cache:
    every load snapshot of one network shares them. The key holds the bits
    of every value they are built from: the bus ids in order, their shunts,
    and each in-service branch's ends, impedance, charging, tap, shift and
    status; the model keeps case and its in-service branches."""
    branches = case.in_service_branches()
    key = (
        "stamps",
        b"".join(itertools.starmap(_BUS_BITS.pack, map(_BUS_STAMPED, case.buses))),
        b"".join(itertools.starmap(_BRANCH_BITS.pack, map(_BRANCH_STAMPED, branches))),
    )
    stamps = shared(key, lambda: _stamps(case, branches))
    return AdmittanceModel(case, branches, *stamps)


def _stamps(case: NetworkCase, branches: tuple[Branch, ...]) -> _Stamps:
    """Standard two-port branch stamps: series y = 1/(r+jx), b/2 charging at
    each end, from side scaled by 1/tap^2, off-diagonals by the conjugated
    shifted tap factor; bus shunts on the diagonal."""
    n = case.n_bus
    nl = len(branches)

    yff = np.zeros(nl, dtype=complex)
    yft = np.zeros(nl, dtype=complex)
    ytf = np.zeros(nl, dtype=complex)
    ytt = np.zeros(nl, dtype=complex)
    f_idx = np.zeros(nl, dtype=int)
    t_idx = np.zeros(nl, dtype=int)

    for k, br in enumerate(branches):
        ys = 1.0 / complex(br.r, br.x)
        ysh = 0.5j * br.b
        tap = br.tap * np.exp(1j * br.shift)
        yff[k] = (ys + ysh) / (br.tap * br.tap)
        yft[k] = -ys / np.conj(tap)
        ytf[k] = -ys / tap
        ytt[k] = ys + ysh
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        f_idx[k], t_idx[k] = i, j

    # each branch's four stamps in branch order, then the bus shunts, summed
    # into their cells in that order
    at = np.stack([f_idx * (n + 1), f_idx * n + t_idx, t_idx * n + f_idx, t_idx * (n + 1)], 1)
    stamped = np.concatenate([at.ravel(), np.arange(n) * (n + 1)])
    cells = np.unique(stamped)
    values = np.zeros(len(cells), dtype=complex)
    shunts = [complex(b.gs, b.bs) for b in case.buses]
    np.add.at(values, np.searchsorted(cells, stamped),
              np.concatenate([np.stack([yff, yft, ytf, ytt], 1).ravel(), shunts]))

    stamps = _Stamps(cells, values, yff, yft, ytf, ytt, f_idx, t_idx)
    read_only(*stamps)
    return stamps
