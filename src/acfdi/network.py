"""Grid model: MATPOWER case parsing, validation, and admittance assembly.

Everything downstream works in per-unit on the system MVA base with angles
in radians; conversion from the MW/MVAr/degree source format happens here.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

BUS_KINDS = ("slack", "PV", "PQ")
_MATPOWER_BUS_TYPE = {1: "PQ", 2: "PV", 3: "slack"}


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


def _extract_table(text: str, name: str) -> list[list[float]]:
    m = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.DOTALL)
    if m is None:
        raise CaseParseError(f"missing table mpc.{name}")
    rows = []
    for lineno, raw in enumerate(m.group(1).splitlines(), 1):
        line = raw.split("%")[0].strip().rstrip(";").strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError:
            raise CaseParseError(
                f"malformed row in mpc.{name} (line {lineno}): {line!r}"
            ) from None
    if not rows:
        raise CaseParseError(f"empty table mpc.{name}")
    return rows


def _scalar(text: str, name: str) -> float:
    m = re.search(rf"mpc\.{name}\s*=\s*([0-9eE.+-]+)\s*;", text)
    if m is None:
        raise CaseParseError(f"missing scalar mpc.{name}")
    return float(m.group(1))


def parse_case(text: str, name: str = "case") -> NetworkCase:
    """Parse MATPOWER-format case text (baseMVA, bus, gen, branch; gencost ignored).

    All MW/MVAr quantities are normalized to per-unit on baseMVA and branch
    shift angles converted to radians. tap = 0 in the source means "no
    transformer" and is normalized to 1.
    """
    base_mva = _scalar(text, "baseMVA")
    if base_mva <= 0:
        raise CaseValidationError(f"baseMVA must be positive, got {base_mva}")

    buses = []
    for row in _extract_table(text, "bus"):
        if len(row) < 13:
            raise CaseParseError(f"bus row too short: {row}")
        kind = _MATPOWER_BUS_TYPE.get(int(row[1]))
        if kind is None:
            raise CaseParseError(f"bus {int(row[0])}: unknown bus type {int(row[1])}")
        buses.append(
            Bus(
                id=int(row[0]),
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
        if len(row) < 10:
            raise CaseParseError(f"gen row too short: {row}")
        gens.append(
            Gen(
                bus=int(row[0]),
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
        if len(row) < 11:
            raise CaseParseError(f"branch row too short: {row}")
        branches.append(
            Branch(
                from_bus=int(row[0]),
                to_bus=int(row[1]),
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
    return case


def validate_case(case: NetworkCase) -> None:
    seen = set()
    for b in case.buses:
        if b.id in seen:
            raise CaseValidationError(f"duplicate bus id {b.id}")
        seen.add(b.id)

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
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".json"):
        return case_from_json(text)
    name = re.sub(r"\.[^.]*$", "", path.replace("\\", "/").rsplit("/", 1)[-1])
    return parse_case(text, name=name)


def load_bundled_case39() -> NetworkCase:
    text = resources.files("acfdi.data").joinpath("case39.m").read_text(encoding="utf-8")
    return parse_case(text, name="case39")


def case_to_json(case: NetworkCase) -> str:
    """Canonical JSON rendering; reparsing it reproduces the model exactly."""
    doc = {
        "name": case.name,
        "base_mva": case.base_mva,
        "buses": [
            {
                "id": b.id, "kind": b.kind, "pd": b.pd, "qd": b.qd,
                "gs": b.gs, "bs": b.bs, "vmin": b.vmin, "vmax": b.vmax,
            }
            for b in case.buses
        ],
        "branches": [
            {
                "from": br.from_bus, "to": br.to_bus, "r": br.r, "x": br.x,
                "b": br.b, "tap": br.tap, "shift": br.shift,
                "rating": br.rating, "status": br.status,
            }
            for br in case.branches
        ],
        "gens": [
            {
                "bus": g.bus, "pg": g.pg, "qg": g.qg, "vset": g.vset,
                "qmin": g.qmin, "qmax": g.qmax, "pmin": g.pmin, "pmax": g.pmax,
                "status": g.status,
            }
            for g in case.gens
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def case_from_json(text: str) -> NetworkCase:
    doc = json.loads(text)
    case = NetworkCase(
        base_mva=doc["base_mva"],
        buses=tuple(
            Bus(
                id=b["id"], kind=b["kind"], pd=b["pd"], qd=b["qd"],
                gs=b["gs"], bs=b["bs"], vmin=b["vmin"], vmax=b["vmax"],
            )
            for b in doc["buses"]
        ),
        branches=tuple(
            Branch(
                from_bus=br["from"], to_bus=br["to"], r=br["r"], x=br["x"],
                b=br["b"], tap=br["tap"], shift=br["shift"],
                rating=br["rating"], status=br["status"], index=i,
            )
            for i, br in enumerate(doc["branches"])
        ),
        gens=tuple(
            Gen(
                bus=g["bus"], pg=g["pg"], qg=g["qg"], vset=g["vset"],
                qmin=g["qmin"], qmax=g["qmax"], pmin=g["pmin"], pmax=g["pmax"],
                status=g["status"],
            )
            for g in doc["gens"]
        ),
        name=doc.get("name", "case"),
    )
    validate_case(case)
    return case


@dataclass(frozen=True)
class AdmittanceModel:
    """Nodal admittance matrix plus per-branch two-port terms.

    Out-of-service branches are dropped before assembly. Branch arrays are
    aligned with `branches` (the in-service subset, source order). The stamps
    yff/yft/ytf/ytt are the only definition of the branch two-port: Ybus sums
    them, and branch flows and the measurement model read them.
    """

    case: NetworkCase
    branches: tuple[Branch, ...]
    ybus: np.ndarray  # n x n complex
    yff: np.ndarray  # per-branch self/mutual terms
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    f_idx: np.ndarray  # from-bus positional indices
    t_idx: np.ndarray
    # measurement layouts compiled against this model, filled by
    # acfdi.estimation.measurement_model and dropped with it
    compiled_layouts: dict = field(default_factory=dict, repr=False, compare=False)

    @functools.cached_property
    def full_layout(self):
        """The case's full measurement layout (`acfdi.estimation.full_layout`),
        built on first use, so that every caller shares one Layout and the
        model compiled from it."""
        from .estimation import full_layout  # estimation imports this module

        return full_layout(self.case)

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


def build_admittance(case: NetworkCase) -> AdmittanceModel:
    """Standard two-port branch stamps: series y = 1/(r+jx), b/2 charging at
    each end, from side scaled by 1/tap^2, off-diagonals by the conjugated
    shifted tap factor; bus shunts on the diagonal."""
    n = case.n_bus
    branches = case.in_service_branches()
    nl = len(branches)

    yff = np.zeros(nl, dtype=complex)
    yft = np.zeros(nl, dtype=complex)
    ytf = np.zeros(nl, dtype=complex)
    ytt = np.zeros(nl, dtype=complex)
    f_idx = np.zeros(nl, dtype=int)
    t_idx = np.zeros(nl, dtype=int)

    ybus = np.zeros((n, n), dtype=complex)
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
        ybus[i, i] += yff[k]
        ybus[i, j] += yft[k]
        ybus[j, i] += ytf[k]
        ybus[j, j] += ytt[k]

    for i, b in enumerate(case.buses):
        ybus[i, i] += complex(b.gs, b.bs)

    return AdmittanceModel(
        case=case, branches=branches, ybus=ybus,
        yff=yff, yft=yft, ytf=ytf, ytt=ytt, f_idx=f_idx, t_idx=t_idx,
    )
