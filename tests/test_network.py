import copy
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference39 as ref
from acfdi import network
from acfdi.artifacts import NUMBER, ConfigError, member
from acfdi.network import (
    BUS_KINDS,
    Branch,
    Bus,
    CaseParseError,
    CaseValidationError,
    Gen,
    NetworkCase,
    build_admittance,
    case_from_json,
    case_to_json,
    load_bundled_case39,
    parse_case,
)
from acfdi.powerflow import newton_power_flow
from conftest import TWO_BUS_CASE
from meshgrid import meshed_case

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import tiled_case39  # noqa: E402


def _count_table_rows(text, name):
    # independent scan: count data lines inside the bracketed table
    block = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.DOTALL).group(1)
    return sum(
        1 for line in block.splitlines() if line.split("%")[0].strip().rstrip(";").strip()
    )


def test_case39_counts_match_independent_text_scan(case39):
    from importlib import resources

    text = resources.files("acfdi.data").joinpath("case39.m").read_text()
    assert case39.n_bus == _count_table_rows(text, "bus") == 39
    assert len(case39.branches) == _count_table_rows(text, "branch") == 46
    assert len(case39.gens) == _count_table_rows(text, "gen") == 10


def test_minimal_two_bus_case_parses():
    case = parse_case(TWO_BUS_CASE)
    assert case.n_bus == 2
    assert len(case.branches) == 1
    assert case.slack_bus == 1
    # MW inputs land in per-unit on baseMVA
    assert case.bus(2).pd == pytest.approx(0.5)
    assert case.bus(2).qd == pytest.approx(0.2)
    assert case.branches[0].rating == pytest.approx(2.5)


def test_unknown_endpoint_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 99 0.01 0.1")
    with pytest.raises(CaseValidationError, match="unknown endpoint.*99"):
        parse_case(bad)


def test_duplicate_bus_id_rejected():
    bad = TWO_BUS_CASE.replace("2 1 50 20", "1 1 50 20")
    with pytest.raises(CaseValidationError, match="duplicate bus id 1"):
        parse_case(bad)


def test_missing_slack_rejected():
    bad = TWO_BUS_CASE.replace("1 3 0 0", "1 1 0 0")
    with pytest.raises(CaseValidationError, match="no slack bus"):
        parse_case(bad)


def test_disconnected_graph_rejected():
    bad = TWO_BUS_CASE.replace(
        "mpc.bus = [",
        "mpc.bus = [\n    3 1 10 0 0 0 1 1.0 0 345 1 1.06 0.94;",
    )
    with pytest.raises(CaseValidationError, match="disconnected graph.*3"):
        parse_case(bad)


def test_missing_table_rejected():
    bad = TWO_BUS_CASE.replace("mpc.gen", "mpc.generators")
    with pytest.raises(CaseParseError, match="missing table mpc.gen"):
        parse_case(bad)


def test_malformed_row_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 oops 0.1 0.02")
    with pytest.raises(CaseParseError, match="malformed row"):
        parse_case(bad)


def test_zero_impedance_branch_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1", "1 2 0 0")
    with pytest.raises(CaseValidationError, match="zero impedance"):
        parse_case(bad)


def test_self_loop_rejected():
    bad = TWO_BUS_CASE.replace("1 2 0.01 0.1", "2 2 0.01 0.1")
    with pytest.raises(CaseValidationError, match="self-loop"):
        parse_case(bad)


def test_vmin_above_vmax_is_refused_by_both_readers(case39):
    # attack design projects its start into [vmin, vmax]: an empty band made
    # `scenario run` exit 1
    bad = TWO_BUS_CASE.replace("1.06 0.94;\n];", "1.06 1.07;\n];")
    assert bad != TWO_BUS_CASE
    with pytest.raises(
        CaseValidationError, match=r"^bus 2 field 'vmin' \(1\.07\) is above its 'vmax' \(1\.06\)$"
    ):
        parse_case(bad)
    doc = json.loads(case_to_json(case39))
    vmax = doc["buses"][25]["vmax"]
    doc["buses"][25]["vmin"] = 2.5
    with pytest.raises(
        CaseValidationError,
        match=rf"^bus 26 field 'vmin' \(2\.5\) is above its 'vmax' \({re.escape(repr(vmax))}\)$",
    ):
        case_from_json(json.dumps(doc))
    # an equal pair is a band of one point, and a NaN keeps its own message
    doc["buses"][25]["vmin"] = vmax
    assert case_from_json(json.dumps(doc)).bus(26).vmin == vmax
    doc["buses"][25]["vmin"] = math.nan
    with pytest.raises(CaseValidationError, match=r"^buses\[25\] field 'vmin' must not be NaN$"):
        case_from_json(json.dumps(doc))


def _renumbered_json(case, old, new):
    doc = json.loads(case_to_json(case))
    for table, keys in (("buses", ("id",)), ("branches", ("from", "to")), ("gens", ("bus",))):
        for row in doc[table]:
            row.update({key: new for key in keys if row[key] == old})
    return json.dumps(doc)


@pytest.mark.parametrize(
    "bus_id, inside", [(-(2**63) - 1, False), (-(2**63), True), (2**63 - 1, True), (2**63, False)]
)
def test_json_reader_bounds_bus_ids_to_int64(case39, bus_id, inside):
    # the topology's key packs bus ids as int64: one outside it made the first
    # power flow exit 1 with "argument out of range"
    text = _renumbered_json(case39, 39, bus_id)
    if inside:
        state = newton_power_flow(case_from_json(text)).state
        assert state.bus_ids[-1] == bus_id
    else:
        with pytest.raises(CaseValidationError, match=r"^buses\[38\] field 'id' is outside int64$"):
            case_from_json(text)


@pytest.mark.parametrize(
    "bus_id, inside",
    [(2**53, True), (2**53 + 1, True), (2**63 - 1024, True), (2**63 - 1, True),
     (2**63, False), (10**19, False)],
)
def test_matpower_reader_bounds_bus_ids_to_int64(bus_id, inside):
    # ids are read exactly, where a float holds every integer only up to
    # 2**53: 2**53 + 1 once loaded as 2**53, and 2**63 - 1 as 2**63
    text = TWO_BUS_CASE.replace("    2 1 50 20", f"    {bus_id} 1 50 20").replace(
        "1 2 0.01", f"1 {bus_id} 0.01"
    )
    if inside:
        assert newton_power_flow(parse_case(text)).state.bus_ids[-1] == bus_id
    else:
        with pytest.raises(
            CaseValidationError, match=rf"^bus {bus_id} field 'id' is outside int64$"
        ):
            parse_case(text)


def test_matpower_reader_tells_ids_apart_above_2_to_the_53():
    # 2**53 and 2**53 + 1 are one float, so a float reader took them for duplicates
    text = TWO_BUS_CASE.replace("    1 3 0", f"    {2**53} 3 0").replace(
        "    2 1 50 20", f"    {2**53 + 1} 1 50 20"
    ).replace("    1 0 0 300", f"    {2**53} 0 0 300").replace(
        "1 2 0.01", f"{2**53} {2**53 + 1} 0.01"
    )
    case = parse_case(text)
    assert [b.id for b in case.buses] == [2**53, 2**53 + 1]
    assert (case.branches[0].from_bus, case.branches[0].to_bus) == (2**53, 2**53 + 1)
    assert case.gens[0].bus == 2**53


@pytest.mark.parametrize("to_bus, inside", [("2.0", True), (f"{2**53}.0", False), ("9.1e18", False)])
def test_matpower_reader_reads_an_id_written_as_a_float_only_below_2_to_the_53(to_bus, inside):
    # a float holds every integer only below 2**53, so above it the id is not known
    text = TWO_BUS_CASE.replace("1 2 0.01", f"1 {to_bus} 0.01")
    if inside:
        assert parse_case(text).branches[0].to_bus == 2
    else:
        said = r"^branch row \(line 2\): an integer of 2\*\*53 or more must be written in digits"
        with pytest.raises(CaseParseError, match=said):
            parse_case(text)


_EDGE = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


@pytest.mark.parametrize("key, column", [("r", 2), ("x", 3)])
@pytest.mark.parametrize(
    "value, message",
    [
        (_EDGE, None), (-_EDGE, None),
        (math.nextafter(_EDGE, math.inf), "must have a finite square"),
        (-math.nextafter(_EDGE, math.inf), "must have a finite square"),
        (1e308, "must have a finite square"), (-1e308, "must have a finite square"),
        (math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
    ],
)
def test_branch_impedance_bound_is_a_finite_square_in_both_readers(
    case39, key, column, value, message
):
    # an r or x of 1e308 loaded and power flow ran with the branch as good as
    # open; admittance assembly divides by r² + x²
    assert math.isfinite(_EDGE * _EDGE)
    tokens = "1 2 0.01 0.1 0.02".split()
    tokens[column] = repr(value)
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", " ".join(tokens))
    doc = json.loads(case_to_json(case39))
    doc["branches"][3][key] = value
    if message is None:
        assert getattr(parse_case(text).branches[0], key) == value
        assert getattr(case_from_json(json.dumps(doc)).branches[3], key) == value
        return
    with pytest.raises(CaseValidationError, match=rf"^branch 1-2 field '{key}' {message}$"):
        parse_case(text)
    with pytest.raises(CaseValidationError, match=rf"^branches\[3\] field '{key}' {message}$"):
        case_from_json(json.dumps(doc))


@pytest.mark.parametrize("name", [3, 2.5, math.nan, None, [], {}, True])
def test_case_json_name_must_be_a_string(case39, name):
    doc = json.loads(case_to_json(case39))
    doc["name"] = name
    with pytest.raises(
        CaseParseError, match=r"^case JSON is malformed: case field 'name' must be a string$"
    ):
        case_from_json(json.dumps(doc))
    # an absent name still reads as "case"
    del doc["name"]
    assert case_from_json(json.dumps(doc)).name == "case"


def test_tap_zero_normalized_to_one(case39):
    taps = {br.tap for br in case39.branches}
    assert 0.0 not in taps
    assert 1.025 in taps  # transformer rows keep their declared ratio


def test_shift_converted_to_radians():
    shifted = TWO_BUS_CASE.replace(
        "1 2 0.01 0.1 0.02 250 250 250 0 0 1",
        "1 2 0.01 0.1 0.02 250 250 250 1.0 30 1",
    )
    case = parse_case(shifted)
    assert case.branches[0].shift == pytest.approx(math.radians(30))


def test_single_branch_admittance_analytic():
    text = TWO_BUS_CASE.replace("1 2 0.01 0.1 0.02", "1 2 0 0.1 0")
    adm = build_admittance(parse_case(text))
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(adm.ybus, expected, atol=1e-14)


def test_tap_scaling_two_port():
    text = TWO_BUS_CASE.replace(
        "1 2 0.01 0.1 0.02 250 250 250 0 0 1",
        "1 2 0.01 0.1 0.02 250 250 250 1.025 0 1",
    )
    adm = build_admittance(parse_case(text))
    y = 1.0 / complex(0.01, 0.1)
    charging = 0.5j * 0.02
    assert adm.ybus[0, 0] == pytest.approx((y + charging) / 1.025**2)
    assert adm.ybus[0, 1] == pytest.approx(-y / 1.025)
    assert adm.ybus[1, 0] == pytest.approx(-y / 1.025)
    assert adm.ybus[1, 1] == pytest.approx(y + charging)


def test_case39_admittance_matches_bruteforce_stamps(case39, adm39):
    # independent element-by-element construction
    n = case39.n_bus
    oracle = np.zeros((n, n), dtype=complex)
    for br in case39.branches:
        if not br.status:
            continue
        i = case39.bus_index(br.from_bus)
        j = case39.bus_index(br.to_bus)
        ys = 1.0 / complex(br.r, br.x)
        tap = br.tap * np.exp(1j * br.shift)
        oracle[i, i] += (ys + 0.5j * br.b) / (br.tap**2)
        oracle[i, j] += -ys / np.conj(tap)
        oracle[j, i] += -ys / tap
        oracle[j, j] += ys + 0.5j * br.b
    for k, bus in enumerate(case39.buses):
        oracle[k, k] += complex(bus.gs, bus.bs)
    assert np.max(np.abs(adm39.ybus - oracle)) < 1e-12


@pytest.mark.parametrize("grid", ["case39", "tile8", "mesh6x7"])
def test_ybus_cells_keep_the_bits_of_the_stamp_loop(grid, case39):
    # Ybus sums its cells in the order the entry-by-entry loop does, so
    # every entry keeps the loop's bits; the cells are the loop's pattern
    case = {"case39": lambda: case39, "tile8": lambda: tiled_case39(8),
            "mesh6x7": lambda: meshed_case(6, 7)}[grid]()
    adm = build_admittance(case)
    n = case.n_bus
    assert np.array_equal(adm.ybus, ref.loop_ybus(adm))
    pattern = {(i, i) for i in range(n)}
    pattern |= {(i, j) for i, j in zip(adm.f_idx.tolist(), adm.t_idx.tolist())}
    pattern |= {(j, i) for i, j in pattern}
    assert adm.ybus_cells.tolist() == sorted(i * n + j for i, j in pattern)


def test_admittance_sparsity_symmetric(adm39):
    nz = np.abs(adm39.ybus) > 0
    assert (nz == nz.T).all()


def test_admittance_complex_symmetric_without_transformers():
    case = parse_case(TWO_BUS_CASE)
    adm = build_admittance(case)
    assert np.allclose(adm.ybus, adm.ybus.T)


def test_out_of_service_branch_dropped():
    text = TWO_BUS_CASE.replace(
        "mpc.branch = [\n    1 2 0.01 0.1 0.02 250 250 250 0 0 1;",
        "mpc.branch = [\n    1 2 0.01 0.1 0.02 250 250 250 0 0 1;\n"
        "    1 2 0.05 0.5 0 250 250 250 0 0 0;",
    )
    case = parse_case(text)
    assert len(case.branches) == 2
    adm = build_admittance(case)
    assert len(adm.branches) == 1
    ys = 1.0 / complex(0.01, 0.1)
    assert adm.ybus[0, 1] == pytest.approx(-ys)


def test_json_round_trip(case39):
    again = case_from_json(case_to_json(case39))
    assert again == case39
    # and the rendering itself is stable
    assert case_to_json(again) == case_to_json(case39)


def test_case_field_tables_follow_their_row_types():
    # the case JSON writer and reader both take a row's values in the order
    # of its type's fields; only a branch's source position is not written
    for row_type, fields in network._CASE_TABLES.values():
        names = [f.name for f in dataclasses.fields(row_type)]
        json_names = [{"from_bus": "from", "to_bus": "to"}.get(n, n) for n in names]
        assert json_names[: len(fields)] == list(fields)
        assert names[len(fields):] == (["index"] if row_type is Branch else [])


def test_json_round_trip_keeps_every_field_away_from_its_default(case39):
    branches, gens = list(case39.branches), list(case39.gens)
    branches[3] = dataclasses.replace(branches[3], status=False)
    branches[5] = dataclasses.replace(branches[5], tap=1.05, shift=0.1)
    branches[7] = dataclasses.replace(branches[7], rating=0.0)
    gens[2] = dataclasses.replace(gens[2], status=False)
    case = dataclasses.replace(case39, branches=tuple(branches), gens=tuple(gens), name="odd")
    again = case_from_json(case_to_json(case))
    assert again == case
    assert [br.index for br in again.branches] == list(range(len(branches)))
    assert (again.branches[3].status, again.gens[2].status) == (False, False)


def test_per_unit_consistency():
    # scaling every MW/MVAr input together with baseMVA leaves the model unchanged
    doubled = TWO_BUS_CASE
    doubled = doubled.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 200;")
    doubled = doubled.replace("2 1 50 20 0 0", "2 1 100 40 0 0")
    doubled = doubled.replace(
        "1 0 0 300 -300 1.0 100 1 500 0", "1 0 0 600 -600 1.0 100 1 1000 0"
    )
    doubled = doubled.replace(
        "1 2 0.01 0.1 0.02 250 250 250", "1 2 0.01 0.1 0.02 500 500 500"
    )
    a = parse_case(TWO_BUS_CASE)
    b = parse_case(doubled)
    assert a.buses == b.buses
    assert a.branches == b.branches
    assert a.gens == b.gens


def test_case_json_is_valid_json(case39):
    doc = json.loads(case_to_json(case39))
    assert doc["base_mva"] == 100.0
    assert len(doc["buses"]) == 39


def _known_by_rows(doc, keys, where):
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{where} field '{key}' is unknown")


def _case_of_doc_by_rows(doc):
    """The case JSON reader as it checked each row and field in turn: the
    reference for the column check of `network._case_of_doc`."""
    member(doc, "base_mva", NUMBER, "case")
    _known_by_rows(doc, ("name", "base_mva", "buses", "branches", "gens"), "case")
    if "name" in doc:
        member(doc, "name", str, "case")
    tables = {}
    for name, (_, fields) in network._CASE_TABLES.items():
        tables[name] = member(doc, name, list, "case")
        for i, row in enumerate(tables[name]):
            for key, (kind, _) in fields.items():
                member(row, key, kind, f"{name}[{i}]")
            _known_by_rows(row, fields, f"{name}[{i}]")
    for i, b in enumerate(tables["buses"]):
        if b["kind"] not in BUS_KINDS:
            raise ConfigError(f"buses[{i}] field 'kind' must be one of {', '.join(BUS_KINDS)}")
    return NetworkCase(
        base_mva=doc["base_mva"],
        buses=tuple(
            Bus(id=b["id"], kind=b["kind"], pd=b["pd"], qd=b["qd"], gs=b["gs"], bs=b["bs"],
                vmin=b["vmin"], vmax=b["vmax"])
            for b in tables["buses"]
        ),
        branches=tuple(
            Branch(from_bus=br["from"], to_bus=br["to"], r=br["r"], x=br["x"], b=br["b"],
                   tap=br["tap"], shift=br["shift"], rating=br["rating"], status=br["status"],
                   index=i)
            for i, br in enumerate(tables["branches"])
        ),
        gens=tuple(
            Gen(bus=g["bus"], pg=g["pg"], qg=g["qg"], vset=g["vset"], qmin=g["qmin"],
                qmax=g["qmax"], pmin=g["pmin"], pmax=g["pmax"], status=g["status"])
            for g in tables["gens"]
        ),
        name=doc.get("name", "case"),
    )


_CASE39_DOC = json.loads(case_to_json(load_bundled_case39()))
_MISSING = object()
# ROADMAP item 5's value family, an int beyond float range and a missing key
_SUBSTITUTES = [-1, 0, -0.0, 2.5, 1e308, math.nan, math.inf, "1", None, [], {}, True, 10**30,
                10**400, _MISSING]
# every table, row and field of case39's document, name, base_mva, and a key
# that neither the document nor a row has
_PLACES = [("name",), ("base_mva",), ("extra",), *((t,) for t in ("buses", "branches", "gens"))] + [
    (table, i, *key)
    for table in ("buses", "branches", "gens")
    for i, row in enumerate(_CASE39_DOC[table])
    for key in [(), ("extra",), *((k,) for k in row)]
]


def _read(reader, doc):
    try:
        return reader(doc)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_PLACES), st.sampled_from(_SUBSTITUTES)),
                min_size=1, max_size=3))
def test_column_check_reads_as_the_row_loop(substitutions):
    # each substitution replaces (or, for the missing key, deletes) one table,
    # row or field, or adds an unknown key; the column check must take
    # exactly what the row loop takes, give the same case for it, and name
    # the same first row and field
    doc = copy.deepcopy(_CASE39_DOC)
    for place, value in substitutions:
        *path, last = place
        parent = doc
        for step in path:  # an earlier substitution may have replaced the way
            try:
                parent = parent[step]
            except (KeyError, IndexError, TypeError):
                parent = None
        if isinstance(parent, dict):
            if value is _MISSING:
                parent.pop(last, None)
            else:
                parent[last] = value
        elif isinstance(parent, list) and last < len(parent):
            if value is _MISSING:
                del parent[last]
            else:
                parent[last] = value
    expected = _read(_case_of_doc_by_rows, doc)
    assert _read(network._case_of_doc, doc) == expected
