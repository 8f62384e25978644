"""The artifact writer: `to_json` is `json.dumps(..., indent=2)` byte for byte,
and a measurement CSV reads back bit for bit."""

import collections
import contextlib
import csv
import dataclasses
import datetime
import enum
import io
import json
import math
import sys
import uuid
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfdi import artifacts, cli, impact, network
from acfdi.attacks import apply_attack
from acfdi.estimation import (
    KINDS,
    Layout,
    MeasurementSet,
    generate_measurements,
    measurement_set_from_csv,
)

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
from grids import tiled_case39  # noqa: E402

SHIPPED = Path(__file__).parent.parent / "scenarios" / "case39_overload.json"
to_json = artifacts.to_json


def _stdlib(doc, sort_keys=False):
    return json.dumps(doc, indent=2, sort_keys=sort_keys)


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK


def test_writer_matches_stdlib_on_every_artifact_document(tmp_path, monkeypatch):
    # every document the package writes goes through the checked writer
    calls = []

    def checked(doc, sort_keys=False):
        text = to_json(doc, sort_keys)
        assert text == _stdlib(doc, sort_keys)
        calls.append(sort_keys)
        return text

    for module in (artifacts, cli, impact, network):
        monkeypatch.setattr(module, "to_json", checked)

    _run("scenario", "run", SHIPPED, "--out", tmp_path / "shipped")
    _run("scenario", "run", SHIPPED, "--seeds", 3, "--out", tmp_path / "sweep")
    case_path = tmp_path / "case39x2.json"
    case_path.write_text(network.case_to_json(tiled_case39(2)))
    config = json.loads(SHIPPED.read_text())
    config.update(case=str(case_path), zone={"focal": [18, 26, 27, 28]})
    (tmp_path / "tile2.json").write_text(json.dumps(config))
    _run("scenario", "run", tmp_path / "tile2.json", "--out", tmp_path / "tile2")
    network.case_to_json(tiled_case39(8))
    # an estimate whose normalized residuals hold None: bus 30 is seen only
    # through Pf:2-30 and Vmag:30, which are critical
    lines = (tmp_path / "shipped" / "measurements_clean.csv").read_text().splitlines(True)
    dropped = ("Pt:2-30,", "Qf:2-30,", "Qt:2-30,", "Pinj:30,", "Qinj:30,", "Vang:30,",
               "Pinj:2,", "Qinj:2,")
    (tmp_path / "critical.csv").write_text("".join(x for x in lines if not x.startswith(dropped)))
    _run("estimate", "case39", tmp_path / "critical.csv", "--out", tmp_path / "critical.json")
    estimate = json.loads((tmp_path / "critical.json").read_text())
    assert estimate["critical"] == ["Pf:2-30", "Vmag:30"]
    assert estimate["normalized_residuals"]["Vmag:30"] is None
    # 11 per scenario run (state, base document, zone, clean estimate,
    # summary, and per mode the attack, estimate and impact report), the
    # sweep's summary, two cases, the estimate
    assert len(calls) == 11 * 5 + 1 + 2 + 1

    # the stdlib alone re-reads and re-writes each file to the same bytes
    files = sorted(tmp_path.rglob("*.json"))
    assert len(files) == 11 * 5 + 1 + 2 + 1
    for path in files:
        if path.name != "tile2.json":
            text = path.read_text(encoding="utf-8")
            assert _stdlib(json.loads(text)) == text, path


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    st.text(),
    st.sampled_from(['"}', ']",\n', "\\", "\x00\x1f\x7f", "é ü ✓ \U0001f600", "},\n  {"]),
)
keys = st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none())
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        # rows: non-empty flat dicts or lists, one C encoding in the writer
        st.lists(st.dictionaries(keys, scalars, min_size=1, max_size=4), min_size=1, max_size=4),
        st.lists(st.lists(scalars, min_size=1, max_size=3), min_size=1, max_size=4),
        st.lists(st.dictionaries(st.text(max_size=3), children, min_size=1), max_size=3),
    ),
    max_leaves=40,
)


def _outcome(write, doc, sort_keys):
    """The text written, or the type of the error raised."""
    try:
        return write(doc, sort_keys)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=documents, sort_keys=st.booleans())
def test_writer_matches_stdlib_on_generated_documents(doc, sort_keys):
    assert _outcome(to_json, doc, sort_keys) == _outcome(_stdlib, doc, sort_keys)


# where repr's notation and orjson's differ, and the tail of a larger number
# that reads like one of them
BOUNDARY_FLOATS = [
    1e-05, 9.999999999999999e-05, 0.0001, 1e-07, 9999999999999998.0, 1e16, 1e100,
    5e-324, 1.7976931348623157e308, -0.0, 527656600000.00006,
]


def _deep(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        *BOUNDARY_FLOATS,
        *([value] for value in BOUNDARY_FLOATS),
        *({"b": value, "a": -value} for value in BOUNDARY_FLOATS),
        *([{"b": 1, "a": value}, {"b": value, "a": None}] for value in BOUNDARY_FLOATS),
        [None, math.nan, {"a": None, "b": -math.inf}],
        {"del": "\x7f", "\x7f": 1},
        _deep(300),  # orjson stops at 255
        [],
        {},
        [[], {}, ()],
        {"a": [{}], "b": [[]]},
        [{"a": 1}, {}],
        [[1], []],
        [{"a": 1}, [2]],
        [{"a": 1}, {"b": [2]}],
        {1: "int", True: "bool", None: "none", 2.5: "float"},
        [np.float64(0.1), np.float64("nan"), 1e-7, -0.0],
        (1, (2, (3,))),
        "top",
        3.0,
        None,
    ],
)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_writer_matches_stdlib_on_edge_documents(doc, sort_keys):
    assert _outcome(to_json, doc, sort_keys) == _outcome(_stdlib, doc, sort_keys)


class _Color(enum.Enum):
    RED = 1


@dataclasses.dataclass
class _Point:
    x: int
    y: int


class _Name(str):
    pass


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"a": [np.int64(1)]}, TypeError),
        ([{"a": {1, 2}}], TypeError),
        ({(1, 2): [1]}, TypeError),
        ({"a": [1], 2: [2]}, None),
        (object(), TypeError),
        # orjson writes an Enum and a UUID, at any depth, and refuses the
        # rest; each must come out as json.dumps has it
        ([_Color.RED], TypeError),
        ({"id": uuid.UUID(int=7)}, TypeError),
        ([_Point(1, 2)], TypeError),
        ({"day": datetime.date(2020, 1, 2)}, TypeError),
        ({"a": 1, "b": {"c": [None, _Color.RED]}}, TypeError),
        ([1, {"id": uuid.UUID(int=7)}], TypeError),
        ([2**70, -(2**70)], None),
        ({"a": _Name("x"), _Name("k"): [_Name("y")]}, None),
        (collections.OrderedDict(b=[1.5e-5], a={"c": None}), None),
    ],
)
def test_writer_raises_as_stdlib_does(doc, error):
    for sort_keys in (False, True):
        expected = _outcome(_stdlib, doc, sort_keys)
        assert _outcome(to_json, doc, sort_keys) == expected
        if error is not None:
            assert expected is error


def test_writer_matches_stdlib_on_random_float_bit_patterns():
    rng = np.random.default_rng(41)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    values = [v for v in bits.view(np.float64).tolist() if math.isfinite(v)]
    assert len(values) > 99_000
    # and, densely, the decades where the two notations switch
    values += (rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-7, 18, 20_000)).tolist()
    assert to_json(values) == _stdlib(values)
    rows = {"rows": [{"value": v} for v in values[:20_000]]}
    assert to_json(rows, True) == _stdlib(rows, True)


def test_writer_keeps_documents_with_none_off_the_stdlib(monkeypatch):
    # a None, at any depth and beside any other member, stays on orjson's path
    doc = {"a": 1.5e-5, "rows": [{"r": None}, {"r": 2.0}], "m": {"x": None, "y": [None, 1e16]}}
    expected = [_stdlib(doc), _stdlib(doc, True)]
    monkeypatch.setattr(artifacts, "json", None)
    assert [to_json(doc), to_json(doc, True)] == expected


def test_writer_detects_a_circular_document():
    doc = {"a": [1]}
    doc["a"].append(doc)
    with pytest.raises(ValueError, match="Circular reference"):
        to_json(doc)


def test_measurement_csv_round_trips_bit_for_bit(case39, base39):
    ms = generate_measurements(case39, base39, seed=11)  # default, noisy sigmas
    back = measurement_set_from_csv(ms.to_csv(), ms.layout)
    assert back.layout.ids == ms.layout.ids
    for name in ("values", "variances"):
        assert getattr(back, name).tobytes() == getattr(ms, name).tobytes()


def _assert_fresh_and_round_trips(ms):
    # the attacked text reuses its source's lines; a fresh set formats all
    text = ms.to_csv()
    assert text == MeasurementSet(ms.layout, ms.values, ms.variances).to_csv()
    back = measurement_set_from_csv(text, ms.layout)
    for name in ("values", "variances"):
        assert getattr(back, name).tobytes() == getattr(ms, name).tobytes()


def test_attacked_measurement_csv_equals_a_fresh_formatting(case39, base39, attack_optimal):
    ms = generate_measurements(case39, base39, seed=11)  # default, noisy sigmas
    ms.to_csv()
    attacked = apply_attack(ms, attack_optimal)
    assert attacked.values.tobytes() != ms.values.tobytes()
    _assert_fresh_and_round_trips(attacked)
    # a set derived from a derived set, and one whose source never wrote
    _assert_fresh_and_round_trips(apply_attack(attacked, attack_optimal))
    _assert_fresh_and_round_trips(apply_attack(generate_measurements(case39, base39), attack_optimal))


def test_attacked_measurement_csv_rewrites_every_attacked_row():
    # a zero delta turns -0.0 into 0.0, which repr tells apart
    layout = Layout.from_rows([(f"Vmag:{k}", KINDS.index("Vmag"), k, False) for k in range(5)])
    ms = MeasurementSet(layout, [-0.0, 1.0, 1e-300, -0.0, 2.5], np.full(5, 1e-4))
    ms.to_csv()
    attack = SimpleNamespace(deltas={"Vmag:0": 0.0, "Vmag:2": 1e-300, "Vmag:4": -2.5})
    attacked = apply_attack(ms, attack)
    _assert_fresh_and_round_trips(attacked)
    assert attacked.to_csv().splitlines()[1:] == [
        "Vmag:0,Vmag,0,0.0,0.0001", "Vmag:1,Vmag,1,1.0,0.0001", "Vmag:2,Vmag,2,2e-300,0.0001",
        "Vmag:3,Vmag,3,-0.0,0.0001", "Vmag:4,Vmag,4,0.0,0.0001",
    ]


def test_measurement_csv_quotes_ids_as_csv_writer_does():
    ids = ["plain", "with,comma", 'with"quote', "with\nnewline", "with\rreturn", " spaced "]
    # (id, kind, bus or branch index, side) of each row
    rows = [(i, "Vmag", k, None) for k, i in enumerate(ids)] + [("flow,1", "Pflow", 3, "to")]
    layout = Layout.from_rows(
        [(i, KINDS.index(kind), w, side == "from") for i, kind, w, side in rows]
    )
    values = np.array([1.0, -0.0, 1e-300, 2.5e10, 1 / 3, 7.0, 0.1])
    ms = MeasurementSet(layout, values, np.full(len(layout), 1.6e-5))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "kind", "location", "value", "variance"])
    for (meas_id, kind, w, side), value in zip(rows, values.tolist()):
        where = f"branch{w}:{side}" if KINDS.index(kind) < 2 else w
        writer.writerow([meas_id, kind, where, repr(value), repr(1.6e-5)])
    assert ms.to_csv() == buf.getvalue()
