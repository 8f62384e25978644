"""The artifact writer: `to_json` is `json.dumps(..., indent=2)` byte for byte,
and a measurement CSV reads back bit for bit."""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfdi import artifacts, cli, impact, network
from acfdi.estimation import (
    KINDS,
    Layout,
    MeasurementKey,
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
    # 10 per scenario run (state, zone, clean estimate, summary, and per mode
    # the attack, estimate and impact report), the sweep's summary, two cases
    assert len(calls) == 10 * 5 + 1 + 2

    # the stdlib alone re-reads and re-writes each file to the same bytes
    files = sorted(tmp_path.rglob("*.json"))
    assert len(files) == 10 * 5 + 1 + 2
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


@pytest.mark.parametrize(
    "doc",
    [
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


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"a": [np.int64(1)]}, TypeError),
        ([{"a": {1, 2}}], TypeError),
        ({(1, 2): [1]}, TypeError),
        ({"a": [1], 2: [2]}, None),
        (object(), TypeError),
    ],
)
def test_writer_raises_as_stdlib_does(doc, error):
    for sort_keys in (False, True):
        expected = _outcome(_stdlib, doc, sort_keys)
        assert _outcome(to_json, doc, sort_keys) == expected
        if error is not None:
            assert expected is error


def test_writer_detects_a_circular_document():
    doc = {"a": [1]}
    doc["a"].append(doc)
    with pytest.raises(ValueError, match="Circular reference"):
        to_json(doc)


def test_measurement_csv_round_trips_bit_for_bit(case39, base39):
    ms = generate_measurements(case39, base39, seed=11)  # default, noisy sigmas
    back = measurement_set_from_csv(ms.to_csv(), case39)
    assert back.layout.ids == ms.layout.ids
    for name in ("values", "variances"):
        assert getattr(back, name).tobytes() == getattr(ms, name).tobytes()


def test_measurement_csv_quotes_ids_as_csv_writer_does():
    ids = ["plain", "with,comma", 'with"quote', "with\nnewline", "with\rreturn", " spaced "]
    layout = Layout.from_keys(
        [MeasurementKey(i, "Vmag", bus=k) for k, i in enumerate(ids)]
        + [MeasurementKey("flow,1", "Pflow", branch_index=3, side="to")]
    )
    values = np.array([1.0, -0.0, 1e-300, 2.5e10, 1 / 3, 7.0, 0.1])
    ms = MeasurementSet(layout, values, np.full(len(layout), 1.6e-5))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "kind", "location", "value", "variance"])
    for key, value in zip(layout.keys(), values.tolist()):
        where = f"branch{key.branch_index}:{key.side}" if KINDS.index(key.kind) < 2 else key.bus
        writer.writerow([key.id, key.kind, where, repr(value), repr(1.6e-5)])
    assert ms.to_csv() == buf.getvalue()
