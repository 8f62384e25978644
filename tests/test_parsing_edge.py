"""Fuzzed inputs never end in an unexpected error (exit 1).

Each input the CLI reads -- the shipped scenario config, a zone, an attack, a
base state, a measurement CSV and a MATPOWER case -- is truncated, has bytes
flipped or inserted, and goes through `acfdi.cli.main`. Whatever the bytes,
the run succeeds (0), or stops as a configuration error (2), an infeasible
attack (3) or an estimator or power-flow failure (4).
"""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from acfdi.cli import EXIT_OK, main

SHIPPED = Path(__file__).parent.parent / "scenarios" / "case39_overload.json"
EXPECTED_EXITS = (0, 2, 3, 4)


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("shipped")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["scenario", "run", str(SHIPPED), "--out", str(out)]) == EXIT_OK
        assert main(["pf", "case39", "--out", str(out / "pf.json")]) == EXIT_OK
    return out


# input name -> (the file it starts from, argv that reads the mutated file at
# path, with the shipped run's other files and outputs in work)
def _inputs(run: Path) -> dict:
    zone = str(run / "zone.json")
    case_m = resources.files("acfdi.data").joinpath("case39.m")
    return {
        "config": (SHIPPED, lambda path, work: ["scenario", "run", path, "--out", f"{work}/o"]),
        "zone": (run / "zone.json", lambda path, work: [
            "attack", "case39", path, "--target", "26:27", "--out", f"{work}/a.json"]),
        "attack": (run / "attack_optimal.json", lambda path, work: [
            "impact", "case39", zone, path, "--formats", "json", "--out-dir", f"{work}/i"]),
        "state": (run / "pf.json", lambda path, work: [
            "attack", "case39", zone, "--target", "26:27", "--state", path,
            "--out", f"{work}/a.json"]),
        "csv": (run / "measurements_clean.csv", lambda path, work: [
            "estimate", "case39", path, "--out", f"{work}/e.json"]),
        "case": (case_m, lambda path, work: ["pf", path, "--out", f"{work}/pf.json"]),
    }


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """data, truncated, with bytes flipped or with bytes inserted, 1-3 times."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(out)))
        edit = draw(st.sampled_from(("truncate", "flip", "insert")))
        if edit == "truncate":
            del out[at:]
        elif edit == "flip" and at < len(out):
            out[at] ^= draw(st.integers(1, 255))
        else:
            out.insert(at, draw(st.integers(0, 255)))
    return bytes(out)


@pytest.mark.parametrize(
    "name, examples",
    [("config", 20), ("zone", 25), ("attack", 25), ("state", 20), ("csv", 30), ("case", 30)],
)
def test_mutated_input_never_exits_unexpectedly(name, examples, shipped_run):
    source, argv = _inputs(shipped_run)[name]
    suffix = Path(str(source)).suffix

    @settings(max_examples=examples, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=mutations(source.read_bytes()))
    def check(text):
        with tempfile.TemporaryDirectory() as work:
            path = f"{work}/input{suffix}"
            Path(path).write_bytes(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv(path, work))
        assert code in EXPECTED_EXITS, err.getvalue()

    check()


@pytest.mark.parametrize(
    "name, content, said",
    [
        ("config", b'{"case": "case39\xe9"}', "not UTF-8 text"),
        ("csv", b"id,kind,location,value,variance\nVmag:1\xe9,Vmag,1,1.0,1e-05\n", "UTF-8"),
        ("attack", b'{"x_base": \xe9}', "not UTF-8 text"),
        ("case", b"function mpc = case\xe9\n", "not UTF-8 text"),
        ("config", None, "Is a directory"),
        ("csv", None, "Is a directory"),
        ("attack", b"{}", "attack field 'x_base' is missing"),
        ("attack", b"[]", "attack must be an object"),
        ("attack", b'{"x_base": {"buses": [{"id": 1, "vm": "1.0", "va": 0.0}]}}', "'vm'"),
        ("state", b"{}", "state field 'buses' is missing"),
        ("state", b'{"buses": [{"id": 1, "vm": 1.0}]}', "'va' is missing"),
        ("state", b'{"buses": [{"id": 1, "vm": 1.0, "va": 0.0}]}', "not the case's buses"),
        ("case", b"mpc.baseMVA = 100;\nmpc.bus = [\n NaN 3 0 0 0 0 1 1 0 345 1 1.1 0.9;\n];\n",
         "bus id must be an integer"),
        ("case", b"mpc.baseMVA = 100;\nmpc.bus = [\n 1 3 0 0 0 0 1 1 0 345 1 1.1;\n];\n",
         "bus row too short (line 2)"),
        ("case", b"mpc.baseMVA = 100;\nmpc.bus = [\n 9007199254740993.0 3 0 0 0 0 1 1 0 345 1 1.1 0.9;\n];\n",
         "bus row (line 2): an integer of 2**53 or more must be written in digits"),
    ],
    ids=lambda value: value if isinstance(value, str) and " " not in value else None,
)
def test_unreadable_or_malformed_input_exits_2_naming_the_file(
    name, content, said, shipped_run, tmp_path, capsys
):
    source, argv = _inputs(shipped_run)[name]
    path = tmp_path / f"input{Path(str(source)).suffix}"
    if content is None:
        path.mkdir()  # a directory where a file should be
    else:
        path.write_bytes(content)
    assert main(argv(str(path), str(tmp_path))) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert said in err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("seeds", "noise", -1),
        ("seeds", "arbitrary_start", -1),
        ("sigmas", "Vmag", 1e200),
        # a fixed solver field: now refused as unknown
        ("solver", "ang_perturbation", 1e308),
        # a 1e400 in the file reads as this infinity, as does the Infinity
        # that json.dumps writes; an int field would truncate 2.7, 0.9, 26.7
        ("pf", "tol", float("inf")),
        ("estimator", "tol", float("inf")),
        ("solver", "tol_eq", float("inf")),
        ("pf", "max_iter", 2.7),
        ("seeds", "noise", 0.9),
        ("targets", "from", 26.7),
    ],
)
def test_scenario_field_that_used_to_fail_unexpectedly_is_config_error(
    section, key, value, tmp_path, capsys
):
    config = json.loads(SHIPPED.read_text())
    fields = config["targets"][0] if section == "targets" else config.setdefault(section, {})
    fields[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["scenario", "run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
