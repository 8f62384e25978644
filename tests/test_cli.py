import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from acfdi.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
import spans  # noqa: E402
from grids import tiled_case39  # noqa: E402

BUNDLED = Path(__file__).parent.parent / "scenarios" / "case39_overload.json"

SCENARIO = {
    "case": "case39",
    "zone": {"interior": [17, 18, 26, 27, 28], "boundary": [3, 15, 16, 21, 24, 25, 29]},
    "targets": [{"from": 26, "to": 27, "lambda": 1.3}],
    "mode": "both",
    "sigmas": {k: 0.0 for k in ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang")},
    "seeds": {"noise": 0, "arbitrary_start": 1},
    "output": {"formats": ["json", "csv", "svg"]},
}


@pytest.fixture(scope="module")
def scenario_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario")
    config = root / "config.json"
    config.write_text(json.dumps(SCENARIO))
    out = root / "run"
    assert main(["scenario", "run", str(config), "--out", str(out)]) == EXIT_OK
    return config, out


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_scenario_writes_expected_artifacts(scenario_out):
    _, out = scenario_out
    names = {p.name for p in out.iterdir()}
    for required in (
        "state.json", "zone.json", "summary.json",
        "attack_optimal.json", "attack_arbitrary.json",
        "measurements_clean.csv", "estimation_clean.json",
        "impact_optimal.json", "flows_optimal.csv", "voltages_optimal.csv",
        "injections_optimal.csv", "residuals_optimal.svg",
    ):
        assert required in names, required
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["modes"]) == {"optimal", "arbitrary"}
    assert summary["modes"]["optimal"]["bdd_attacked"] == "pass"
    assert summary["modes"]["arbitrary"]["bdd_attacked"] == "pass"


def test_scenario_rerun_is_byte_identical(scenario_out, tmp_path):
    config, out = scenario_out
    again = tmp_path / "again"
    assert main(["scenario", "run", str(config), "--out", str(again)]) == EXIT_OK
    assert _tree_bytes(out) == _tree_bytes(again)


def test_pf_stage_parity(scenario_out, tmp_path):
    _, out = scenario_out
    target = tmp_path / "state.json"
    assert main(["pf", "case39", "--out", str(target)]) == EXIT_OK
    assert target.read_bytes() == (out / "state.json").read_bytes()


def test_zone_stage_parity(scenario_out, tmp_path):
    _, out = scenario_out
    target = tmp_path / "zone.json"
    assert (
        main(
            [
                "zone", "case39",
                "--interior", "17,18,26,27,28",
                "--boundary", "3,15,16,21,24,25,29",
                "--out", str(target),
            ]
        )
        == EXIT_OK
    )
    assert target.read_bytes() == (out / "zone.json").read_bytes()


def test_attack_stage_parity(scenario_out, tmp_path):
    _, out = scenario_out
    target = tmp_path / "attack.json"
    assert (
        main(
            [
                "attack", "case39", str(out / "zone.json"),
                "--target", "26:27", "--lambda", "1.3",
                "--mode", "arbitrary", "--seed", "1",
                "--out", str(target),
            ]
        )
        == EXIT_OK
    )
    assert target.read_bytes() == (out / "attack_arbitrary.json").read_bytes()


def test_estimate_stage_parity(scenario_out, tmp_path):
    _, out = scenario_out
    target = tmp_path / "estimation.json"
    assert (
        main(
            ["estimate", "case39", str(out / "measurements_clean.csv"), "--out", str(target)]
        )
        == EXIT_OK
    )
    assert target.read_bytes() == (out / "estimation_clean.json").read_bytes()


def test_impact_stage_parity(scenario_out, tmp_path):
    _, out = scenario_out
    impact_dir = tmp_path / "impact"
    args = [
        "impact", "case39", str(out / "zone.json"), str(out / "attack_optimal.json"),
        "--noise-seed", "0", "--out-dir", str(impact_dir),
    ]
    for kind in ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang"):
        args += ["--sigma", f"{kind}=0"]
    assert main(args) == EXIT_OK
    assert (impact_dir / "impact.json").read_bytes() == (out / "impact_optimal.json").read_bytes()
    assert (impact_dir / "flows.csv").read_bytes() == (out / "flows_optimal.csv").read_bytes()
    assert (impact_dir / "attack_angle.svg").read_bytes() == (
        out / "attack_angle_optimal.svg"
    ).read_bytes()


def test_unknown_focal_bus_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps({**SCENARIO, "zone": {"focal": [99]}})
    )
    assert main(["scenario", "run", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "99" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["scenario", "run", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_invalid_zone_flags_are_config_error(capsys):
    assert main(["zone", "case39", "--interior", "17,18"]) == EXIT_CONFIG
    assert "focal" in capsys.readouterr().err


def test_infeasible_attack_exit_code(scenario_out, tmp_path, capsys):
    _, out = scenario_out
    rc = main(
        [
            "attack", "case39", str(out / "zone.json"),
            "--target", "26:27", "--lambda", "50.0",
            "--mode", "optimal", "--out", str(tmp_path / "never.json"),
        ]
    )
    assert rc == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_unattainable_target_names_its_constraint(tmp_path, capsys):
    config = tmp_path / "config.json"
    targets = [{"from": 26, "to": 27, "lambda": 50.0}]
    config.write_text(json.dumps({**SCENARIO, "mode": "arbitrary", "targets": targets}))
    rc = main(["scenario", "run", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "arbitrary attack design infeasible: constraint Pf:26-27 still off by -" in err


def test_seed_sweep_merges_in_order(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SCENARIO, "mode": "arbitrary"}))
    out = tmp_path / "sweep"
    assert main(["scenario", "run", str(config), "--seeds", "2", "--out", str(out)]) == EXIT_OK
    merged = json.loads((out / "summary.json").read_text())
    assert merged["n_seeds"] == 2
    assert [r["index"] for r in merged["runs"]] == [0, 1]
    assert [r["arbitrary_seed"] for r in merged["runs"]] == [1, 2]
    assert (out / "seed_000" / "summary.json").exists()
    assert (out / "seed_001" / "summary.json").exists()
    # independent seeds produce different attacks
    assert (
        merged["runs"][0]["modes"]["arbitrary"]["deviation_norm"]
        != merged["runs"][1]["modes"]["arbitrary"]["deviation_norm"]
    )


def test_estimator_failure_exit_code(tmp_path, capsys):
    # a magnitude-only measurement file leaves the angles unobservable
    from acfdi.cli import EXIT_ESTIMATOR
    from acfdi.estimation import full_layout, generate_measurements
    from acfdi.network import build_admittance, load_bundled_case39
    from acfdi.powerflow import solve_power_flow

    case = load_bundled_case39()
    adm = build_admittance(case)
    state = solve_power_flow(case, adm)
    ms = generate_measurements(
        case, state, adm=adm, layout=full_layout(case, kinds=("Vmag", "Pinj"))
    )
    csv_path = tmp_path / "partial.csv"
    csv_path.write_text(ms.to_csv())
    rc = main(["estimate", "case39", str(csv_path), "--max-iter", "2"])
    assert rc == EXIT_ESTIMATOR
    assert "error" in capsys.readouterr().err


def test_power_flow_failure_exit_code(tmp_path, capsys):
    # one Newton-Raphson iteration stops at the flat-start mismatch
    from acfdi.cli import EXIT_ESTIMATOR

    message = "no convergence in 1 iterations (final max mismatch 8.129e+00)"
    assert main(["pf", "case39", "--max-iter", "1"]) == EXIT_ESTIMATOR
    assert message in capsys.readouterr().err

    config = tmp_path / "pf.json"
    config.write_text(json.dumps({**SCENARIO, "pf": {"max_iter": 1}}))
    assert main(["scenario", "run", str(config), "--out", str(tmp_path / "o")]) == EXIT_ESTIMATOR
    assert message in capsys.readouterr().err


def test_bundled_scenario_config_runs(tmp_path):
    out = tmp_path / "bundled"
    assert main(["scenario", "run", str(BUNDLED), "--out", str(out)]) == EXIT_OK
    assert (out / "summary.json").exists()


def test_pf_writes_to_stdout_without_out(capsys):
    assert main(["pf", "case39"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["buses"]) == 39


def test_focal_zone_scenario_runs(tmp_path):
    config = tmp_path / "focal.json"
    config.write_text(
        json.dumps(
            {
                **SCENARIO,
                "zone": {"focal": [26]},
                "targets": [{"from": 26, "to": 27, "lambda": 1.1}],
                "mode": "optimal",
            }
        )
    )
    out = tmp_path / "out"
    assert main(["scenario", "run", str(config), "--out", str(out)]) == EXIT_OK
    zone = json.loads((out / "zone.json").read_text())
    assert zone["interior"] == [26]
    assert zone["boundary"] == [25, 27, 28, 29]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["modes"]["optimal"]["targets"][0]["factor_attained"] >= 1.1


def test_external_case_file_path(tmp_path, capsys):
    from conftest import TWO_BUS_CASE

    path = tmp_path / "tiny.m"
    path.write_text(TWO_BUS_CASE)
    assert main(["pf", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["buses"]) == 2


def _four_column_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,kind,location,value\nPinj:1,Pinj,1,0.0\n")
    return ["estimate", "case39", str(path)], "line 2"


def _non_numeric_csv_value(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,kind,location,value,variance\nPinj:1,Pinj,1,high,1e-4\n")
    return ["estimate", "case39", str(path)], "line 2"


def _nan_csv_value(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,kind,location,value,variance\nPinj:1,Pinj,1,0.0,1e-4\nPinj:2,Pinj,2,nan,1e-4\n")
    return ["estimate", "case39", str(path)], "line 3"


def _infinite_csv_variance(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,kind,location,value,variance\nPinj:1,Pinj,1,0.0,inf\n")
    return ["estimate", "case39", str(path)], "line 2"


def _target_without_from(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**SCENARIO, "targets": [{"to": 27, "lambda": 1.3}]}))
    return ["scenario", "run", str(path), "--out", str(tmp_path / "o")], "'from'"


def _zone_without_boundary(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"interior": SCENARIO["zone"]["interior"]}))
    return ["attack", "case39", str(path), "--target", "26:27"], "'boundary'"


def _scenario_with(**fields):
    def make(tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**SCENARIO, **fields}))
        return ["scenario", "run", str(path), "--out", str(tmp_path / "o")]

    return make


def _targets_not_a_list(tmp_path):
    return _scenario_with(targets={"from": 26, "to": 27, "lambda": 1.3})(tmp_path), "'targets'"


def _sigmas_not_an_object(tmp_path):
    return _scenario_with(sigmas=[0.01])(tmp_path), "'sigmas'"


def _seeds_not_an_object(tmp_path):
    return _scenario_with(seeds=7)(tmp_path), "'seeds'"


def _scenario_zone_with_string_ids(tmp_path):
    zone = {"interior": ["17", "18"], "boundary": SCENARIO["zone"]["boundary"]}
    return _scenario_with(zone=zone)(tmp_path), "'interior'"


def _formats_not_a_list(tmp_path):
    return _scenario_with(output={"formats": "json"})(tmp_path), "'formats'"


def _case_not_a_path(tmp_path):
    return _scenario_with(case=None)(tmp_path), "'case'"


def _pf_tol_not_a_number(tmp_path):
    return _scenario_with(pf={"tol": "abc"})(tmp_path), "'tol'"


def _solver_max_outer_not_an_integer(tmp_path):
    return _scenario_with(solver={"max_outer": "x"})(tmp_path), "'max_outer'"


def _pf_max_iter_zero(tmp_path):
    return _scenario_with(pf={"max_iter": 0})(tmp_path), "'max_iter'"


def _solver_max_outer_zero(tmp_path):
    return _scenario_with(solver={"max_outer": 0})(tmp_path), "'max_outer'"


def _solver_max_inner_zero(tmp_path):
    return _scenario_with(solver={"max_inner": 0})(tmp_path), "'max_inner'"


def _solver_tol_eq_negative(tmp_path):
    return _scenario_with(solver={"tol_eq": -1})(tmp_path), "'tol_eq'"


def _solver_penalty_growth_below_one(tmp_path):
    return _scenario_with(solver={"penalty_growth": 0.5})(tmp_path), "'penalty_growth'"


def _zone_file_with_string_ids(tmp_path):
    path = tmp_path / "z.json"
    zone = {"interior": SCENARIO["zone"]["interior"], "boundary": ["3", "15"]}
    path.write_text(json.dumps(zone))
    return ["attack", "case39", str(path), "--target", "26:27"], "'boundary'"


@pytest.mark.parametrize(
    "make_input",
    [
        _four_column_csv, _non_numeric_csv_value, _nan_csv_value, _infinite_csv_variance,
        _target_without_from, _zone_without_boundary,
        _targets_not_a_list, _sigmas_not_an_object, _seeds_not_an_object,
        _scenario_zone_with_string_ids, _formats_not_a_list, _zone_file_with_string_ids,
        _pf_tol_not_a_number, _solver_max_outer_not_an_integer, _pf_max_iter_zero,
        _case_not_a_path, _solver_max_outer_zero, _solver_max_inner_zero,
        _solver_tol_eq_negative, _solver_penalty_growth_below_one,
    ],
    ids=lambda make: make.__name__.strip("_"),
)
def test_malformed_input_is_config_error_naming_file_and_field(make_input, tmp_path, capsys):
    argv, field_name = make_input(tmp_path)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path) in err
    assert field_name in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "case39", "{zone}", "--target", "1:99"],
        ["attack", "case39", "{zone}", "--target", "26:27", "--lambda", "-1"],
        ["estimate", "case39", "{csv}", "--confidence", "2"],
        ["estimate", "case39", "{csv}", "--lnr-threshold", "0"],
        ["impact", "case39", "{zone}", "{attack}", "--sigma", "Pflow=abc"],
        ["impact", "case39", "{zone}", "{attack}", "--sigma", "Pflow=-1"],
        ["impact", "case39", "{zone}", "{attack}", "--confidence", "2"],
        ["impact", "case39", "{zone}", "{attack}", "--formats", "json,pdf"],
        ["pf", "case39", "--tol", "0"],
        ["pf", "case39", "--max-iter", "0"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_malformed_flag_is_config_error_naming_flag(argv, scenario_out, tmp_path, capsys):
    # the last flag given is the malformed one
    flag = argv[-2]
    _, run = scenario_out
    files = {
        "{zone}": run / "zone.json",
        "{csv}": run / "measurements_clean.csv",
        "{attack}": run / "attack_optimal.json",
    }
    out = tmp_path / "out"
    argv = [str(files.get(a, a)) for a in argv]
    argv += ["--out-dir" if argv[0] == "impact" else "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_traced_scenario_records_every_stage(tmp_path):
    # bench/spans.py patches the stages' library calls as attributes of
    # acfdi.cli; a stage moved out of the module would read 0 ms when traced
    tracer = spans.Tracer()
    argv = ["scenario", "run", str(BUNDLED), "--out", str(tmp_path / "o")]
    with spans.instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    recorded = {name for name, *_ in tracer.spans}
    for name in (
        "network.load_case", "network.build_admittance", "powerflow.newton_power_flow",
        "zones.validate_zone",
        "attacks.design_attack.optimal", "attacks.design_attack.arbitrary",
        "attacks.apply_attack",
        "estimation.generate_measurements", "estimation.wls_estimate",
        "impact.compute_impact", "impact.render_report",
        "cli.load_scenario_config", "cli.run_scenario",
    ):
        assert name in recorded, name


def test_import_loads_no_heavy_scipy_modules():
    # scipy.stats, scipy.linalg and scipy.sparse.linalg each add a large
    # share to the CLI's start-up time and memory; none is needed. Each
    # module is imported alone in a fresh interpreter, which also guards the
    # edge from powerflow to estimation, which imports powerflow, against an
    # import cycle.
    for module in ("acfdi.cli", "acfdi.powerflow", "acfdi.estimation"):
        code = (
            f"import sys, {module}; "
            "print(' '.join(m for m in ('scipy.sparse.linalg', 'scipy.linalg', 'scipy.stats') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.split() == [], module


def test_tiled_scenario_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    # the shipped study on two chained case39 copies with a focal zone, in
    # fresh interpreters at 1 and 2 OpenBLAS threads; a dense LU of the
    # 135-wide power-flow Jacobian rounded differently at 2 threads and
    # moved 21 of the 25 files, the block LU keeps every file's bytes
    from acfdi import case_to_json

    case_path = tmp_path / "case39x2.json"
    case_path.write_text(case_to_json(tiled_case39(2)))
    config = json.loads(BUNDLED.read_text())
    config.update(case=str(case_path), zone={"focal": [18, 26, 27, 28]})
    config_path = tmp_path / "tiled.json"
    config_path.write_text(json.dumps(config))
    for threads in (1, 2):
        subprocess.run(
            [sys.executable, "-m", "acfdi.cli", "scenario", "run", str(config_path),
             "--out", str(tmp_path / f"threads{threads}")],
            check=True, capture_output=True,
            env={
                **os.environ,
                "OPENBLAS_NUM_THREADS": str(threads),
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
        )
    one, two = _tree_bytes(tmp_path / "threads1"), _tree_bytes(tmp_path / "threads2")
    assert len(one) == 25
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []
