import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import acfdi.attacks
from acfdi import case_to_json, load_bundled_case39
from acfdi.cli import EXIT_CONFIG, EXIT_ESTIMATOR, EXIT_INFEASIBLE, EXIT_OK, main

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
        "state.json", "base.json", "zone.json", "summary.json",
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
    assert (impact_dir / "base.json").read_bytes() == (out / "base.json").read_bytes()
    assert (impact_dir / "impact.json").read_bytes() == (out / "impact_optimal.json").read_bytes()
    assert (impact_dir / "flows.csv").read_bytes() == (out / "flows_optimal.csv").read_bytes()
    assert (impact_dir / "attack_angle.svg").read_bytes() == (
        out / "attack_angle_optimal.svg"
    ).read_bytes()


def test_impact_stage_parity_on_a_focal_zone(tmp_path):
    # the zone file of a focal scenario names its focal buses, and the
    # report's zone keeps them, as the scenario's does
    config = tmp_path / "focal.json"
    config.write_text(json.dumps({**SCENARIO, "zone": {"focal": [18, 26, 27, 28]}}))
    out = tmp_path / "run"
    assert main(["scenario", "run", str(config), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "zone.json").read_text())["focal"] == [18, 26, 27, 28]
    args = ["impact", "case39", str(out / "zone.json"), str(out / "attack_arbitrary.json"),
            "--formats", "json", "--out-dir", str(tmp_path / "impact")]
    for kind in ("Pflow", "Qflow", "Pinj", "Qinj", "Vmag", "Vang"):
        args += ["--sigma", f"{kind}=0"]
    assert main(args) == EXIT_OK
    for name, twin in (("impact.json", "impact_arbitrary.json"), ("base.json", "base.json")):
        assert (tmp_path / "impact" / name).read_bytes() == (out / twin).read_bytes(), name


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


def test_attack_delta_on_an_unknown_measurement_is_config_error(scenario_out, tmp_path, capsys):
    # a malformed attack file, not an infeasible design: exit 2 naming the
    # file and the id
    _, out = scenario_out
    doc = json.loads((out / "attack_optimal.json").read_text())
    doc["deltas"]["Pinj:999"] = 0.5
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps(doc))
    rc = main(["impact", "case39", str(out / "zone.json"), str(attack), "--formats", "json",
               "--out-dir", str(tmp_path / "i")])
    assert rc == EXIT_CONFIG
    assert f"{attack}: attack 'deltas': the case has no measurement id 'Pinj:999'" in (
        capsys.readouterr().err
    )


def test_impact_with_a_zone_the_attack_does_not_fit_is_config_error(
    scenario_out, tmp_path, capsys
):
    # the focal-21 zone's interior is [21, 22]; the shipped attack moves buses
    # of the 17-18-26-27-28 interior, the first of them bus 17
    _, out = scenario_out
    zone = tmp_path / "zone.json"
    assert main(["zone", "case39", "--focal", "21", "--out", str(zone)]) == EXIT_OK
    assert json.loads(zone.read_text())["interior"] == [21, 22]
    attack = out / "attack_optimal.json"
    rc = main(["impact", "case39", str(zone), str(attack), "--out-dir", str(tmp_path / "i")])
    assert rc == EXIT_CONFIG
    assert f"{attack}: attacked state moves non-interior bus 17" in capsys.readouterr().err
    assert not (tmp_path / "i").exists()


@pytest.mark.parametrize("key", ["x_base", "x_attacked"])
def test_attack_state_with_a_non_positive_magnitude_is_config_error(
    scenario_out, tmp_path, capsys, key
):
    _, out = scenario_out
    doc = json.loads((out / "attack_optimal.json").read_text())
    doc[key]["buses"][25]["vm"] = -1.0
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps(doc))
    rc = main(["impact", "case39", str(out / "zone.json"), str(attack),
               "--out-dir", str(tmp_path / "i")])
    assert rc == EXIT_CONFIG
    assert f"{attack}: attack {key} buses[25] field 'vm' must be positive" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "i").exists()


def _shifted_p(injections):
    injections["18"][0] += 1.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (_shifted_p, r"'18' is \[-0\.39\d*, -0\.30\d*\], where the attacked state gives "
                     r"\[-1\.39\d*, -0\.30\d*\]$"),
        (lambda injections: injections.pop("17"), r"'17' is missing, where the attacked state "
                                                   r"gives \[0\.0, 0\.0\]$"),
        (lambda injections: injections.update({"1": [0.0, 0.0]}),
         r"'1' is \[0\.0, 0\.0\], where the attacked state gives no zone bus$"),
    ],
    ids=["shifted", "missing", "extra"],
)
def test_attack_with_edited_falsified_injections_is_config_error(
    scenario_out, tmp_path, capsys, edit, message
):
    # the report reads the falsified injections off the attacked state, as
    # the design did, so an edited entry is named and nothing is written
    _, out = scenario_out
    doc = json.loads((out / "attack_optimal.json").read_text())
    edit(doc["falsified_injections"])
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps(doc))
    rc = main(["impact", "case39", str(out / "zone.json"), str(attack),
               "--out-dir", str(tmp_path / "i")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert re.search(rf"^error: {re.escape(str(attack))}: attack falsified_injections {message}",
                     err), err
    assert not (tmp_path / "i").exists()


@pytest.mark.parametrize("key", ["state", "x_base", "x_attacked"])
def test_state_whose_powers_overflow_is_config_error_without_warnings(
    scenario_out, tmp_path, capsys, key
):
    # bus 1 at 1e308 p.u. overflows its flows and injections: a base state
    # for `attack`, or a state of an attack file for `impact`, is refused
    # naming the file and the bus, and numpy warns of nothing
    _, out = scenario_out
    if key == "state":
        doc = json.loads((out / "state.json").read_text())
        doc["buses"][0]["vm"] = 1e308
        path = tmp_path / "state.json"
        argv = ["attack", "case39", str(out / "zone.json"), "--target", "26:27",
                "--state", str(path), "--out", str(tmp_path / "o" / "attack.json")]
    else:
        doc = json.loads((out / "attack_optimal.json").read_text())
        doc[key]["buses"][0]["vm"] = 1e308
        path = tmp_path / "attack.json"
        argv = ["impact", "case39", str(out / "zone.json"), str(path),
                "--out-dir", str(tmp_path / "o")]
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    where = "state" if key == "state" else f"attack {key}"
    assert capsys.readouterr().err == (
        f"error: {path}: {where} bus 1: the flows or injections at this state are not finite\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["1e100", "1e150", "3e151", "1e152"])
def test_trial_whose_objective_overflows_is_rejected_without_warnings(
    scenario_out, tmp_path, capsys, value
):
    # J is finite at the flat start, but the trial steps from it overflow
    # J: each is a rejected trial, and the estimator stops as it does on any
    # set that no step improves. numpy printed "overflow encountered in
    # matmul" on stderr before the error line. From 3e151 on m J overflows
    # too: the rounding floor eps (1 + m J) was infinite, every trial read
    # as degenerated, and the estimate was written as converged after one
    # iteration (exit 0); an infinite floor admits no trial
    _, out = scenario_out
    lines = (out / "measurements_clean.csv").read_text().splitlines(keepends=True)
    row = lines[1].split(",")
    assert row[0] == "Pf:1-2"
    lines[1] = ",".join([*row[:3], value, row[4]])
    path = tmp_path / "measurements.csv"
    path.write_text("".join(lines))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", "case39", str(path), "--out", str(tmp_path / "o.json")]) == EXIT_ESTIMATOR
    assert [str(w.message) for w in caught] == []
    assert re.fullmatch(r"error: estimator found no step that lowers J = \S+\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("value", [1e308, -1e308, 1e160])
@pytest.mark.parametrize("command", ["estimate", "impact"])
def test_set_whose_objective_overflows_is_config_error_without_warnings(
    scenario_out, tmp_path, capsys, command, value
):
    # a measured value, or an attack delta, whose weighted square overflows
    # leaves J infinite at the flat start, where no step can lower it: the
    # estimator printed numpy RuntimeWarnings and exited 4 with "found no
    # step that lowers J = inf". It is an input fault, refused naming the
    # file and the row, and numpy warns of nothing
    _, out = scenario_out
    if command == "estimate":
        lines = (out / "measurements_clean.csv").read_text().splitlines(keepends=True)
        row = lines[2].split(",")
        lines[2] = ",".join([*row[:3], repr(value), row[4]])
        path = tmp_path / "measurements.csv"
        path.write_text("".join(lines))
        argv = ["estimate", "case39", str(path), "--out", str(tmp_path / "o" / "est.json")]
        meas_id = row[0]
    else:
        doc = json.loads((out / "attack_optimal.json").read_text())
        meas_id = next(iter(doc["deltas"]))
        doc["deltas"][meas_id] = value
        path = tmp_path / "attack.json"
        path.write_text(json.dumps(doc))
        argv = ["impact", "case39", str(out / "zone.json"), str(path),
                "--out-dir", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: {path}: measurement {meas_id}: the weighted objective is not finite "
        "at the flat start\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "mode, message",
    [(None, "field 'mode' is missing"), ("both", "field 'mode' must be optimal or arbitrary")],
)
def test_attack_without_a_design_mode_is_config_error(
    scenario_out, tmp_path, capsys, mode, message
):
    # the report's metadata.mode is read from the attack file, never assumed
    _, out = scenario_out
    doc = json.loads((out / "attack_arbitrary.json").read_text())
    doc["solver_info"].pop("mode")
    if mode is not None:
        doc["solver_info"]["mode"] = mode
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps(doc))
    rc = main(["impact", "case39", str(out / "zone.json"), str(attack), "--formats", "json",
               "--out-dir", str(tmp_path / "i")])
    assert rc == EXIT_CONFIG
    assert f"{attack}: attack solver_info {message}" in capsys.readouterr().err
    assert not (tmp_path / "i").exists()


def test_unattainable_target_names_its_constraint(tmp_path, capsys):
    config = tmp_path / "config.json"
    targets = [{"from": 26, "to": 27, "lambda": 50.0}]
    config.write_text(json.dumps({**SCENARIO, "mode": "arbitrary", "targets": targets}))
    rc = main(["scenario", "run", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "arbitrary attack design infeasible: constraint Pf:26-27 still off by -" in err


def test_solver_max_outer_caps_the_attack_design(tmp_path, capsys):
    config = tmp_path / "config.json"
    targets = [{"from": 26, "to": 27, "lambda": 50.0}]
    config.write_text(json.dumps({**SCENARIO, "mode": "arbitrary", "targets": targets,
                                  "solver": {"max_outer": 2}}))
    rc = main(["scenario", "run", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "arbitrary attack design infeasible: constraint Pf:26-27 still off by -" in err
    assert err.rstrip().endswith("after 2 outer rounds")


@pytest.mark.parametrize(
    "key", ["tol_eq", "max_inner", "penalty0", "penalty_growth", "ang_perturbation",
            "mag_perturbation", "vm_relax", "overload_margin"],
)
def test_solver_section_takes_no_fixed_tuning(key, tmp_path, capsys):
    # each of these was a solver field of a scenario file; it is a constant
    # of acfdi.attacks now, and a scenario that sets it, even to that
    # constant, exits 2 naming it before any stage
    value = getattr(acfdi.attacks, f"_{key.upper()}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SCENARIO, "solver": {"max_outer": 20, key: value}}))
    assert main(["scenario", "run", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"unknown field solver '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_target_with_a_reverse_base_flow_exits_3(tmp_path, capsys):
    # 26-28 is an interior line of the zone, but its from-end flow is
    # negative at base, so no overload factor applies to it
    config = tmp_path / "config.json"
    targets = [{"from": 26, "to": 28, "lambda": 1.3}]
    config.write_text(json.dumps({**SCENARIO, "targets": targets}))
    rc = main(["scenario", "run", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INFEASIBLE
    assert "target branch 26-28 has base from-end flow -1.408" in capsys.readouterr().err
    # the base artifacts were rendered before the design failed; none is written
    assert _tree_bytes(tmp_path / "o") == {}


def test_a_failed_seed_keeps_the_earlier_sets_and_writes_no_merged_summary(
    tmp_path, monkeypatch, scenario_out
):
    import acfdi.cli as cli
    from acfdi.attacks import AttackError

    design = cli.design_attack

    def fail_at_the_third_seed(case, base, spec, adm):
        if spec.seed == 3:
            raise AttackError("attack design infeasible")
        return design(case, base, spec, adm)

    monkeypatch.setattr(cli, "design_attack", fail_at_the_third_seed)
    config, single = scenario_out
    out = tmp_path / "sweep"
    rc = main(["scenario", "run", str(config), "--seeds", "3", "--out", str(out)])
    assert rc == EXIT_INFEASIBLE
    assert sorted(p.name for p in out.iterdir()) == ["seed_000", "seed_001"]
    # a complete set: the first seed's bytes are the single run's
    assert _tree_bytes(out / "seed_000") == _tree_bytes(single)
    assert (out / "seed_001" / "summary.json").exists()


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


@pytest.mark.parametrize("study", ["shipped", "tile4_focal", "seeds_3"])
def test_summary_config_reruns_the_study_byte_for_byte(study, tmp_path):
    # summary.json's config is the scenario file of the study, so a run on it
    # writes every artifact again, summary.json included. It wrote "modes"
    # for "mode" and a "solver" section, and each exits 2 as a scenario key
    config, extra = BUNDLED, []
    if study == "tile4_focal":
        case_path = tmp_path / "case39x4.json"
        case_path.write_text(case_to_json(tiled_case39(4)))
        doc = {**json.loads(BUNDLED.read_text()), "case": str(case_path),
               "zone": {"focal": [18, 26, 27, 28]}}
        config = tmp_path / "tile4.json"
        config.write_text(json.dumps(doc))
    elif study == "seeds_3":
        extra = ["--seeds", "3"]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["scenario", "run", str(config), "--out", str(first), *extra]) == EXIT_OK
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(json.loads((first / "summary.json").read_text())["config"]))
    assert main(["scenario", "run", str(echoed), "--out", str(again), *extra]) == EXIT_OK
    written = _tree_bytes(first)
    assert len(written) == (79 if study == "seeds_3" else 26)
    assert _tree_bytes(again) == written


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


@pytest.mark.parametrize(
    "table,row,key,value",
    [("buses", 5, "pd", 1e308), ("buses", 5, "gs", -1e308), ("gens", 2, "vset", 1e308)],
    ids=["pd", "gs", "vset"],
)
def test_diverging_power_flow_exits_4_without_numpy_warnings(table, row, key, value, tmp_path):
    # each of these overflows in the Newton iterations, which printed numpy
    # RuntimeWarnings before exiting 4; a fresh interpreter shows what a run
    # prints on stderr
    from acfdi.cli import EXIT_ESTIMATOR

    doc = json.loads(case_to_json(load_bundled_case39()))
    doc[table][row][key] = value
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    state = tmp_path / "state.json"
    out = subprocess.run(
        [sys.executable, "-m", "acfdi.cli", "pf", str(path), "--out", str(state)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == EXIT_ESTIMATOR
    assert "Warning" not in out.stderr
    assert "iteration" in out.stderr
    assert not state.exists()


@pytest.mark.parametrize("value", [1e308, -1e308])
@pytest.mark.parametrize(
    "table, row, key, bus",
    [("buses", 5, key, 6) for key in ("pd", "qd", "gs", "bs")] + [("gens", 2, "pg", 32)],
    ids=["pd", "qd", "gs", "bs", "pg"],
)
def test_overflowing_newton_step_names_its_bus(table, row, key, bus, value, tmp_path, capsys):
    # each of these gave "inaccurate Newton step (linear residual nan, nan
    # relative)", although no step was inaccurate: the Jacobian, the LU
    # solve or their product overflowed
    from acfdi.cli import EXIT_ESTIMATOR

    doc = json.loads(case_to_json(load_bundled_case39()))
    doc[table][row][key] = value
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    state = tmp_path / "state.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pf", str(path), "--out", str(state)]) == EXIT_ESTIMATOR
    err = capsys.readouterr().err
    assert f"Newton step overflows at iteration 0 (max mismatch 1.000e+308 at bus {bus})" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not state.exists()


def test_bundled_scenario_config_runs(tmp_path):
    out = tmp_path / "bundled"
    assert main(["scenario", "run", str(BUNDLED), "--out", str(out)]) == EXIT_OK
    assert (out / "summary.json").exists()


def test_pf_writes_to_stdout_without_out(capsys):
    assert main(["pf", "case39"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["buses"]) == 39


def test_pf_out_naming_a_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "some_dir"
    out.mkdir()
    assert main(["pf", "case39", "--out", f"{out}{os.sep}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out) in err and "unexpected" not in err


def test_scenario_out_naming_a_regular_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["scenario", "run", str(BUNDLED), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out) in err and "unexpected" not in err
    assert out.read_text() == "keep"


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
    return ["estimate", "case39", str(path)], "line 1"


def _four_field_csv_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,kind,location,value,variance\nPinj:1,Pinj,1,0.0\n")
    return ["estimate", "case39", str(path)], "line 2 has 4 fields"


def _csv_header_with_unknown_names(tmp_path):
    # only "id,kind" was checked, and the rest of the header was read as
    # location, value and variance (exit 0)
    path = tmp_path / "m.csv"
    path.write_text("id,kind,foo,bar,baz\nPinj:1,Pinj,1,0.0,1e-4\n")
    return ["estimate", "case39", str(path)], "line 1 must be the header"


def _csv_row_with_another_kind_and_location(tmp_path):
    # a row's kind and location were never read (exit 0)
    path = tmp_path / "m.csv"
    path.write_text("id,kind,location,value,variance\nPinj:1,Pinj,1,0.0,1e-4\n"
                    "Pf:1-2,Vmag,bus 99,0.0,1e-4\n")
    return ["estimate", "case39", str(path)], (
        "line 3: Pf:1-2 is written with Pflow,branch0:from, not Vmag,bus 99"
    )


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


# max_outer is the one solver field a scenario sets; each other one is
# refused as unknown, whatever its value


def _solver_max_inner_zero(tmp_path):
    return _scenario_with(solver={"max_inner": 0})(tmp_path), "'max_inner'"


def _solver_tol_eq_negative(tmp_path):
    return _scenario_with(solver={"tol_eq": -1})(tmp_path), "'tol_eq'"


def _solver_penalty_growth_below_one(tmp_path):
    return _scenario_with(solver={"penalty_growth": 0.5})(tmp_path), "'penalty_growth'"


def _misspelled_top_level_mode(tmp_path):
    return _scenario_with(modes=["optimal"])(tmp_path), "'modes'"


def _misspelled_pf_max_iter(tmp_path):
    return _scenario_with(pf={"max_iters": 5})(tmp_path), "'max_iters'"


def _misspelled_solver_max_outer(tmp_path):
    return _scenario_with(solver={"max_outr": 2})(tmp_path), "'max_outr'"


def _misspelled_bdd_confidence(tmp_path):
    return _scenario_with(bdd={"confidance": 0.9})(tmp_path), "'confidance'"


def _misspelled_seeds_noise(tmp_path):
    return _scenario_with(seeds={**SCENARIO["seeds"], "noize": 3})(tmp_path), "'noize'"


def _misspelled_output_formats(tmp_path):
    return _scenario_with(output={"format": ["json"]})(tmp_path), "'format'"


def _misspelled_zone_focal_beside_explicit_lists(tmp_path):
    zone = {**SCENARIO["zone"], "focul": [26]}
    return _scenario_with(zone=zone)(tmp_path), "'focul'"


def _misspelled_target_lambda(tmp_path):
    targets = [{"from": 26, "to": 27, "lambda": 1.3, "lamda": 2.0}]
    return _scenario_with(targets=targets)(tmp_path), "'lamda'"


def _target_with_both_lambda_and_factor(tmp_path):
    targets = [{"from": 26, "to": 27, "lambda": 1.3, "factor": 5.0}]
    return _scenario_with(targets=targets)(tmp_path), "targets[0] 'lambda' and targets[0] 'factor'"


def _zone_file_with_string_ids(tmp_path):
    path = tmp_path / "z.json"
    zone = {"interior": SCENARIO["zone"]["interior"], "boundary": ["3", "15"]}
    path.write_text(json.dumps(zone))
    return ["attack", "case39", str(path), "--target", "26:27"], "'boundary'"


def _attack_on_state(tmp_path, edit):
    """`attack` argv on the case39 base state as `edit` leaves its document."""
    state = tmp_path / "state.json"
    assert main(["pf", "case39", "--out", str(state)]) == EXIT_OK
    doc = json.loads(state.read_text())
    edit(doc)
    state.write_text(json.dumps(doc))
    zone = tmp_path / "z.json"
    zone.write_text(json.dumps(SCENARIO["zone"]))
    argv = ["attack", "case39", str(zone), "--target", "26:27", "--state", str(state)]
    return argv + ["--out", str(tmp_path / "o")]


def _state_with_magnitude(vm, bus=26, named="state buses[25] field 'vm' must be positive"):
    def make(tmp_path):
        # bus k is case39's k-th bus; bus 26 is an interior bus of the zone
        def edit(doc):
            doc["buses"][bus - 1]["vm"] = vm

        return _attack_on_state(tmp_path, edit), named

    make.__name__ = f"_state_with_magnitude_{vm}_at_bus_{bus}"
    return make


def _state_with_unknown_key(tmp_path):
    # a key that the state format does not name was dropped (exit 0)
    return _attack_on_state(tmp_path, lambda doc: doc.update(bogus=1)), "state field 'bogus' is unknown"


def _state_row_with_unknown_key(tmp_path):
    return (_attack_on_state(tmp_path, lambda doc: doc["buses"][3].update(vmag=1.0)),
            "state buses[3] field 'vmag' is unknown")


def _impact_of_shipped_attack(tmp_path, edit):
    """`impact` argv on the shipped optimal attack as `edit` leaves its document."""
    run = tmp_path / "run"
    assert main(["scenario", "run", str(BUNDLED), "--out", str(run)]) == EXIT_OK
    doc = json.loads((run / "attack_optimal.json").read_text())
    edit(doc)
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps(doc))
    return ["impact", "case39", str(run / "zone.json"), str(attack), "--out-dir", str(tmp_path / "o")]


def _attack_file_with_unknown_key(tmp_path):
    # the shipped attack with a key that the attack format does not name
    # (exit 0, the key dropped)
    argv = _impact_of_shipped_attack(tmp_path, lambda doc: doc.update(bogus={}))
    return argv, "attack field 'bogus' is unknown"


def _attack_solver_info_with_unknown_key(tmp_path):
    # a solver report key that `design_attack` does not write (exit 0, the
    # key carried unread)
    argv = _impact_of_shipped_attack(tmp_path, lambda doc: doc["solver_info"].update(bogus=1))
    return argv, "attack solver_info field 'bogus' is unknown"


def _zone_file_with(named, **fields):
    def make(tmp_path):
        # the shipped zone's file with fields replaced; each ran (exit 0) with
        # the replaced field unread
        zone = tmp_path / "zone.json"
        assert main(["zone", "case39", "--interior", "17,18,26,27,28",
                     "--boundary", "3,15,16,21,24,25,29", "--out", str(zone)]) == EXIT_OK
        zone.write_text(json.dumps({**json.loads(zone.read_text()), **fields}))
        return ["attack", "case39", str(zone), "--target", "26:27",
                "--out", str(tmp_path / "o")], named

    make.__name__ = "_zone_file_with_" + "_".join(fields)
    return make


def _case_json_with(table, row, key, value, command="pf"):
    def make(tmp_path):
        # each of these values failed unexpectedly (exit 1) when the case
        # was solved, or, as a "pq" kind, was read without complaint
        doc = json.loads(case_to_json(load_bundled_case39()))
        doc[table][row][key] = value
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path), *(["--focal", "18"] if command == "zone" else [])]
        return argv + ["--out", str(tmp_path / "o")], f"{table}[{row}] field '{key}'"

    text = json.dumps(value)  # an integer too large for a float is named 1eN
    label = text if len(text) < 20 else f"{text[0]}e{len(text) - 1}"
    make.__name__ = f"_{command}_case_json_{table}_{key}_{label}"
    return make


def _case_json_field(key, value):
    def make(tmp_path):
        # a case JSON with such a base, with a name that is not a string, or
        # with a top-level key that the format does not name, loaded (exit 0);
        # the MATPOWER reader refuses such a base
        doc = json.loads(case_to_json(load_bundled_case39()))
        doc[key] = value
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        return ["pf", str(path), "--out", str(tmp_path / "o")], f"case field '{key}'"

    make.__name__ = f"_pf_case_json_{key}_{json.dumps(value)}"
    return make


def _scenario_on_a_case_json_with_vmin_above_vmax(tmp_path):
    # attack design projected its start into the empty band [2.5, 1.06] and
    # the solver refused it (exit 1, "unexpected error")
    doc = json.loads(case_to_json(load_bundled_case39()))
    doc["buses"][25]["vmin"] = 2.5
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SCENARIO, "case": str(case)}))
    return ["scenario", "run", str(config), "--out", str(tmp_path / "o")], "bus 26 field 'vmin'"


def _case_m_with(table, row, column, token, named):
    def make(tmp_path):
        # one entry of a case39.m table replaced; named is how the error names
        # the row and field
        text = (Path(__file__).parent.parent / "src" / "acfdi" / "data" / "case39.m").read_text()
        head, rest = text.split(f"mpc.{table} = [", 1)
        body, tail = rest.split("];", 1)
        lines = body.split("\n")
        rows = [i for i, line in enumerate(lines) if line.split("%")[0].strip()]
        tokens = lines[rows[row]].split()
        tokens[column] = token
        lines[rows[row]] = "\t".join(tokens)
        path = tmp_path / "case.m"
        path.write_text(f"{head}mpc.{table} = [" + "\n".join(lines) + "];" + tail)
        return ["pf", str(path), "--out", str(tmp_path / "o")], named

    make.__name__ = f"_pf_case_m_{table}_{column}_{token}"
    return make


@pytest.mark.parametrize(
    "make_input",
    [
        _four_column_csv, _four_field_csv_row, _csv_header_with_unknown_names,
        _csv_row_with_another_kind_and_location,
        _non_numeric_csv_value, _nan_csv_value, _infinite_csv_variance,
        _target_without_from, _zone_without_boundary,
        _targets_not_a_list, _sigmas_not_an_object, _seeds_not_an_object,
        _scenario_zone_with_string_ids, _formats_not_a_list, _zone_file_with_string_ids,
        _pf_tol_not_a_number, _solver_max_outer_not_an_integer, _pf_max_iter_zero,
        _case_not_a_path, _solver_max_outer_zero, _solver_max_inner_zero,
        _solver_tol_eq_negative, _solver_penalty_growth_below_one,
        _misspelled_top_level_mode, _misspelled_pf_max_iter, _misspelled_solver_max_outer,
        _misspelled_bdd_confidence, _misspelled_seeds_noise, _misspelled_output_formats,
        _misspelled_zone_focal_beside_explicit_lists, _misspelled_target_lambda,
        _target_with_both_lambda_and_factor, _state_with_magnitude(-1.0),
        _state_with_magnitude(0.0),
        # a state whose powers overflow ran (exit 0) after three numpy
        # RuntimeWarnings; unknown keys in a state or an attack file, and a
        # zone file whose derived fields or focal buses are not its zone's,
        # were read without complaint (exit 0)
        _state_with_magnitude(1e308, 1, "state bus 1: the flows or injections at this state"),
        _state_with_unknown_key, _state_row_with_unknown_key, _attack_file_with_unknown_key,
        _attack_solver_info_with_unknown_key,
        _zone_file_with("zone field 'tie_lines' entry 0 is [1, 2], where the zone gives [2, 3]",
                        tie_lines=[[1, 2]]),
        _zone_file_with("zone field 'bogus' is unknown", bogus=True),
        _zone_file_with("zone field 'focal' entry 0 is 1, not an interior bus", focal=[1]),
        _zone_file_with("zone field 'interior' must be a list", interior="17,18,26,27,28"),
        _zone_file_with("zone field 'interior_lines' entry 5 is missing, where the zone gives",
                        interior_lines=[[3, 18], [16, 17], [17, 18], [17, 27], [25, 26]]),
        _zone_file_with("zone field 'inert_boundary' entry 0 is 15.0, where the zone gives 15",
                        inert_boundary=[15.0, 21, 24]),
        _zone_file_with("zone field 'frozen_lines' entry 3 is [1, 2], where the zone gives no entry",
                        frozen_lines=[[15, 16], [16, 21], [16, 24], [1, 2]]),
        _case_json_with("buses", 5, "kind", "pq"), _case_json_with("buses", 5, "kind", "pq", "zone"),
        _case_json_with("buses", 5, "kind", None), _case_json_with("buses", 5, "pd", "1"),
        _case_json_with("buses", 5, "gs", True), _case_json_with("branches", 3, "b", None),
        _case_json_with("branches", 3, "shift", []), _case_json_with("branches", 3, "tap", 0),
        _case_json_with("branches", 3, "status", 1), _case_json_with("gens", 2, "qg", {}),
        _case_json_with("gens", 2, "vset", []), _case_json_with("buses", 5, "pd", 10**400),
        # values no stage can use: each exited 4 in power flow, or 0
        *(_case_json_with("buses", 5, key, value)
          for key, value in (("pd", math.nan), ("qd", math.inf), ("gs", -math.inf),
                             ("bs", math.nan), ("vmin", math.nan), ("vmax", math.nan))),
        *(_case_json_with("branches", 3, key, value)
          for key, value in (("r", math.nan), ("x", math.nan), ("r", math.inf), ("b", math.inf),
                             ("shift", math.nan), ("tap", -math.inf), ("rating", math.nan))),
        *(_case_json_with("gens", 2, key, value)
          for key, value in (("pg", math.nan), ("qg", math.inf), ("vset", -1), ("vset", 0))),
        # a negative transformer ratio exited 4 in power flow
        _case_json_with("branches", 3, "tap", -1),
        # a tap whose square underflows to 0 exited 1, one whose square
        # overflows opened the branch (exit 0)
        *(_case_json_with("branches", 3, "tap", value) for value in (1e-308, 5e-324, 1e308)),
        _case_json_field("base_mva", 0), _case_json_field("base_mva", -1),
        _case_json_field("base_mva", math.nan),
        # a key that the case format does not name was dropped (exit 0)
        _case_json_field("baseMVA", 100), _case_json_field("areas", []),
        _case_json_with("buses", 5, "Pd", 1.0), _case_json_with("branches", 3, "ratio", 1.0),
        _case_json_with("gens", 2, "mbase", 100), _case_json_with("gens", 2, "mbase", 100, "zone"),
        # a band with vmin above vmax exited 1 in attack design; an r or x
        # of ±1e308 opened the branch, and a name of any JSON value loaded
        # (exit 0)
        _scenario_on_a_case_json_with_vmin_above_vmax,
        _case_json_with("branches", 3, "r", 1e308), _case_json_with("branches", 3, "x", -1e308),
        _case_json_field("name", 3), _case_json_field("name", None),
        _case_m_with("bus", 25, 12, "2.5", "bus 26 field 'vmin'"),
        _case_m_with("branch", 3, 2, "1e308", "branch 2-25 field 'r'"),
        _case_m_with("branch", 3, 3, "-1e308", "branch 2-25 field 'x'"),
        _case_m_with("bus", 5, 2, "NaN", "bus 6 field 'pd'"),
        _case_m_with("bus", 5, 12, "nan", "bus 6 field 'vmin'"),
        _case_m_with("branch", 3, 3, "Inf", "branch 2-25 field 'x'"),
        _case_m_with("gen", 2, 5, "0", "generator at bus 32 field 'vset'"),
        _case_m_with("branch", 3, 8, "-1", "branch 2-25 field 'tap'"),
        _case_m_with("branch", 3, 8, "1e-308", "branch 2-25 field 'tap'"),
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
        ["pf", "case39", "--tol", "inf"],
        ["estimate", "case39", "{csv}", "--tol", "inf"],
        ["attack", "case39", "{zone}", "--target", "26.7:27"],
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
    # edge from powerflow to estimation against an import cycle.
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


def test_scenario_run_on_numpys_openblas_imports_no_scipy_linalg(tmp_path):
    # the WLS factor binds LAPACK's band Cholesky from the OpenBLAS numpy's
    # wheel bundles: a whole scenario loads no scipy.linalg module, not even
    # the cython_lapack the binding falls back to where numpy bundles none
    code = (
        "import contextlib, io, sys\n"
        "from acfdi import banded\n"
        "from acfdi.cli import main\n"
        "assert banded._numpy_openblas() is not None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['scenario', 'run', {str(BUNDLED)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(' '.join(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == []
    assert (tmp_path / "summary.json").exists()


def test_cli_import_defers_scipy_special_to_the_chi_square_test(tmp_path):
    # the scipy.special package costs about 0.2 s and 25 MB of start-up; the
    # chi-square test loads only the extension module that holds gammaincinv,
    # so no command imports the package: not `acfdi pf`, `zone` or `attack`,
    # which run no chi-square test, nor `scenario run` and `estimate`
    code = "import sys, acfdi.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["False"]
    run = tmp_path / "run"
    code = (
        "import contextlib, io, sys\n"
        "from acfdi.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['scenario', 'run', {str(BUNDLED)!r}, '--out', {str(run)!r}]) == 0\n"
        f"    assert main(['estimate', 'case39', {str(run / 'measurements_clean.csv')!r},\n"
        f"                 '--out', {str(tmp_path / 'estimate.json')!r}]) == 0\n"
        "print('scipy.special' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["False"]
    # both commands ran the test: the threshold is scipy's chi2.ppf(0.95, 263)
    bdd = json.loads((tmp_path / "estimate.json").read_text())["bdd"]
    assert bdd["threshold"] == pytest.approx(301.8266, abs=1e-4)


def test_scenario_from_a_warm_pattern_cache_matches_a_fresh_process(tmp_path):
    # the shipped study twice in this interpreter, first from a cleared cache
    # of topology patterns and then from the patterns that run left, against
    # a fresh interpreter's run
    from acfdi import network

    subprocess.run(
        [sys.executable, "-m", "acfdi.cli", "scenario", "run", str(BUNDLED),
         "--out", str(tmp_path / "fresh")],
        check=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    network._shared.clear()
    for run in ("cold", "warm"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scenario", "run", str(BUNDLED), "--out", str(tmp_path / run)]) == EXIT_OK
    fresh = _tree_bytes(tmp_path / "fresh")
    assert len(fresh) == 26
    assert _tree_bytes(tmp_path / "cold") == fresh
    assert _tree_bytes(tmp_path / "warm") == fresh


def test_pf_then_scenario_in_one_process_write_what_fresh_processes_write(tmp_path):
    # main builds its parser once per process; a second call reads it again
    for argv, name in ((["pf", "case39"], "pf.json"), (["scenario", "run", str(BUNDLED)], "run")):
        subprocess.run(
            [sys.executable, "-m", "acfdi.cli", *argv, "--out", str(tmp_path / "fresh" / name)],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(tmp_path / "one" / name)]) == EXIT_OK
    fresh = _tree_bytes(tmp_path / "fresh")
    assert len(fresh) == 1 + 26
    assert _tree_bytes(tmp_path / "one") == fresh


def test_cold_scenario_keeps_eight_shared_entries(tmp_path):
    # one network: its admittance stamps, its full layout, its Newton pattern
    # and Newton flat start, the layout patterns of the Newton rows, the full
    # layout and the design constraints, and the flat start that the clean
    # and attacked estimates share
    from acfdi import network

    network._shared.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["scenario", "run", str(BUNDLED), "--out", str(tmp_path)]) == EXIT_OK
    kept = Counter(type(value).__name__ for value in network._shared.values())
    assert kept == {
        "_Stamps": 1, "Layout": 1, "_NewtonPattern": 1, "_NewtonStart": 1,
        "LayoutPattern": 3, "FlatStart": 1,
    }


def test_tiled_scenario_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    # the shipped study on two chained case39 copies with a focal zone, in
    # fresh interpreters at 1 and 2 OpenBLAS threads; a dense LU of the
    # 135-wide power-flow Jacobian rounded differently at 2 threads and
    # moved 21 of the 25 files, the band LU keeps every file's bytes
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
    assert len(one) == 26
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []
