"""Command-line pipeline: power flow, zone, attack design, estimation, impact.

`scenario run` and the subcommands call the same stage functions, so each
subcommand reproduces its scenario artifact byte for byte, and pass flags to
the scenario file's section reader, so a malformed flag fails the check of the
field it sets before any artifact is written. The stages call the library
through this module's names, which `bench/spans.py` patches to trace them.
Exit codes: 0 success, 2 configuration error, 3 infeasible attack design,
4 estimator or power-flow failure, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .artifacts import ConfigError, known, member, read_text, to_json, typed
from .attacks import (
    AttackError,
    AttackSpec,
    AttackVector,
    OverloadTarget,
    SolverParams,
    apply_attack,
    check_moves_only_interior,
    design_attack,
)
from .estimation import (
    DEFAULT_SIGMAS,
    BddPolicy,
    EstimationError,
    MeasurementError,
    chi_square_test,
    generate_measurements,
    measurement_set_from_csv,
    network_powers,
    wls_estimate,
)
from .impact import base_document, compute_impact, render_report
from .network import CaseError, StateVector, build_admittance, load_bundled_case39, load_case
from .nlsolver import check_limits
from .powerflow import PowerFlowError, solve_power_flow
from .zones import ZoneError, build_zone, validate_zone

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ESTIMATOR = 4

log = logging.getLogger("acfdi")

_MODES = ("optimal", "arbitrary")
_FORMATS = ("json", "csv", "svg")
# the solver fields a scenario file sets; the start seed comes from "seeds"
_SOLVER_KEYS = tuple(f.name for f in fields(SolverParams) if f.name != "seed")
# the top-level keys of a scenario file
_SECTIONS = ("case", "zone", "targets", "mode", "sigmas", "seeds", "bdd", "solver", "pf",
             "estimator", "output")
# the fields of a zone file, as `AttackZone.to_dict` writes them
_ZONE_FIELDS = ("focal", "interior", "boundary", "inert_boundary", "interior_lines",
                "frozen_lines", "tie_lines")


@dataclass(frozen=True)
class Limits:
    """Convergence tolerance and iteration cap of an iterative solve."""

    tol: float
    max_iter: int

    def __post_init__(self):
        check_limits(self.tol, self.max_iter)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario; each default is the value that an absent field takes."""

    case_path: str
    zone: dict[str, list[int]] = field(default_factory=dict)  # focal, or interior and boundary
    targets: tuple[OverloadTarget, ...] = ()
    modes: tuple[str, ...] = _MODES
    sigmas: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SIGMAS))
    noise_seed: int = 0
    bdd: BddPolicy = BddPolicy()
    solver: SolverParams = SolverParams(seed=1)
    pf: Limits = Limits(tol=1e-8, max_iter=20)
    estimator: Limits = Limits(tol=1e-10, max_iter=50)
    formats: tuple[str, ...] = _FORMATS

    def echo(self) -> dict:
        """Every value used, by scenario-file section, with `modes` where a file has `mode`."""
        return {
            "case": self.case_path,
            "zone": self.zone,
            "targets": [
                {"from": t.from_bus, "to": t.to_bus, "lambda": t.factor} for t in self.targets
            ],
            "modes": list(self.modes),
            "sigmas": self.sigmas,
            "seeds": {"noise": self.noise_seed, "arbitrary_start": self.solver.seed},
            "bdd": asdict(self.bdd),
            "solver": {key: getattr(self.solver, key) for key in _SOLVER_KEYS},
            "pf": asdict(self.pf),
            "estimator": asdict(self.estimator),
            "output": {"formats": list(self.formats)},
        }


def _setup_logging() -> None:
    level = os.environ.get("ACFDI_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _write(out_dir: str, files: dict[str, str]) -> None:
    """Create out_dir, once, and write each named file's content into it. A
    path that cannot be written raises ConfigError naming it."""
    path = out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in files.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(content: str, out: str | None) -> None:
    if out:
        _write(os.path.dirname(out) or ".", {os.path.basename(out): content})
    else:
        sys.stdout.write(content)


def _to_json(artifact) -> str:
    """A state or zone artifact as JSON text."""
    return to_json(artifact.to_dict())


def _estimation_json(res, policy: BddPolicy) -> str:
    verdict = chi_square_test(res, policy)
    doc = res.to_dict()
    doc["bdd"] = {
        "passed": verdict.passed,
        "statistic": verdict.statistic,
        "threshold": verdict.threshold,
    }
    return to_json(doc)


def _read_json(path: str, what: str):
    """The document in a JSON input file; a file that does not read as one is
    a ConfigError naming it."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {what} is not valid JSON: {exc}") from None


def _number(value, kind: type, label: str):
    """value as kind, a finite float or a whole int, from a number or numeric text."""
    if not isinstance(value, bool):
        try:
            number = kind(value)
            exact = kind is float or isinstance(value, str) or number == value  # int(2.7) is 2
            if exact and math.isfinite(number):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{label} must be {'an integer' if kind is int else 'a finite number'}")


def _known(doc: dict, keys, label) -> None:
    """Raise ConfigError naming the first key of doc that keys lacks, as label(key)."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown field {label(key)}")


def _read_fields(default, doc: dict, name, section: str, keys=None):
    """default with each field that doc gives, as the type of its default value.

    Fields are replaced one at a time, so the class's own validation names
    the one field at fault.
    """
    keys = keys or [f.name for f in fields(default)]
    _known(doc, keys, lambda key: name(section, key))
    for key in keys:
        if key in doc:
            value = _number(doc[key], type(getattr(default, key)), name(section, key))
            try:
                default = replace(default, **{key: value})
            except ValueError as exc:
                raise ConfigError(f"{name(section, key)}: {exc}") from None
    return default


def _bus_list(value, label: str) -> list[int]:
    """A list of integer bus ids, or command-line text such as "17,18,26"."""
    if isinstance(value, str):
        try:
            value = [int(tok) for tok in value.split(",") if tok.strip()]
        except ValueError:
            pass
    if not isinstance(value, list) or not all(
        isinstance(b, int) and not isinstance(b, bool) for b in value
    ):
        raise ConfigError(f"{label} must be a list of integer bus ids")
    return value


def _read_target(doc, name, section: str) -> OverloadTarget:
    """One overload target {"from", "to", "lambda"}; "factor" reads as "lambda",
    and a target gives one of the two."""
    doc = doc if isinstance(doc, dict) else {}
    _known(doc, ("from", "to", "lambda", "factor"), lambda key: name(section, key))
    if "lambda" in doc and "factor" in doc:
        raise ConfigError(
            f"{name(section, 'lambda')} and {name(section, 'factor')} name one field; give one"
        )
    from_bus, to_bus = (_number(doc.get(key), int, name(section, key)) for key in ("from", "to"))
    factor = _number(doc.get("lambda", doc.get("factor")), float, name(section, "lambda"))
    if not factor > 0:
        raise ConfigError(f"{name(section, 'lambda')} must be positive")
    return OverloadTarget(from_bus, to_bus, factor)


def _read_config(config: ScenarioConfig, doc: dict, name) -> ScenarioConfig:
    """config with every section that doc gives read over it.

    doc has the shape of a scenario file; name(section, key) names a field
    in error messages.
    """

    def section(key: str) -> dict:
        value = doc.get(key, {})
        if not isinstance(value, dict):
            raise ConfigError(f"'{key}' must be an object")
        return value

    _known(doc, _SECTIONS, lambda key: f"'{key}'")
    new = {}
    if "zone" in doc:
        zone = section("zone")
        _known(zone, ("focal", "interior", "boundary"), lambda key: name("zone", key))
        lists = {
            key: _bus_list(zone[key], name("zone", key))
            for key in ("focal", "interior", "boundary")
            if zone.get(key) is not None
        }
        new["zone"] = {"focal": lists["focal"]} if "focal" in lists else lists
        if "focal" not in lists and len(lists) < 2:
            raise ConfigError(
                f"zone needs {name('zone', 'focal')}, or both "
                f"{name('zone', 'interior')} and {name('zone', 'boundary')}"
            )
    if "targets" in doc:
        if not isinstance(doc["targets"], list):
            raise ConfigError("'targets' must be a list")
        new["targets"] = tuple(
            _read_target(t, name, f"targets[{i}]") for i, t in enumerate(doc["targets"])
        )
        if not new["targets"]:
            raise ConfigError("at least one overload target is required")
    if "mode" in doc:
        mode = doc["mode"]
        if mode not in (*_MODES, "both"):
            raise ConfigError(f"mode must be optimal, arbitrary, or both, got {mode!r}")
        new["modes"] = _MODES if mode == "both" else (mode,)

    new["sigmas"] = dict(config.sigmas)
    for kind, value in section("sigmas").items():
        label = name("sigmas", kind)
        if kind not in new["sigmas"]:
            raise ConfigError(f"{label} is not a measurement kind")
        new["sigmas"][kind] = sigma = _number(value, float, label)
        if not (sigma >= 0 and sigma * sigma < math.inf):
            raise ConfigError(f"{label} must be >= 0, with a finite square")

    seeds = section("seeds")
    _known(seeds, ("noise", "arbitrary_start"), lambda key: name("seeds", key))
    new["noise_seed"], seed = (
        _number(seeds.get(key, default), int, name("seeds", key))
        for key, default in (("noise", config.noise_seed), ("arbitrary_start", config.solver.seed))
    )
    for key, value in (("noise", new["noise_seed"]), ("arbitrary_start", seed)):
        if value < 0:
            raise ConfigError(f"{name('seeds', key)} must be >= 0")
    new["solver"] = _read_fields(
        replace(config.solver, seed=seed), section("solver"), name, "solver", _SOLVER_KEYS
    )
    for key in ("bdd", "pf", "estimator"):
        new[key] = _read_fields(getattr(config, key), section(key), name, key)

    output = section("output")
    _known(output, ("formats",), lambda key: name("output", key))
    formats = output.get("formats", config.formats)
    if not isinstance(formats, (list, tuple)) or any(f not in _FORMATS for f in formats):
        raise ConfigError(f"{name('output', 'formats')} must be a list of {', '.join(_FORMATS)}")
    new["formats"] = tuple(formats)
    return replace(config, **new)


def load_scenario_config(path: str) -> ScenarioConfig:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict) or any(k not in doc for k in ("case", "zone", "targets")):
        raise ConfigError(f"{path}: config requires 'case', 'zone', and 'targets'")
    if not isinstance(doc["case"], str):
        raise ConfigError(f"{path}: 'case' must be a case file path or 'case39'")
    try:
        return _read_config(
            ScenarioConfig(doc["case"]), doc, lambda section, key: f"{section} '{key}'"
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _flag(section: str, key: str) -> str:
    """The command-line flag that sets a scenario field."""
    if section == "sigmas":
        return f"--sigma {key}"
    if section == "seeds":
        return "--noise-seed" if key == "noise" else "--seed"
    if key in ("from", "to"):
        return "--target"
    return "--" + key.replace("_", "-")


def _flags(args: argparse.Namespace, *keys: str) -> dict:
    """The flags among keys that were given, by destination name."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _network(path: str):
    """The case ('case39' or a case file) and its admittance model."""
    case = load_bundled_case39() if path == "case39" else load_case(path)
    return case, build_admittance(case)


def _check_targets(adm, targets, label: str) -> None:
    for t in targets:
        if (t.from_bus, t.to_bus) not in adm.pair_position:
            raise ConfigError(f"{label} references no in-service branch {t.from_bus}-{t.to_bus}")


def _state_of_case(case, state: StateVector) -> StateVector:
    if state.bus_ids != tuple(b.id for b in case.buses):
        raise ConfigError("state buses are not the case's buses in case order")
    return state


def _finite_state(adm, state: StateVector, where: str) -> StateVector:
    """state, whose flows and injections are finite; else ConfigError naming
    the first bus, in case order, whose injection or branch end is not."""
    with np.errstate(all="ignore"):
        s, sf, st = network_powers(state, adm)
    bad = ~np.isfinite(s)
    bad[adm.f_idx[~np.isfinite(sf)]] = True
    bad[adm.t_idx[~np.isfinite(st)]] = True
    if bad.any():
        bus = state.bus_ids[bad.argmax()]
        raise ConfigError(f"{where} bus {bus}: the flows or injections at this state "
                          "are not finite")
    return state


def _zone(case, config: ScenarioConfig):
    if "focal" in config.zone:
        return build_zone(case, set(config.zone["focal"]))
    return validate_zone(case, set(config.zone["interior"]), set(config.zone["boundary"]))


def _same_entries(given, derived: list, label: str) -> None:
    """Raise ConfigError naming the first entry of given that is not derived's.
    Entries compare as JSON text, so that 16.0 or true is not the bus 16 or 1."""
    given = typed(given, list, label)
    for i in range(max(len(given), len(derived))):
        have, want = (json.dumps(x[i]) if i < len(x) else None for x in (given, derived))
        if have != want:
            raise ConfigError(f"{label} entry {i} is {have or 'missing'}, where the zone "
                              f"gives {want or 'no entry'}")


def _zone_from_file(case, path: str):
    """The zone of a zone file's interior and boundary, with its focal buses,
    which lie in the interior. Every other field the file gives is what the
    zone derives: its inert boundary and line lists are the zone's."""
    doc = _read_json(path, "zone")
    try:
        interior, boundary = (
            _bus_list(member(doc, key, list, "zone"), f"zone field '{key}'")
            for key in ("interior", "boundary")
        )
        known(doc, _ZONE_FIELDS, "zone")
        zone = validate_zone(case, set(interior), set(boundary))
        derived = zone.to_dict()
        for key in _ZONE_FIELDS[3:]:
            if key in doc:
                _same_entries(doc[key], derived[key], f"zone field '{key}'")
        focal = member(doc, "focal", list, "zone") if "focal" in doc else []
        for i, bus in enumerate(_bus_list(focal, "zone field 'focal'")):
            if bus not in zone.interior:
                raise ConfigError(f"zone field 'focal' entry {i} is {bus}, not an interior bus")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return replace(zone, focal=frozenset(focal))


def _attack(case, adm, base, zone, config: ScenarioConfig, mode: str) -> AttackVector:
    spec = AttackSpec(zone=zone, targets=config.targets, mode=mode, params=config.solver)
    return design_attack(case, base, spec, adm)


def _measure(case, adm, base, config: ScenarioConfig):
    """Noisy measurements of base and their estimate."""
    ms = generate_measurements(case, base, sigmas=config.sigmas, seed=config.noise_seed, adm=adm)
    return ms, wls_estimate(ms, case, adm, **asdict(config.estimator))


def _assess(case, adm, zone, av: AttackVector, ms_clean, clean_est, config: ScenarioConfig):
    """The attacked measurements, their estimate and the impact report, whose
    mode and targets come from av, as they do when av is read from a file."""
    ms_attacked = apply_attack(ms_clean, av)
    attacked_est = wls_estimate(ms_attacked, case, adm, **asdict(config.estimator))
    report = compute_impact(
        case, av, clean_est, attacked_est, zone,
        policy=config.bdd,
        metadata={
            "mode": av.solver_info["mode"],
            "noise_seed": config.noise_seed,
            "sigmas": dict(sorted(config.sigmas.items())),
            "bdd": asdict(config.bdd),
        },
        adm=adm,
    )
    return ms_attacked, attacked_est, report


def _render(report, base_doc, formats, write, suffix: str = "") -> None:
    for fmt in formats:
        for name, content in render_report(report, fmt, base_doc).items():
            stem, ext = name.rsplit(".", 1)
            write(f"{stem}{suffix}.{ext}", content)


def run_scenario(config: ScenarioConfig, out_dir: str) -> dict:
    """Execute the full pipeline and write every stage artifact to out_dir,
    all of them once the last stage succeeds: a failed run writes no file."""
    artifacts: dict[str, str] = {}
    write = artifacts.__setitem__

    case, adm = _network(config.case_path)
    _check_targets(adm, config.targets, "target")
    zone = _zone(case, config)
    log.info("solving base power flow for %s", config.case_path)
    base = solve_power_flow(case, adm, **asdict(config.pf))
    base_doc = base_document(case, base, adm)
    write("state.json", _to_json(base))
    write("base.json", to_json(base_doc))
    write("zone.json", _to_json(zone))

    ms_clean, clean_est = _measure(case, adm, base, config)
    write("measurements_clean.csv", ms_clean.to_csv())
    write("estimation_clean.json", _estimation_json(clean_est, config.bdd))

    summary: dict = {"config": config.echo(), "modes": {}}
    for mode in config.modes:
        log.info("designing %s attack", mode)
        av = _attack(case, adm, base, zone, config, mode)
        write(f"attack_{mode}.json", av.to_json())
        ms_attacked, attacked_est, report = _assess(
            case, adm, zone, av, ms_clean, clean_est, config
        )
        write(f"measurements_{mode}.csv", ms_attacked.to_csv())
        write(f"estimation_{mode}.json", _estimation_json(attacked_est, config.bdd))
        _render(report, base_doc, config.formats, write, suffix=f"_{mode}")

        # from the states: the report holds the angle differences in degrees
        x, x_base = av.x_attacked, av.x_base
        deviation = sum(
            (x.magnitude(b) - x_base.magnitude(b)) ** 2 + (x.angle(b) - x_base.angle(b)) ** 2
            for b in sorted(zone.interior)
        ) ** 0.5
        residuals = report["residuals"]
        summary["modes"][mode] = {
            "deviation_norm": deviation,
            "targets": report["targets"],
            "j_clean": residuals["j_clean"],
            "j_attacked": residuals["j_attacked"],
            "j_change": residuals["j_change"],
            "estimate_shift_norm": residuals["estimate_shift_norm"],
            "bdd_clean": "pass" if residuals["clean_passed"] else "fail",
            "bdd_attacked": "pass" if residuals["attacked_passed"] else "fail",
            "solver_info": av.solver_info,
        }

    write("summary.json", to_json(summary, sort_keys=True))
    _write(out_dir, artifacts)
    return summary


def run_scenario_sweep(config: ScenarioConfig, out_dir: str, n_seeds: int) -> dict:
    """Independent runs with both seeds offset per run, merged in seed order."""
    runs = []
    for k in range(n_seeds):
        solver = replace(config.solver, seed=config.solver.seed + k)
        cfg = replace(config, noise_seed=config.noise_seed + k, solver=solver)
        summary = run_scenario(cfg, os.path.join(out_dir, f"seed_{k:03d}"))
        runs.append({"index": k, "noise_seed": cfg.noise_seed,
                     "arbitrary_seed": cfg.solver.seed, "modes": summary["modes"]})
    merged = {"config": config.echo(), "n_seeds": n_seeds, "runs": runs}
    _write(out_dir, {"summary.json": to_json(merged, sort_keys=True)})
    return merged


def _cmd_pf(args: argparse.Namespace) -> int:
    doc = {"pf": _flags(args, "tol", "max_iter")}
    config = _read_config(ScenarioConfig(args.case), doc, _flag)
    case, adm = _network(config.case_path)
    _emit(_to_json(solve_power_flow(case, adm, **asdict(config.pf))), args.out)
    return EXIT_OK


def _cmd_zone(args: argparse.Namespace) -> int:
    doc = {"zone": {k: v for k in ("focal", "interior", "boundary") if (v := getattr(args, k))}}
    config = _read_config(ScenarioConfig(args.case), doc, _flag)
    case, _ = _network(config.case_path)
    _emit(_to_json(_zone(case, config)), args.out)
    return EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    from_bus, _, to_bus = args.target.partition(":")
    doc = {
        "targets": [{"from": from_bus, "to": to_bus, "lambda": args.factor}],
        "seeds": {"arbitrary_start": args.seed},
    }
    config = _read_config(ScenarioConfig(args.case), doc, _flag)
    case, adm = _network(config.case_path)
    _check_targets(adm, config.targets, "--target")
    zone = _zone_from_file(case, args.zone)
    if args.state:
        doc = _read_json(args.state, "state")
        try:
            base = _finite_state(adm, _state_of_case(case, StateVector.from_dict(doc)), "state")
        except ConfigError as exc:
            raise ConfigError(f"{args.state}: {exc}") from None
    else:
        base = solve_power_flow(case, adm, **asdict(config.pf))
    _emit(_attack(case, adm, base, zone, config, args.mode).to_json(), args.out)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    doc = {"estimator": _flags(args, "tol", "max_iter"),
           "bdd": _flags(args, "confidence", "lnr_threshold")}
    config = _read_config(ScenarioConfig(args.case), doc, _flag)
    case, adm = _network(config.case_path)
    text = read_text(args.measurements, "measurement CSV")
    try:
        ms = measurement_set_from_csv(text, adm.full_layout)
    except EstimationError as exc:
        raise ConfigError(f"{args.measurements}: {exc}") from None
    try:
        res = wls_estimate(ms, case, adm, **asdict(config.estimator))
    except MeasurementError as exc:
        raise ConfigError(f"{args.measurements}: {exc}") from None
    _emit(_estimation_json(res, config.bdd), args.out)
    return EXIT_OK


def _cmd_impact(args: argparse.Namespace) -> int:
    doc = {
        "sigmas": dict(item.partition("=")[::2] for item in args.sigma or []),
        "seeds": {} if args.noise_seed is None else {"noise": args.noise_seed},
        "bdd": _flags(args, "confidence", "lnr_threshold"),
    }
    if args.formats is not None:
        doc["output"] = {"formats": [f.strip() for f in args.formats.split(",") if f.strip()]}
    config = _read_config(ScenarioConfig(args.case), doc, _flag)
    case, adm = _network(config.case_path)
    zone = _zone_from_file(case, args.zone)
    text = read_text(args.attack, "attack")
    try:
        av = AttackVector.from_json(text)
        for key in ("x_base", "x_attacked"):
            _finite_state(adm, _state_of_case(case, getattr(av, key)), f"attack {key}")
        check_moves_only_interior(av.x_base, av.x_attacked, zone, ConfigError)
        mode = member(av.solver_info, "mode", str, "attack solver_info")
        if mode not in _MODES:
            raise ConfigError(
                f"attack solver_info field 'mode' must be optimal or arbitrary, got {mode!r}"
            )
        targets = [
            OverloadTarget(t["from"], t["to"], t["factor"])
            for t in av.solver_info.get("targets", [])
        ]
        _check_targets(adm, targets, "attack solver_info 'targets'")
        unknown = [i for i in av.deltas if i not in adm.full_layout.position]
        if unknown:
            raise ConfigError(f"attack 'deltas': the case has no measurement id {unknown[0]!r}")
    except ConfigError as exc:
        raise ConfigError(f"{args.attack}: {exc}") from None
    try:
        ms_clean, clean_est = _measure(case, adm, av.x_base, config)
        report = _assess(case, adm, zone, av, ms_clean, clean_est, config)[2]
    except MeasurementError as exc:
        raise ConfigError(f"{args.attack}: {exc}") from None
    # the report reads the falsified injections off the attacked state, as the
    # design that wrote the file did, so a file that differs was edited
    shown = {row["bus"]: (row["p_falsified"], row["q_falsified"])
             for row in report["buses"] if row["p_falsified"] is not None}
    for bus in sorted(shown.keys() | av.falsified_injections.keys()):
        given, wanted = (list(pqs.get(bus) or ()) for pqs in (av.falsified_injections, shown))
        if given != wanted:
            raise ConfigError(f"{args.attack}: attack falsified_injections '{bus}' is "
                              f"{given or 'missing'}, where the attacked state gives "
                              f"{wanted or 'no zone bus'}")
    # the base document goes beside the report files; stdout takes the report alone
    base_doc = base_document(case, av.x_base, adm)
    if args.out_dir:
        _write(args.out_dir, {"base.json": to_json(base_doc)})
    _render(report, base_doc, config.formats,
            lambda name, content: _emit(content, args.out_dir and os.path.join(args.out_dir, name)))
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    config = load_scenario_config(args.config)
    out_dir = args.out or "acfdi_out"
    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be >= 1")
        run_scenario_sweep(config, out_dir, args.seeds)
    else:
        run_scenario(config, out_dir)
    print(f"scenario complete: artifacts in {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The `acfdi` parser. A flag left unset takes the scenario default."""
    ap = argparse.ArgumentParser(
        prog="acfdi",
        description="Design AC false-data-injection attacks, check detectability, report impact.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    pf = sub.add_parser("pf", help="solve the base AC power flow")
    pf.add_argument("case", help="MATPOWER .m / model .json path, or 'case39'")
    pf.add_argument("--tol", type=float)
    pf.add_argument("--max-iter", type=int)
    pf.add_argument("--out")
    pf.set_defaults(func=_cmd_pf)

    zn = sub.add_parser("zone", help="build or validate an attack zone")
    zn.add_argument("case")
    zn.add_argument("--focal", help="comma-separated focal bus ids")
    zn.add_argument("--interior", help="explicit interior bus ids")
    zn.add_argument("--boundary", help="explicit boundary bus ids")
    zn.add_argument("--out")
    zn.set_defaults(func=_cmd_zone)

    at = sub.add_parser("attack", help="design an attack vector for a zone")
    at.add_argument("case")
    at.add_argument("zone", help="zone JSON artifact")
    at.add_argument("--target", required=True, help="target branch as FROM:TO")
    at.add_argument("--lambda", dest="factor", type=float, default=1.3,
                    help="required overload factor on the target's active flow")
    at.add_argument("--mode", choices=_MODES, default="optimal")
    at.add_argument("--seed", type=int, default=0, help="arbitrary-mode start seed")
    at.add_argument("--state", help="base state JSON (defaults to solving the case)")
    at.add_argument("--out")
    at.set_defaults(func=_cmd_attack)

    es = sub.add_parser("estimate", help="run WLS estimation on a measurement CSV")
    es.add_argument("case")
    es.add_argument("measurements")
    es.add_argument("--tol", type=float)
    es.add_argument("--max-iter", type=int)
    es.add_argument("--confidence", type=float)
    es.add_argument("--lnr-threshold", type=float)
    es.add_argument("--out")
    es.set_defaults(func=_cmd_estimate)

    im = sub.add_parser("impact", help="render impact reports for an attack vector")
    im.add_argument("case")
    im.add_argument("zone")
    im.add_argument("attack")
    im.add_argument("--noise-seed", type=int)
    im.add_argument("--sigma", action="append", metavar="KIND=VALUE")
    im.add_argument("--confidence", type=float)
    im.add_argument("--lnr-threshold", type=float)
    im.add_argument("--formats", help="comma-separated subset of json,csv,svg")
    im.add_argument("--out-dir")
    im.set_defaults(func=_cmd_impact)

    sc = sub.add_parser("scenario", help="run a full scenario from a JSON config")
    sc_sub = sc.add_subparsers(dest="scenario_cmd", required=True)
    run = sc_sub.add_parser("run")
    run.add_argument("config")
    run.add_argument("--seeds", type=int, default=None,
                     help="sweep N seed offsets as independent runs")
    run.add_argument("--out", help="output directory (default acfdi_out)")
    run.set_defaults(func=_cmd_scenario)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that `main` reads: built once per process, since parsing
    leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CaseError, ZoneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AttackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (EstimationError, PowerFlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
