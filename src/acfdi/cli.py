"""Command-line pipeline: power flow, zone, attack design, estimation, impact.

Every stage reads and writes the same serialized artifacts the scenario
runner uses, so individual subcommands reproduce scenario stages byte for
byte. Exit codes: 0 success, 2 configuration error, 3 infeasible attack
design, 4 estimator failure, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

from .attacks import (
    AttackError,
    AttackSpec,
    AttackVector,
    OverloadTarget,
    SolverParams,
    apply_attack,
    design_attack,
)
from .estimation import (
    DEFAULT_SIGMAS,
    BddPolicy,
    EstimationError,
    MeasurementSet,
    chi_square_test,
    generate_measurements,
    measurement_set_from_csv,
    wls_estimate,
)
from .impact import compute_impact, render_report
from .network import CaseError, NetworkCase, build_admittance, load_bundled_case39, load_case
from .powerflow import PowerFlowError, StateVector, solve_power_flow
from .zones import AttackZone, ZoneError, build_zone, validate_zone

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ESTIMATOR = 4

log = logging.getLogger("acfdi")


class ConfigError(ValueError):
    pass


def _setup_logging() -> None:
    level = os.environ.get("ACFDI_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _load_case_arg(path: str) -> NetworkCase:
    if path == "case39":
        return load_bundled_case39()
    if not os.path.exists(path):
        raise ConfigError(f"case file not found: {path}")
    return load_case(path)


def _write(path: str, content: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def _emit(content: str, out: str | None) -> None:
    if out:
        _write(out, content)
    else:
        sys.stdout.write(content)


def _state_json(state: StateVector) -> str:
    return json.dumps(state.to_dict(), indent=2)


def _zone_json(zone: AttackZone) -> str:
    return json.dumps(zone.to_dict(), indent=2)


def _estimation_json(res, policy: BddPolicy) -> str:
    verdict = chi_square_test(res, policy)
    doc = json.loads(res.to_json())
    doc["bdd"] = {
        "passed": verdict.passed,
        "statistic": verdict.statistic,
        "threshold": verdict.threshold,
    }
    return json.dumps(doc, indent=2)


def _impact_metadata(
    mode: str, sigmas: dict[str, float], noise_seed: int, bdd: BddPolicy
) -> dict:
    """Stage-reproducible report metadata; identical whether the report comes
    from `scenario run` or from the standalone `impact` subcommand."""
    return {
        "mode": mode,
        "noise_seed": noise_seed,
        "sigmas": dict(sorted(sigmas.items())),
        "bdd": {"confidence": bdd.confidence, "lnr_threshold": bdd.lnr_threshold},
    }


def _bus_list(value, name: str, path: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(b, int) and not isinstance(b, bool) for b in value
    ):
        raise ConfigError(f"{path}: zone field '{name}' must be a list of integer bus ids")
    return value


def _zone_from_file(case: NetworkCase, path: str) -> AttackZone:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        doc = {}
    interior = _bus_list(doc.get("interior"), "interior", path)
    boundary = _bus_list(doc.get("boundary"), "boundary", path)
    return validate_zone(case, set(interior), set(boundary))


def _section(doc: dict, name: str, path: str) -> dict:
    """An optional object-valued config field; absent reads as empty."""
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: '{name}' must be an object")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of bus ids, got {text!r}") from None


@dataclass
class ScenarioConfig:
    case_path: str
    zone_focal: list[int] | None
    zone_interior: list[int] | None
    zone_boundary: list[int] | None
    targets: list[OverloadTarget]
    modes: list[str]
    sigmas: dict[str, float]
    noise_seed: int
    arbitrary_seed: int
    bdd: BddPolicy
    solver: SolverParams
    pf_tol: float
    pf_max_iter: int
    est_tol: float
    est_max_iter: int
    formats: list[str]

    def echo(self) -> dict:
        return {
            "case": self.case_path,
            "zone": (
                {"focal": self.zone_focal}
                if self.zone_focal is not None
                else {"interior": self.zone_interior, "boundary": self.zone_boundary}
            ),
            "targets": [
                {"from": t.from_bus, "to": t.to_bus, "lambda": t.factor} for t in self.targets
            ],
            "modes": self.modes,
            "sigmas": self.sigmas,
            "seeds": {"noise": self.noise_seed, "arbitrary_start": self.arbitrary_seed},
            "bdd": {"confidence": self.bdd.confidence, "lnr_threshold": self.bdd.lnr_threshold},
            "solver": {
                "tol_eq": self.solver.tol_eq,
                "max_outer": self.solver.max_outer,
                "max_inner": self.solver.max_inner,
                "penalty0": self.solver.penalty0,
                "penalty_growth": self.solver.penalty_growth,
                "ang_perturbation": self.solver.ang_perturbation,
                "mag_perturbation": self.solver.mag_perturbation,
                "vm_relax": self.solver.vm_relax,
                "overload_margin": self.solver.overload_margin,
            },
            "pf": {"tol": self.pf_tol, "max_iter": self.pf_max_iter},
            "estimator": {"tol": self.est_tol, "max_iter": self.est_max_iter},
            "output": {"formats": self.formats},
        }


def load_scenario_config(path: str) -> ScenarioConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None

    if not isinstance(doc, dict) or any(k not in doc for k in ("case", "zone", "targets")):
        raise ConfigError(f"{path}: config requires 'case', 'zone', and 'targets'")

    zone = _section(doc, "zone", path)
    focal, interior, boundary = (
        None if zone.get(name) is None else _bus_list(zone[name], name, path)
        for name in ("focal", "interior", "boundary")
    )
    if focal is None and (interior is None or boundary is None):
        raise ConfigError(f"{path}: zone needs either 'focal' or both 'interior' and 'boundary'")

    if not isinstance(doc["targets"], list):
        raise ConfigError(f"{path}: 'targets' must be a list")
    targets = []
    for i, t in enumerate(doc["targets"]):
        try:
            from_bus, to_bus = int(t["from"]), int(t["to"])
            factor = float(t.get("lambda", t.get("factor")))
        except (KeyError, TypeError, ValueError):
            raise ConfigError(
                f"{path}: targets[{i}] needs integer 'from' and 'to' bus ids and a 'lambda'"
            ) from None
        if factor <= 0:
            raise ConfigError(f"{path}: targets[{i}] needs a positive 'lambda'")
        targets.append(OverloadTarget(from_bus, to_bus, factor))
    if not targets:
        raise ConfigError("at least one overload target is required")

    mode = doc.get("mode", "both")
    if mode not in ("optimal", "arbitrary", "both"):
        raise ConfigError(f"mode must be optimal, arbitrary, or both, got {mode!r}")
    modes = ["optimal", "arbitrary"] if mode == "both" else [mode]

    sigmas = dict(DEFAULT_SIGMAS)
    for k, v in _section(doc, "sigmas", path).items():
        if k not in sigmas:
            raise ConfigError(f"unknown measurement kind in sigmas: {k!r}")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            raise ConfigError(f"{path}: sigmas '{k}' must be a number >= 0")
        sigmas[k] = float(v)

    seeds = _section(doc, "seeds", path)
    try:
        noise_seed = int(seeds.get("noise", 0))
        arbitrary_seed = int(seeds.get("arbitrary_start", 1))
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: seeds 'noise' and 'arbitrary_start' must be integers") from None

    bdd_doc = _section(doc, "bdd", path)
    try:
        bdd = BddPolicy(
            confidence=float(bdd_doc.get("confidence", 0.95)),
            lnr_threshold=float(bdd_doc.get("lnr_threshold", 3.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    solver_doc = _section(doc, "solver", path)
    solver = SolverParams(
        tol_eq=float(solver_doc.get("tol_eq", 1e-6)),
        max_outer=int(solver_doc.get("max_outer", 20)),
        max_inner=int(solver_doc.get("max_inner", 60)),
        penalty0=float(solver_doc.get("penalty0", 10.0)),
        penalty_growth=float(solver_doc.get("penalty_growth", 10.0)),
        seed=arbitrary_seed,
        ang_perturbation=float(solver_doc.get("ang_perturbation", 0.35)),
        mag_perturbation=float(solver_doc.get("mag_perturbation", 0.05)),
        vm_relax=float(solver_doc.get("vm_relax", 0.1)),
        overload_margin=float(solver_doc.get("overload_margin", 1e-4)),
    )

    pf_doc = _section(doc, "pf", path)
    est_doc = _section(doc, "estimator", path)
    formats = _section(doc, "output", path).get("formats", ["json", "csv", "svg"])
    if not isinstance(formats, list):
        raise ConfigError(f"{path}: output 'formats' must be a list of json, csv, svg")
    for f_ in formats:
        if f_ not in ("json", "csv", "svg"):
            raise ConfigError(f"unknown output format {f_!r}")

    return ScenarioConfig(
        case_path=doc["case"],
        zone_focal=focal,
        zone_interior=interior,
        zone_boundary=boundary,
        targets=targets,
        modes=modes,
        sigmas=sigmas,
        noise_seed=noise_seed,
        arbitrary_seed=arbitrary_seed,
        bdd=bdd,
        solver=solver,
        pf_tol=float(pf_doc.get("tol", 1e-8)),
        pf_max_iter=int(pf_doc.get("max_iter", 20)),
        est_tol=float(est_doc.get("tol", 1e-10)),
        est_max_iter=int(est_doc.get("max_iter", 50)),
        formats=list(formats),
    )


def run_scenario(config: ScenarioConfig, out_dir: str) -> dict:
    """Execute the full pipeline and write every stage artifact to out_dir."""
    case = _load_case_arg(config.case_path)
    adm = build_admittance(case)

    log.info("solving base power flow for %s", config.case_path)
    base = solve_power_flow(case, adm, tol=config.pf_tol, max_iter=config.pf_max_iter)
    _write(os.path.join(out_dir, "state.json"), _state_json(base))

    if config.zone_focal is not None:
        zone = build_zone(case, set(config.zone_focal))
    else:
        zone = validate_zone(case, set(config.zone_interior), set(config.zone_boundary))
    _write(os.path.join(out_dir, "zone.json"), _zone_json(zone))

    pairs = {(br.from_bus, br.to_bus) for br in case.in_service_branches()}
    for t in config.targets:
        if (t.from_bus, t.to_bus) not in pairs:
            raise ConfigError(f"target references no in-service branch {t.from_bus}-{t.to_bus}")

    ms_clean = generate_measurements(
        case, base, sigmas=config.sigmas, seed=config.noise_seed, adm=adm
    )
    _write(os.path.join(out_dir, "measurements_clean.csv"), ms_clean.to_csv())
    clean_est = wls_estimate(
        ms_clean, case, adm, tol=config.est_tol, max_iter=config.est_max_iter
    )
    _write(os.path.join(out_dir, "estimation_clean.json"), _estimation_json(clean_est, config.bdd))

    summary: dict = {"config": config.echo(), "modes": {}}
    for mode in config.modes:
        log.info("designing %s attack", mode)
        spec = AttackSpec(zone=zone, targets=tuple(config.targets), mode=mode, params=config.solver)
        av = design_attack(case, base, spec, adm)
        _write(os.path.join(out_dir, f"attack_{mode}.json"), av.to_json())

        ms_attacked = apply_attack(ms_clean, av)
        _write(os.path.join(out_dir, f"measurements_{mode}.csv"), ms_attacked.to_csv())
        attacked_est = wls_estimate(
            ms_attacked, case, adm, tol=config.est_tol, max_iter=config.est_max_iter
        )
        _write(
            os.path.join(out_dir, f"estimation_{mode}.json"),
            _estimation_json(attacked_est, config.bdd),
        )

        report = compute_impact(
            case, base, av, clean_est, attacked_est, zone,
            policy=config.bdd,
            targets=tuple((t.from_bus, t.to_bus, t.factor) for t in config.targets),
            metadata=_impact_metadata(mode, config.sigmas, config.noise_seed, config.bdd),
            adm=adm,
        )
        for fmt in config.formats:
            for name, content in render_report(report, fmt).items():
                stem, ext = name.rsplit(".", 1)
                _write(os.path.join(out_dir, f"{stem}_{mode}.{ext}"), content)

        deviation = sum(
            (av.x_attacked.magnitude(b) - base.magnitude(b)) ** 2
            + (av.x_attacked.angle(b) - base.angle(b)) ** 2
            for b in sorted(zone.interior)
        ) ** 0.5
        summary["modes"][mode] = {
            "deviation_norm": deviation,
            "targets": list(report.target_summary),
            "j_clean": report.residuals.j_clean,
            "j_attacked": report.residuals.j_attacked,
            "j_change": report.residuals.j_change,
            "estimate_shift_norm": report.residuals.estimate_shift_norm,
            "bdd_clean": "pass" if report.residuals.clean_passed else "fail",
            "bdd_attacked": "pass" if report.residuals.attacked_passed else "fail",
            "solver_info": av.solver_info,
        }

    _write(os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2, sort_keys=True))
    return summary


def run_scenario_sweep(config: ScenarioConfig, out_dir: str, n_seeds: int) -> dict:
    """Independent runs with both seeds offset per run, merged in seed order."""
    runs = []
    for k in range(n_seeds):
        cfg = ScenarioConfig(**{**config.__dict__})
        cfg.noise_seed = config.noise_seed + k
        cfg.arbitrary_seed = config.arbitrary_seed + k
        cfg.solver = SolverParams(
            **{**config.solver.__dict__, "seed": cfg.arbitrary_seed}
        )
        sub = os.path.join(out_dir, f"seed_{k:03d}")
        summary = run_scenario(cfg, sub)
        runs.append(
            {
                "index": k,
                "noise_seed": cfg.noise_seed,
                "arbitrary_seed": cfg.arbitrary_seed,
                "modes": summary["modes"],
            }
        )
    merged = {"config": config.echo(), "n_seeds": n_seeds, "runs": runs}
    _write(os.path.join(out_dir, "summary.json"), json.dumps(merged, indent=2, sort_keys=True))
    return merged


def _cmd_pf(args: argparse.Namespace) -> int:
    case = _load_case_arg(args.case)
    state = solve_power_flow(case, tol=args.tol, max_iter=args.max_iter)
    _emit(_state_json(state), args.out)
    return EXIT_OK


def _cmd_zone(args: argparse.Namespace) -> int:
    case = _load_case_arg(args.case)
    if args.focal:
        zone = build_zone(case, set(_parse_int_list(args.focal)))
    elif args.interior and args.boundary:
        zone = validate_zone(
            case, set(_parse_int_list(args.interior)), set(_parse_int_list(args.boundary))
        )
    else:
        raise ConfigError("zone needs --focal or both --interior and --boundary")
    _emit(_zone_json(zone), args.out)
    return EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    case = _load_case_arg(args.case)
    adm = build_admittance(case)
    zone = _zone_from_file(case, args.zone)
    try:
        f, t = args.target.split(":")
        target = OverloadTarget(int(f), int(t), args.factor)
    except ValueError:
        raise ConfigError(f"--target must look like FROM:TO, got {args.target!r}") from None

    if args.state:
        with open(args.state, encoding="utf-8") as fh:
            base = StateVector.from_dict(json.load(fh))
    else:
        base = solve_power_flow(case, adm)
    params = SolverParams(seed=args.seed)
    spec = AttackSpec(zone=zone, targets=(target,), mode=args.mode, params=params)
    av = design_attack(case, base, spec, adm)
    _emit(av.to_json(), args.out)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    case = _load_case_arg(args.case)
    with open(args.measurements, encoding="utf-8") as f:
        text = f.read()
    try:
        ms = measurement_set_from_csv(text, case)
    except EstimationError as exc:
        raise ConfigError(f"{args.measurements}: {exc}") from None
    res = wls_estimate(ms, case, tol=args.tol, max_iter=args.max_iter)
    policy = BddPolicy(confidence=args.confidence, lnr_threshold=args.lnr_threshold)
    _emit(_estimation_json(res, policy), args.out)
    return EXIT_OK


def _cmd_impact(args: argparse.Namespace) -> int:
    case = _load_case_arg(args.case)
    adm = build_admittance(case)
    zone = _zone_from_file(case, args.zone)
    with open(args.attack, encoding="utf-8") as f:
        av = AttackVector.from_json(f.read())
    base = av.x_base

    sigmas = dict(DEFAULT_SIGMAS)
    for item in args.sigma or []:
        k, _, v = item.partition("=")
        if k not in sigmas:
            raise ConfigError(f"unknown measurement kind {k!r}")
        sigmas[k] = float(v)

    mode = av.solver_info.get("mode", "optimal")
    targets = tuple(
        (t["from"], t["to"], t["factor"]) for t in av.solver_info.get("targets", [])
    )
    policy = BddPolicy(confidence=args.confidence, lnr_threshold=args.lnr_threshold)

    ms_clean = generate_measurements(case, base, sigmas=sigmas, seed=args.noise_seed, adm=adm)
    clean_est = wls_estimate(ms_clean, case, adm)
    attacked_est = wls_estimate(apply_attack(ms_clean, av), case, adm)
    report = compute_impact(
        case, base, av, clean_est, attacked_est, zone,
        policy=policy,
        targets=targets,
        metadata=_impact_metadata(mode, sigmas, args.noise_seed, policy),
        adm=adm,
    )
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    for fmt in formats:
        for name, content in render_report(report, fmt).items():
            if args.out_dir:
                _write(os.path.join(args.out_dir, name), content)
            else:
                sys.stdout.write(content)
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
    ap = argparse.ArgumentParser(
        prog="acfdi",
        description="Design AC false-data-injection attacks, check detectability, report impact.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    pf = sub.add_parser("pf", help="solve the base AC power flow")
    pf.add_argument("case", help="MATPOWER .m / model .json path, or 'case39'")
    pf.add_argument("--tol", type=float, default=1e-8)
    pf.add_argument("--max-iter", type=int, default=20)
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
    at.add_argument("--mode", choices=("optimal", "arbitrary"), default="optimal")
    at.add_argument("--seed", type=int, default=0, help="arbitrary-mode start seed")
    at.add_argument("--state", help="base state JSON (defaults to solving the case)")
    at.add_argument("--out")
    at.set_defaults(func=_cmd_attack)

    es = sub.add_parser("estimate", help="run WLS estimation on a measurement CSV")
    es.add_argument("case")
    es.add_argument("measurements")
    es.add_argument("--tol", type=float, default=1e-10)
    es.add_argument("--max-iter", type=int, default=50)
    es.add_argument("--confidence", type=float, default=0.95)
    es.add_argument("--lnr-threshold", type=float, default=3.0)
    es.add_argument("--out")
    es.set_defaults(func=_cmd_estimate)

    im = sub.add_parser("impact", help="render impact reports for an attack vector")
    im.add_argument("case")
    im.add_argument("zone")
    im.add_argument("attack")
    im.add_argument("--noise-seed", type=int, default=0)
    im.add_argument("--sigma", action="append", metavar="KIND=VALUE")
    im.add_argument("--confidence", type=float, default=0.95)
    im.add_argument("--lnr-threshold", type=float, default=3.0)
    im.add_argument("--formats", default="json,csv,svg")
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


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CaseError, ZoneError, json.JSONDecodeError, FileNotFoundError) as exc:
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
