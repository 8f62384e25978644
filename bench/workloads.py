"""The three benchmark workloads: set-up, one closed-loop item, and its checks.

An item's timed part is only the calls into the package; writing its input,
checking its output and deleting its artifacts happen outside the timer.
Every input is derived from the workload seed and the item number k.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import acfdi.cli
from acfdi import build_zone, case_to_json, full_layout, load_bundled_case39
from acfdi import estimation, network, powerflow

import digests
from grids import perturb_loads, tiled_case39

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SHIPPED_SCENARIO = os.path.join(ROOT, "scenarios", "case39_overload.json")

TILE4_FOCAL = [18, 26, 27, 28]
SNAPSHOT_TILES = 8
ZERO_INJECTION_TOL = 1e-6
SNAPSHOT_VM_TOL = 0.01  # p.u., estimate vs power-flow truth
SNAPSHOT_VA_TOL = 0.01  # rad


@dataclass
class Outcome:
    seconds: float
    error: str | None = None


def grid_info(case) -> dict:
    """Sizes recorded in the report; also checks power flow and the copy-0 zone."""
    adm = network.build_admittance(case)
    sol = powerflow.newton_power_flow(case, adm)
    build_zone(case, set(TILE4_FOCAL))
    return {
        "n_bus": case.n_bus,
        "n_branch": len(adm.branches),
        "m_measurements": len(full_layout(case)),
        "ybus_nnz": int(np.count_nonzero(adm.ybus)),
        "base_nr_iterations": sol.iterations,
    }


def load_traced(case_arg: str) -> None:
    """Load the workload's case and build its admittance model through the
    module attributes, so that a traced run records both."""
    case = network.load_bundled_case39() if case_arg == "case39" else network.load_case(case_arg)
    network.build_admittance(case)


def zero_injection_interior(case, zone_doc: dict) -> list[int]:
    return [b for b in zone_doc["interior"] if not case.has_injection(b)]


def check_scenario(rc: int, out: str, case) -> str | None:
    """Reason the scenario item failed, or None when every check holds."""
    if rc != 0:
        return f"exit code {rc}"
    summary_path = os.path.join(out, "summary.json")
    if not os.path.exists(summary_path):
        return "summary.json missing"
    with open(summary_path, encoding="utf-8") as f:
        summary = json.load(f)
    with open(os.path.join(out, "zone.json"), encoding="utf-8") as f:
        zero_inj = zero_injection_interior(case, json.load(f))
    for mode, row in summary["modes"].items():
        for t in row["targets"]:
            attained = t["factor_attained"]
            if attained is None or attained < t["factor_required"]:
                return f"{mode}: target {t['from']}-{t['to']} attained {attained}"
        if row["bdd_attacked"] != "pass":
            return f"{mode}: chi-square rejects the attacked zero-noise estimate"
        with open(os.path.join(out, f"attack_{mode}.json"), encoding="utf-8") as f:
            falsified = json.load(f)["falsified_injections"]
        with open(os.path.join(out, f"measurements_{mode}.csv"), encoding="utf-8") as f:
            values = {r["id"]: float(r["value"]) for r in csv.DictReader(f)}
        for b in zero_inj:
            shown = max(
                *(abs(x) for x in falsified[str(b)]),
                abs(values[f"Pinj:{b}"]),
                abs(values[f"Qinj:{b}"]),
            )
            if shown > ZERO_INJECTION_TOL:
                return f"{mode}: zero-injection bus {b} shows injection {shown:.3e}"
    return None


def directory_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class ScenarioWorkload:
    """One item is `acfdi scenario run` on the shipped study with seeds offset by seed + k."""

    def __init__(self, seed: int, workdir: str, tiles: int):
        self.seed = seed
        self.workdir = workdir
        self.tiles = tiles
        with open(SHIPPED_SCENARIO, encoding="utf-8") as f:
            self.base_config = json.load(f)
        self.case_arg = "case39"
        self.case = None
        self.reference = digests.load_reference() if tiles == 1 else {}
        self.digest_compared = 0
        self.digest_matched = 0

    def prepare(self) -> dict:
        if self.tiles == 1:
            self.case = load_bundled_case39()
        else:
            self.case = tiled_case39(self.tiles)
            self.case_arg = os.path.join(self.workdir, f"case39x{self.tiles}.json")
            with open(self.case_arg, "w", encoding="utf-8") as f:
                f.write(case_to_json(self.case))
        return grid_info(self.case)

    def config(self, k: int) -> dict:
        cfg = copy.deepcopy(self.base_config)
        off = self.seed + k
        cfg["seeds"] = {
            "noise": cfg["seeds"]["noise"] + off,
            "arbitrary_start": cfg["seeds"]["arbitrary_start"] + off,
        }
        if self.tiles > 1:
            cfg["case"] = self.case_arg
            cfg["zone"] = {"focal": TILE4_FOCAL}
        return cfg

    def item(self, k: int, tracer=None) -> Outcome:
        cfg_path = os.path.join(self.workdir, f"cfg_{k}.json")
        out = os.path.join(self.workdir, f"item_{k}")
        with open(cfg_path, "w", encoding="utf-8") as f:
            json.dump(self.config(k), f)
        argv = ["scenario", "run", cfg_path, "--out", out]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                if tracer is None:
                    rc = acfdi.cli.main(argv)
                else:
                    with tracer.span("item"), tracer.span("cli.main"):
                        rc = acfdi.cli.main(argv)
                seconds = time.perf_counter() - t0
            error = check_scenario(rc, out, self.case)
            if error is None and tracer is not None:
                tracer.count("cli.artifact_bytes", directory_bytes(out))
            if error is None and self.reference:
                expected = self.reference.get(str(self.seed + k))
                if expected is not None:
                    self.digest_compared += 1
                    self.digest_matched += digests.artifact_digest(out) == expected
            return Outcome(seconds, error)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            os.remove(cfg_path)

    def report(self) -> dict:
        if self.tiles != 1:
            return {}
        return {
            "artifact_digests": {
                "compared": self.digest_compared,
                "matched": self.digest_matched,
                "note": "informational: reference digests cover seed offsets "
                f"0..{len(self.reference) - 1}",
            }
        }


class SnapshotWorkload:
    """One item estimates the state of a load-perturbed copy of tiled case39."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.case = None
        self.case_arg = ""

    def prepare(self) -> dict:
        self.case = tiled_case39(SNAPSHOT_TILES)
        self.case_arg = os.path.join(self.workdir, f"case39x{SNAPSHOT_TILES}.json")
        with open(self.case_arg, "w", encoding="utf-8") as f:
            f.write(case_to_json(self.case))
        return grid_info(self.case)

    def snapshot(self, k: int):
        return perturb_loads(self.case, np.random.default_rng([self.seed, k]))

    def item(self, k: int, tracer=None) -> Outcome:
        case = self.snapshot(k)
        t0 = time.perf_counter()
        try:
            with tracer.span("item") if tracer is not None else contextlib.nullcontext():
                adm = network.build_admittance(case)
                truth = powerflow.newton_power_flow(case, adm).state
                ms = estimation.generate_measurements(case, truth, seed=self.seed + k, adm=adm)
                est = estimation.wls_estimate(ms, case, adm)
                estimation.chi_square_test(est)
                estimation.largest_normalized_residual(est)
        except (estimation.EstimationError, powerflow.PowerFlowError) as exc:
            return Outcome(time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        if not est.converged:
            return Outcome(seconds, "WLS did not converge")
        dvm = float(np.max(np.abs(est.x_hat.vm - truth.vm)))
        dva = float(np.max(np.abs(est.x_hat.va - truth.va)))
        if dvm > SNAPSHOT_VM_TOL or dva > SNAPSHOT_VA_TOL:
            return Outcome(seconds, f"estimate off the truth: |dvm| {dvm:.3e}, |dva| {dva:.3e}")
        return Outcome(seconds)

    def report(self) -> dict:
        return {}


WORKLOADS = {
    "case39_sweep": lambda seed, workdir: ScenarioWorkload(seed, workdir, tiles=1),
    "tile4_scenario": lambda seed, workdir: ScenarioWorkload(seed, workdir, tiles=4),
    "tile8_snapshots": lambda seed, workdir: SnapshotWorkload(seed, workdir),
}
