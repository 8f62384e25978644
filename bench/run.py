"""acfdi benchmark: one client, closed loop, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src, BLAS is
pinned to one thread, and each item is sent only after the previous one has
finished and been checked. With --trace 0 the run reports the end-to-end
metrics, with timings in reference seconds (see hostspeed.py); with
--trace 1 it sends every item twice in a row, untraced and then traced, for
S seconds, and reports the per-layer metrics and the tracing overhead. The last line of standard output is the result object;
the line before it is a report with the environment, every end-to-end
metric with its unit (error_rate included), and per-workload details. Both
are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PROBE = os.path.join(BENCH_DIR, "probe.py")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10

REQUIRED = (
    os.path.join(SRC, "acfdi", "__init__.py"),
    os.path.join(ROOT, "scenarios", "case39_overload.json"),
)

# per-layer metric -> unit; "ms" metrics are mean wall time per call, the
# rest are totals per item unless the name says otherwise
PER_LAYER_UNITS = {
    "network.load_case.ms": "ms",
    "network.build_admittance.ms": "ms",
    "powerflow.newton_power_flow.ms": "ms",
    "powerflow.nr_iterations": "count",
    "zones.build_zone.ms": "ms",
    "zones.validate_zone.ms": "ms",
    "nlsolver.solve_constrained.ms": "ms",
    "nlsolver.constraint_evals": "count",
    "nlsolver.accepted_steps": "count",
    "nlsolver.accept_ratio": "ratio",
    "nlsolver.outer_rounds": "count",
    "attacks.design_attack.optimal.ms": "ms",
    "attacks.design_attack.arbitrary.ms": "ms",
    "attacks.design_attack.self_ms": "ms",
    "attacks.start_draws": "count",
    "attacks.apply_attack.ms": "ms",
    "estimation.wls_estimate.ms": "ms",
    "estimation.wls_iterations": "count",
    "estimation.eval_h.calls": "count",
    "estimation.eval_jacobian.calls": "count",
    "estimation.eval_jacobian.ms": "ms",
    "estimation.generate_measurements.ms": "ms",
    "estimation.chi_square_test.ms": "ms",
    "estimation.jacobian_bytes_computed": "bytes",
    "estimation.wls_estimate.default_blas_ms": "ms",
    "impact.compute_impact.ms": "ms",
    "impact.render_report.ms": "ms",
    "impact.bytes_rendered": "bytes",
    "cli.run_scenario.self_ms": "ms",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_ms": "ms",
    "trace.uncovered_share": "ratio",
}


@dataclass
class Loop:
    """Outcome of one timed closed loop, per item k for the items that passed:
    `times` in reference seconds (see hostspeed.py) and `wall` in seconds."""

    times: dict[int, float] = field(default_factory=dict)
    wall: dict[int, float] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)
    busy: float = 0.0  # reference seconds of every item with its checks
    elapsed: float = 0.0  # wall seconds of the loop

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.failures)

    def record(self, k: int, outcome, scale: float = 1.0) -> None:
        """A failed item is counted but its time is left out of the timings."""
        if outcome.error is None:
            self.times[k] = outcome.seconds * scale
            self.wall[k] = outcome.seconds
        else:
            self.failures[k] = outcome.error


def run_loop(item, seconds: float, speed) -> Loop:
    """Send items k = 0, 1, ... back to back until `seconds` have passed,
    timing the host-speed kernel between consecutive items."""
    loop = Loop()
    before = speed.kernel_seconds()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outcome = item(k)
        spent = time.perf_counter() - t0
        after = speed.kernel_seconds()
        scale = speed.scale(before, after)
        loop.record(k, outcome, scale)
        loop.busy += spent * scale
        before = after
        k += 1
    loop.elapsed = time.perf_counter() - start
    return loop


def run_paired(item, tracer, seconds: float) -> tuple[Loop, Loop]:
    """Send each item k twice back to back, untraced and then traced, until
    `seconds` have passed. Pairing the two sends in time keeps machine-speed
    drift out of the tracing overhead."""
    untraced, traced = Loop(), Loop()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        untraced.record(k, item(k))
        with spans.instrument(tracer):
            tracer.item = k
            traced.record(k, item(k, tracer))
        k += 1
    untraced.elapsed = traced.elapsed = time.perf_counter() - start
    return untraced, traced


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least TAIL_BEYOND samples beyond it, never below the
    median; with fewer than 2 * TAIL_BEYOND items that floor is what holds."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def child_env(pinned: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if not pinned:
        for var in BLAS_VARS:
            env.pop(var, None)
    return env


def time_setup(case_arg: str, samples: int, speed) -> tuple[list[float], list[float]]:
    """Reference and wall seconds of fresh interpreters that import
    acfdi.cli, load the case and build its admittance model."""
    scaled, wall = [], []
    before = speed.kernel_seconds()
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, PROBE, "setup", case_arg],
            env=child_env(pinned=True), check=True, stdout=subprocess.DEVNULL,
        )
        wall.append(time.perf_counter() - t0)
        after = speed.kernel_seconds()
        scaled.append(wall[-1] * speed.scale(before, after))
        before = after
    return scaled, wall


def default_blas_wls_ms() -> float:
    done = subprocess.run(
        [sys.executable, PROBE, "wls"],
        env=child_env(pinned=False), check=True, capture_output=True, text=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment(grid: dict) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_library": blas_lib,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "grid": grid,
    }


def end_to_end(loop: Loop, setup: tuple[list[float], list[float]], speed) -> tuple[dict, dict]:
    """(metrics for the result line, every end-to-end metric for the report).

    Timings are in reference seconds; the report repeats them in wall
    seconds with the kernel times they were scaled by."""
    setup_scaled, setup_wall = setup
    times = list(loop.times.values())
    wall = list(loop.wall.values())
    tail_value, tail_pct, tail_beyond = tail(times)
    metrics = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "throughput_items_per_s": {"value": len(times) / loop.busy, "unit": "1/s"},
        "item_p50_s": {"value": statistics.median(times), "unit": "s"},
        "item_tail_s": {"value": tail_value, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    report = dict(metrics)
    report["error_rate"] = {"value": len(loop.failures) / loop.attempted, "unit": "ratio"}
    report["item_tail_s"] = dict(
        metrics["item_tail_s"], percentile=tail_pct, samples_beyond=tail_beyond, samples=len(times)
    )
    report["wall"] = {
        "setup_s": statistics.median(setup_wall),
        "throughput_items_per_s": len(wall) / loop.elapsed,
        "item_p50_s": statistics.median(wall),
        "item_tail_s": tail(wall)[0],
        "item_s": [loop.wall[k] for k in sorted(loop.wall)],
        "setup_samples_s": setup_wall,
    }
    report["host_kernel_s"] = {
        "reference": speed.REFERENCE_S,
        "median": statistics.median(speed.samples),
        "min": min(speed.samples),
        "max": max(speed.samples),
    }
    return metrics, report


def per_layer(tracer, untraced: Loop, traced: Loop, default_blas_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and counters of the traced loop."""
    rows = tracer.spans
    n_items = traced.attempted
    child_sum = [0.0] * len(rows)
    for name, start, end, parent, _ in rows:
        if parent >= 0:
            child_sum[parent] += end - start

    def durations(names: tuple[str, ...], self_time: bool = False) -> list[float]:
        return [
            end - start - (child_sum[sid] if self_time else 0.0)
            for sid, (name, start, end, _, _) in enumerate(rows)
            if name in names
        ]

    def mean_ms(*names: str, self_time: bool = False) -> float:
        d = durations(names, self_time)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def calls(name: str) -> float:
        return sum(1 for s in rows if s[0] == name and s[4] >= 0) / n_items

    counts = {name: value / n_items for name, value in tracer.counts.items()}
    evals = counts.get("nlsolver.constraint_evals", 0.0)
    accepted = counts.get("nlsolver.inner_iterations", 0.0)

    items = [sid for sid, s in enumerate(rows) if s[0] == "item"]
    uncovered = [rows[i][2] - rows[i][1] - child_sum[i] for i in items]
    uncovered_share = [u / (rows[i][2] - rows[i][1]) for u, i in zip(uncovered, items)]
    common = sorted(set(untraced.times) & set(traced.times))
    overhead_s = (
        statistics.median(traced.times[k] for k in common)
        - statistics.median(untraced.times[k] for k in common)
        if common else 0.0
    )
    base_p50 = statistics.median(untraced.times[k] for k in common) if common else 0.0

    values = {
        "network.load_case.ms": mean_ms("network.load_case"),
        "network.build_admittance.ms": mean_ms("network.build_admittance"),
        "powerflow.newton_power_flow.ms": mean_ms("powerflow.newton_power_flow"),
        "powerflow.nr_iterations": counts.get("powerflow.nr_iterations", 0.0),
        "zones.build_zone.ms": mean_ms("zones.build_zone"),
        "zones.validate_zone.ms": mean_ms("zones.validate_zone"),
        "nlsolver.solve_constrained.ms": mean_ms("nlsolver.solve_constrained"),
        "nlsolver.constraint_evals": evals,
        "nlsolver.accepted_steps": accepted,
        "nlsolver.accept_ratio": accepted / evals if evals else 0.0,
        "nlsolver.outer_rounds": counts.get("nlsolver.outer_rounds", 0.0),
        "attacks.design_attack.optimal.ms": mean_ms("attacks.design_attack.optimal"),
        "attacks.design_attack.arbitrary.ms": mean_ms("attacks.design_attack.arbitrary"),
        "attacks.design_attack.self_ms": mean_ms(
            "attacks.design_attack.optimal", "attacks.design_attack.arbitrary", self_time=True
        ),
        "attacks.start_draws": counts.get("attacks.start_draws", 0.0),
        "attacks.apply_attack.ms": mean_ms("attacks.apply_attack"),
        "estimation.wls_estimate.ms": mean_ms("estimation.wls_estimate"),
        "estimation.wls_iterations": counts.get("estimation.wls_iterations", 0.0),
        "estimation.eval_h.calls": calls("estimation.eval_h"),
        "estimation.eval_jacobian.calls": calls("estimation.eval_jacobian"),
        "estimation.eval_jacobian.ms": mean_ms("estimation.eval_jacobian"),
        "estimation.generate_measurements.ms": mean_ms("estimation.generate_measurements"),
        "estimation.chi_square_test.ms": mean_ms("estimation.chi_square_test"),
        "estimation.jacobian_bytes_computed": counts.get("estimation.jacobian_bytes_computed", 0.0),
        "estimation.wls_estimate.default_blas_ms": default_blas_ms,
        "impact.compute_impact.ms": mean_ms("impact.compute_impact"),
        "impact.render_report.ms": mean_ms("impact.render_report"),
        "impact.bytes_rendered": counts.get("impact.bytes_rendered", 0.0),
        "cli.run_scenario.self_ms": mean_ms("cli.run_scenario", self_time=True),
        "cli.artifact_bytes": counts.get("cli.artifact_bytes", 0.0),
        "trace.overhead_ms": 1e3 * overhead_s,
        "trace.uncovered_share": statistics.median(uncovered_share),
    }
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in PER_LAYER_UNITS.items()}
    overhead_share = overhead_s / base_p50 if base_p50 else 0.0
    report = {
        "items_traced": traced.attempted,
        "items_paired_for_overhead": len(common),
        "overhead_share": overhead_share,
        "uncovered_ms_median": 1e3 * statistics.median(uncovered),
        # the overhead estimate is a difference of two medians and can come out
        # negative when tracing costs less than run-to-run drift; its size is
        # then the resolution the coverage is checked against
        "uncovered_within_overhead": values["trace.uncovered_share"] <= abs(overhead_share),
        "spans": len(rows),
    }
    return metrics, report


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"error: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so pin it before the
    # first import of numpy (through acfdi or workloads)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, BENCH_DIR]

    import acfdi
    import hostspeed
    import workloads

    if not os.path.abspath(acfdi.__file__).startswith(SRC + os.sep):
        print(f"error: acfdi imported from {acfdi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        grid = wl.prepare()
        warm = wl.item(0)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": environment(grid)}
        if warm.error is not None:
            report["warm_up_error"] = warm.error
        if args.trace == 0:
            speed = hostspeed.HostSpeed()
            setup = time_setup(wl.case_arg, SETUP_SAMPLES, speed)
            loops = [run_loop(wl.item, args.seconds, speed)]
        else:
            default_blas_ms = default_blas_wls_ms()
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                workloads.load_traced(wl.case_arg)
            untraced, traced = run_paired(wl.item, tracer, args.seconds)
            loops = [untraced, traced]
            tracer.write_jsonl(
                os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
            )
        failures = {f"{i}:{k}": e for i, lp in enumerate(loops) for k, e in lp.failures.items()}
        if not all(lp.times for lp in loops):
            print(f"error: no item passed: {failures}", file=sys.stderr)
            return 1
        if args.trace == 0:
            metrics, report["end_to_end"] = end_to_end(loops[0], setup, speed)
        else:
            metrics, report["tracing"] = per_layer(tracer, untraced, traced, default_blas_ms)
        report.update(wl.report())
        report["failures"] = failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    result = {
        "correct": not failures and warm.error is None,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{name}.json"), "w", encoding="utf-8") as f:
        json.dump({"report": report, "result": result}, f, indent=2)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
