"""Tests of the benchmark's own code: generators, metric output, failure accounting."""

from __future__ import annotations

import json
import os
import statistics
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import acfdi.cli  # noqa: E402
from acfdi import case_to_json  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from grids import perturb_loads, tiled_case39  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


def test_tiled_case_is_deterministic_and_sized():
    a, b = tiled_case39(4), tiled_case39(4)
    assert case_to_json(a) == case_to_json(b)
    assert a.n_bus == 156
    assert sum(1 for bus in a.buses if bus.kind == "slack") == 1
    assert len(a.branches) == 4 * 46 + 3


def test_load_perturbation_is_deterministic_for_a_seed():
    case = tiled_case39(2)
    one = perturb_loads(case, np.random.default_rng([7, 3]))
    two = perturb_loads(case, np.random.default_rng([7, 3]))
    other = perturb_loads(case, np.random.default_rng([8, 3]))
    assert case_to_json(one) == case_to_json(two)
    assert case_to_json(one) != case_to_json(other)
    ratios = [p.pd / q.pd for p, q in zip(one.buses, case.buses) if q.pd]
    assert all(0.95 <= r <= 1.05 for r in ratios)


def test_scenario_configs_follow_the_seed(tmp_path):
    wl = workloads.ScenarioWorkload(5, str(tmp_path), tiles=4)
    wl.prepare()
    assert wl.config(2) == wl.config(2)
    assert wl.config(2)["seeds"] == {"noise": 7, "arbitrary_start": 8}
    assert wl.config(2)["zone"] == {"focal": workloads.TILE4_FOCAL}


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 26)]
    assert run.tail(times) == (15.0, 60.0, 10)
    value, pct, beyond = run.tail(times[:9])
    assert (value, pct, beyond) == (5.0, 100.0 * 5 / 9, 4)


class _HalfSpeedHost(hostspeed.HostSpeed):
    def kernel_seconds(self) -> float:
        self.samples.append(2 * self.REFERENCE_S)
        return 2 * self.REFERENCE_S


def test_item_times_are_scaled_by_the_host_kernel():
    loop = run.run_loop(lambda k: workloads.Outcome(0.01), 0.05, _HalfSpeedHost())
    assert loop.attempted >= 2
    assert all(t == 0.005 for t in loop.times.values())
    assert all(t == 0.01 for t in loop.wall.values())


def test_instrument_restores_the_package():
    original = acfdi.cli.run_scenario
    with spans.instrument(spans.Tracer()):
        assert acfdi.cli.run_scenario is not original
    assert acfdi.cli.run_scenario is original


def test_failed_item_counts_as_error_and_leaves_the_timings(tmp_path):
    wl = workloads.ScenarioWorkload(0, str(tmp_path), tiles=1)
    wl.prepare()
    feasible = wl.config

    def config(k):
        cfg = feasible(k)
        if k % 2:
            cfg["targets"][0]["lambda"] = 50.0
            cfg["solver"] = {"max_outer": 2}
        return cfg

    wl.config = config
    speed = hostspeed.HostSpeed()
    loop = run.run_loop(wl.item, 0.8, speed)
    assert loop.attempted >= 2
    assert set(loop.failures) == {k for k in range(loop.attempted) if k % 2}
    assert all(e == "exit code 3" for e in loop.failures.values())
    assert set(loop.times) == {k for k in range(loop.attempted) if k % 2 == 0}

    metrics, report = run.end_to_end(loop, ([1.0], [1.0]), speed)
    assert report["error_rate"]["value"] == len(loop.failures) / loop.attempted
    assert metrics["item_p50_s"]["value"] == statistics.median(loop.times.values())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(tmp_path, monkeypatch, capsys, trace, section):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, run.BLAS_THREADS)
    argv = ["--workload", "case39_sweep", "--seed", "0", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == 0:
        report = json.loads(lines[-2])["report"]
        assert report["end_to_end"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
