"""Span recorder for the traced benchmark run.

The package is measured from outside: `instrument()` replaces the public
functions named in `PATCHES` with wrappers that record a span around every
call, in each module that calls them (for example `eval_jacobian` both in
`acfdi.estimation` and in `acfdi.attacks`), and restores the originals on
exit. Spans stay in memory as ``[name, start, end, parent, item]`` rows,
where ``parent`` is the row index of the enclosing span (-1 for none), and
are written as JSON lines when the run ends. Counters the wrappers read
from return values (iterations, evaluations, bytes) are summed over the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute) -> span name. A name may be patched in several modules.
PATCHES = {
    ("acfdi.network", "load_case"): "network.load_case",
    ("acfdi.network", "load_bundled_case39"): "network.load_case",
    ("acfdi.cli", "load_case"): "network.load_case",
    ("acfdi.cli", "load_bundled_case39"): "network.load_case",
    ("acfdi.network", "build_admittance"): "network.build_admittance",
    ("acfdi.cli", "build_admittance"): "network.build_admittance",
    ("acfdi.powerflow", "newton_power_flow"): "powerflow.newton_power_flow",
    ("acfdi.cli", "build_zone"): "zones.build_zone",
    ("acfdi.cli", "validate_zone"): "zones.validate_zone",
    ("acfdi.attacks", "solve_constrained"): "nlsolver.solve_constrained",
    ("acfdi.cli", "design_attack"): "attacks.design_attack",
    ("acfdi.cli", "apply_attack"): "attacks.apply_attack",
    ("acfdi.attacks", "assemble_attack_vector"): "attacks.assemble_attack_vector",
    ("acfdi.attacks", "compute_falsified_injections"): "attacks.compute_falsified_injections",
    ("acfdi.impact", "compute_falsified_injections"): "attacks.compute_falsified_injections",
    ("acfdi.estimation", "generate_measurements"): "estimation.generate_measurements",
    ("acfdi.cli", "generate_measurements"): "estimation.generate_measurements",
    ("acfdi.estimation", "wls_estimate"): "estimation.wls_estimate",
    ("acfdi.cli", "wls_estimate"): "estimation.wls_estimate",
    ("acfdi.estimation", "eval_h"): "estimation.eval_h",
    ("acfdi.attacks", "eval_h"): "estimation.eval_h",
    ("acfdi.estimation", "eval_jacobian"): "estimation.eval_jacobian",
    ("acfdi.attacks", "eval_jacobian"): "estimation.eval_jacobian",
    ("acfdi.estimation", "chi_square_test"): "estimation.chi_square_test",
    ("acfdi.cli", "chi_square_test"): "estimation.chi_square_test",
    ("acfdi.impact", "chi_square_test"): "estimation.chi_square_test",
    ("acfdi.estimation", "largest_normalized_residual"): "estimation.largest_normalized_residual",
    ("acfdi.impact", "largest_normalized_residual"): "estimation.largest_normalized_residual",
    ("acfdi.cli", "compute_impact"): "impact.compute_impact",
    ("acfdi.cli", "render_report"): "impact.render_report",
    ("acfdi.cli", "load_scenario_config"): "cli.load_scenario_config",
    ("acfdi.cli", "run_scenario"): "cli.run_scenario",
}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.item = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def rename(self, sid: int, name: str) -> None:
        self.spans[sid][0] = name

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "item": item}
                    )
                )
                f.write("\n")


def _wrap(tracer: Tracer, name: str, fn):
    observe = _OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == "nlsolver.solve_constrained" and "constraints" in kwargs:
            kwargs["constraints"] = _counted(tracer, kwargs["constraints"])
        sid = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if observe is not None:
            observe(tracer, sid, out)
        return out

    return wrapper


def _counted(tracer: Tracer, constraints):
    def counted(z):
        tracer.count("nlsolver.constraint_evals")
        return constraints(z)

    return counted


def _on_newton(tracer, sid, sol):
    tracer.count("powerflow.nr_iterations", sol.iterations)


def _on_solve(tracer, sid, res):
    tracer.count("nlsolver.outer_rounds", res.outer_iterations)
    tracer.count("nlsolver.inner_iterations", res.inner_iterations)


def _on_design(tracer, sid, av):
    tracer.rename(sid, f"attacks.design_attack.{av.solver_info['mode']}")
    tracer.count("attacks.start_draws", av.solver_info["start_draws"])


def _on_wls(tracer, sid, res):
    tracer.count("estimation.wls_iterations", res.iterations)


def _on_jacobian(tracer, sid, jac):
    tracer.count("estimation.jacobian_bytes_computed", jac.nbytes)


def _on_render(tracer, sid, docs):
    tracer.count("impact.bytes_rendered", sum(len(c.encode("utf-8")) for c in docs.values()))


_OBSERVERS = {
    "powerflow.newton_power_flow": _on_newton,
    "nlsolver.solve_constrained": _on_solve,
    "attacks.design_attack": _on_design,
    "estimation.wls_estimate": _on_wls,
    "estimation.eval_jacobian": _on_jacobian,
    "impact.render_report": _on_render,
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every name in PATCHES with a span-recording wrapper, then restore."""
    saved = []
    try:
        for (mod_name, attr), span_name in PATCHES.items():
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(tracer, span_name, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
