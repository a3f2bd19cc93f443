"""Spans around groundflow's public entry points, installed from outside.

``install()`` rebinds each target in every ``groundflow`` module that holds
it by name (``from ._solve import spd_solver`` leaves one binding in
``heatflow`` and one in ``schrodinger``), so calls between modules are
seen too.  The ``solve`` closure returned by ``spd_solver`` is wrapped as
well.  A target that no longer exists is reported as missing instead of
failing, so the traced run survives refactors of the package.

Spans stay in memory as ``[name, parent, start, end]`` lists and are
written once, at the end.  ``layer_metrics`` turns them into the per-layer
numbers: every ``.s`` value is self time, the span's duration minus the
time its child spans cover.  It gives every counter and the self time of
every span name, zero where a layer was never reached; ``BENCHMARK.json``
names the ones the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

# (module, attribute, span name); names ending in _csv are CSV writers.  Metric
# names must start with a letter, so groundflow._solve reports as "solve.".
TARGETS = (
    ("groundflow.grid", "laplacian_values", "grid.laplacian"),
    ("groundflow._solve", "spd_solver", "solve.factor"),
    ("groundflow.schrodinger", "ground_state", "schrodinger.ground_state"),
    ("groundflow.comparison", "decay_rate_mu", "comparison.decay_rate_mu"),
    ("groundflow.comparison", "scalar_flow", "comparison.scalar_flow"),
    ("groundflow.heatflow", "build_problem", "heatflow.build_problem"),
    ("groundflow.heatflow", "step", "heatflow.step"),
    ("groundflow.heatflow", "evolve_to_attractor", "heatflow.evolve"),
    ("groundflow.heatflow", "certify_sandwich", "heatflow.certify"),
    ("groundflow.heatflow", "certify_exponential_bound", "heatflow.certify"),
    ("groundflow.heatflow", "trace_to_csv", "heatflow.trace_csv"),
    ("groundflow.param_sweep", "sweep_attractor", "param_sweep.sweep"),
    ("groundflow.param_sweep", "sweep_to_csv", "param_sweep.sweep_csv"),
    ("groundflow.curvature", "ground_state_warp", "curvature.warp"),
    ("groundflow.curvature", "field_to_csv", "curvature.field_csv"),
    ("groundflow.circle_dynamics", "integrate_orbit", "circle_dynamics.orbit"),
    ("groundflow.circle_dynamics", "orbit_to_csv", "circle_dynamics.orbit_csv"),
    ("groundflow.circle_dynamics", "portrait_to_csv", "circle_dynamics.portrait_csv"),
    ("jsonschema", "validate", "cli.validate"),
    ("groundflow.cli", "run", "cli.run"),
)

class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span; ``on_result(result, args, kwargs)``
        may post-process the result while the span is still open."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    result = on_result(result, args, kwargs)
                return result
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def _wrap_solver_factory(tracer: Tracer):
    def on_result(solve, args, kwargs):
        return tracer.wrap("solve.solve", solve)
    return on_result


def _count_step(tracer: Tracer):
    def on_result(result, args, kwargs):
        dt = kwargs["dt"] if "dt" in kwargs else args[2]
        dt_used = result[1]
        tracer.count("heatflow.step.accepted")
        if dt_used > 0.0 and dt_used < dt:
            tracer.count("heatflow.step.rejected", round(math.log2(dt / dt_used)))
        return result
    return on_result


def _count_iterations(tracer: Tracer):
    def on_result(result, args, kwargs):
        tracer.count("schrodinger.ground_state.iterations", result.iterations)
        return result
    return on_result


def _count_orbit_steps(tracer: Tracer):
    def on_result(result, args, kwargs):
        tracer.count("circle_dynamics.orbit.steps", len(result.times) - 1)
        return result
    return on_result


def install(tracer: Tracer) -> Tracer:
    """Wrap every target of ``TARGETS`` that exists; list the rest as missing."""
    hooks = {
        "solve.factor": _wrap_solver_factory,
        "heatflow.step": _count_step,
        "schrodinger.ground_state": _count_iterations,
        "circle_dynamics.orbit": _count_orbit_steps,
    }
    for module_name, attr, span in TARGETS:
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        hook = hooks.get(span)
        traced = tracer.wrap(span, original, hook(tracer) if hook else None)
        holders = [m for n, m in list(sys.modules.items())
                   if n == module_name or n == "groundflow" or n.startswith("groundflow.")]
        for module in holders:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)
    return tracer


def layer_metrics(spans, counts, missing, output_bytes: int) -> dict[str, float]:
    """Per-layer numbers from one traced process: counters and ``<span>.s``."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor(index, wanted):
        parent = spans[index][1]
        while parent >= 0:
            if spans[parent][0] == wanted:
                return True
            parent = spans[parent][1]
        return False

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]

    def nested(name, under):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and has_ancestor(i, under))

    csv_s = sum(v for k, v in self_s.items() if k.endswith("_csv"))
    out = {
        "grid.laplacian.calls": calls.get("grid.laplacian", 0),
        "solve.factor.calls": calls.get("solve.factor", 0),
        "solve.solve.calls": calls.get("solve.solve", 0),
        "solve.cg.matvecs": nested("grid.laplacian", "solve.solve"),
        "schrodinger.ground_state.calls": calls.get("schrodinger.ground_state", 0),
        "schrodinger.ground_state.iterations":
            counts.get("schrodinger.ground_state.iterations", 0),
        "schrodinger.ground_state.solves":
            nested("solve.solve", "schrodinger.ground_state"),
        "comparison.decay_rate_mu.calls": calls.get("comparison.decay_rate_mu", 0),
        "heatflow.step.accepted": counts.get("heatflow.step.accepted", 0),
        "heatflow.step.rejected": counts.get("heatflow.step.rejected", 0),
        "heatflow.dt.distinct": nested("solve.factor", "heatflow.step"),
        "param_sweep.q_points": nested("heatflow.build_problem", "param_sweep.sweep"),
        "curvature.warp.leaves": nested("schrodinger.ground_state", "curvature.warp"),
        "circle_dynamics.orbit.steps": counts.get("circle_dynamics.orbit.steps", 0),
        "cli.csv.s": csv_s,
        "cli.output.bytes": output_bytes,
        "trace.missing": len(missing),
    }
    for span in sorted({span for _, _, span in TARGETS} | {"solve.solve"}):
        out[f"{span}.s"] = self_s.get(span, 0.0)
    return out
