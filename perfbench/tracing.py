"""Span tracing of the mfglab layers, recorded from outside the package.

The traced run replaces public functions of the package modules by wrappers
that record one span per call: run id, span id, parent span id, name, start
and end. Callers bind these functions with ``from .model import drift`` and
similar imports, so each wrapper is installed under every name, in every
``mfglab`` module, that refers to the original function. Spans stay in memory
until the benchmark writes them out.

A layer is a package module. Its self time is the time inside spans of its
functions that no child span covers; work in unwrapped helpers (for example
``model.cost`` called from ``nash.value``) counts towards the nearest wrapped
caller. With ``harness.run_experiment`` as the root span, the layers' self
times add up to the traced run time.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "harness.run_experiment"

# The functions timed per layer, including the root span.
TRACED = {
    "model": ("drift", "cost_grad_vector", "mean_field_drift", "mean_field_cost_grad",
              "mean_field_cost", "drift_jacobian", "cost_gradient_full"),
    "controller": ("integrate_brs", "mpc_step_taylor"),
    "kinetic": ("solve_kinetic", "velocity_field", "step_upwind"),
    "mfg": ("mfg_fixed_point", "hjb_backward", "fp_forward", "total_running_cost"),
    "nash": ("nash_sweep", "solve_adjoint", "simulate_state", "value"),
    "measures": ("w1",),
    "grids": ("DensityGrid",),
    "harness": ("run_experiment", "parse_config", "sample_initial", "density_of", "write_csv"),
}

# Work counts; each must repeat exactly between runs of the same code and seed.
COUNTS = ("model.kernel_evals", "kinetic.steps", "mfg.picard_iterations", "nash.sweeps",
          "harness.csv_rows", "harness.csv_bytes")


def per_layer_metrics() -> dict[str, str]:
    """Name -> unit of every metric the traced run reports."""
    out = {}
    for layer, names in TRACED.items():
        for fn in names:
            if f"{layer}.{fn}" != ROOT:
                out[f"{layer}.{fn}.calls"] = "count"
                out[f"{layer}.{fn}.s"] = "s"
        out[f"{layer}.self_s"] = "s"
    for name in COUNTS:
        out[name] = "B" if name.endswith("_bytes") else "count"
    out["trace.run_s"] = "s"
    out["trace.overhead_frac"] = "frac"
    return out


class Tracer:
    """In-memory span recorder; ``run`` tags the spans and counts of the current run.

    One stack of open spans serves all calls, so traced runs must use one
    thread; the workloads keep the harness default of one job.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (run, span id, parent id or -1, name, start, end)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.run, span_id, parent, name, start, end)
            if after is not None:
                after(self.counts[self.run], args, result)
            return result

        return traced

    def count_kernels(self, build_model):
        """Wrap ``harness.build_model`` so the kernels of every model it returns count elements."""
        tracer = self

        def counted(kernel):
            def kernel_counted(x, y):
                tracer.counts[tracer.run]["model.kernel_evals"] += np.broadcast(x, y).size
                return kernel(x, y)
            return kernel_counted

        def build_counted(*args, **kwargs):
            model = build_model(*args, **kwargs)
            kernels = {f.name: counted(getattr(model, f.name)) for f in dataclasses.fields(model)
                       if "kernel" in f.name and getattr(model, f.name) is not None}
            return dataclasses.replace(model, **kernels)

        return build_counted


def _steps_marched(counts, args, trajectory):
    counts["kinetic.steps"] += len(trajectory.times) - 1


def _picard_iterations(counts, args, result):
    counts["mfg.picard_iterations"] += result.iterations


def _sweeps(counts, args, result):
    counts["nash.sweeps"] += result.iterations


def _csv_written(counts, args, path):
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        lines = fh.read().count(b"\n")
    counts["harness.csv_rows"] += lines - 1  # without the header
    counts["harness.csv_bytes"] += size


_AFTER = {
    "kinetic.solve_kinetic": _steps_marched,
    "mfg.mfg_fixed_point": _picard_iterations,
    "nash.nash_sweep": _sweeps,
    "harness.write_csv": _csv_written,
}


@contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers and the kernel counter; restore every name on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n == "mfglab" or n.startswith("mfglab.")]
    undo = []
    try:
        for layer, names in TRACED.items():
            home = importlib.import_module(f"mfglab.{layer}")
            for fn in names:
                name = f"{layer}.{fn}"
                original = getattr(home, fn)
                if isinstance(original, type):
                    # a class: time its constructor, keep the class itself
                    init = original.__init__
                    original.__init__ = tracer.wrap(name, init)
                    undo.append((original, "__init__", init))
                    continue
                wrapper = tracer.wrap(name, original, _AFTER.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
        harness = importlib.import_module("mfglab.harness")
        build_model = harness.build_model
        harness.build_model = tracer.count_kernels(build_model)
        undo.append((harness, "build_model", build_model))
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)


def run_profile(tracer: Tracer, run: int) -> dict[str, float]:
    """Per-layer metrics of one traced run: calls, inclusive and self times, counts.

    Spans outside the root (``parse_config`` runs before ``run_experiment``)
    give their calls and inclusive time but no self time.
    """
    spans = [s for s in tracer.spans if s[0] == run]
    by_id = {s[1]: s for s in spans}
    covered = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start

    def top(span):
        while span[2] >= 0:
            span = by_id[span[2]]
        return span

    def nested_in_same(span):
        name = span[3]
        while span[2] >= 0:
            span = by_id[span[2]]
            if span[3] == name:
                return True
        return False

    out: dict[str, float] = {name: 0.0 for name in per_layer_metrics()}
    roots = [s for s in spans if s[3] == ROOT and s[2] < 0]
    if len(roots) != 1:
        raise ValueError(f"run {run} has {len(roots)} root spans, expected 1")
    root = roots[0]
    for span in spans:
        _, span_id, _, name, start, end = span
        if name != ROOT:
            out[f"{name}.calls"] += 1
            if not nested_in_same(span):
                out[f"{name}.s"] += end - start
        if top(span) is root:
            out[f"{name.split('.')[0]}.self_s"] += (end - start) - covered[span_id]
    for name in COUNTS:
        out[name] = float(tracer.counts[run][name])
    out["trace.run_s"] = root[5] - root[4]
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Write every recorded span as CSV: run, id, parent, name, start_s, end_s."""
    with open(path, "w") as fh:
        fh.write("run,id,parent,name,start_s,end_s\n")
        for run, span_id, parent, name, start, end in tracer.spans:
            fh.write(f"{run},{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
