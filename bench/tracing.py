"""In-memory spans around calls into the package's layers.

Each traced function is wrapped at the name where its caller looks it up:
a function imported by name (``from .cocycle import grid_log_norms``) is a
separate binding in the importing module, so patching only the defining
module would miss it.  Every call records a span (name, start, end, parent
span, run id) and a work count; self time is a span's duration minus its
child spans.  Spans stay in memory and are written out once, at the end.
"""

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np


def _size(args, kwargs, out):
    return int(out.size), 0


def _matrices(args, kwargs, out):
    return int(out.size) // 4, 0


def _engine(args, kwargs, out):
    n = args[5] if len(args) > 5 else kwargs["n"]
    return int(np.size(args[0])) * n, n


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"]), 0


# (module, attribute where it is looked up, span name, work counter)
SITES = (
    ("szegolyap.cli", "birkhoff_scan", "lyapunov.birkhoff_scan", None),
    ("szegolyap.cli", "estimate_phase_average", "lyapunov.estimate_phase_average", None),
    ("szegolyap.cli", "subharmonic_check", "lyapunov.subharmonic_check", None),
    ("szegolyap.lyapunov", "grid_log_norms", "cocycle.engine", _engine),
    ("szegolyap.lyapunov", "op_norm", "mat2.op_norm", _size),
    ("szegolyap.cocycle", "op_norm", "mat2.op_norm", _size),
    ("szegolyap.cocycle", "szego_matrices", "cocycle.szego_matrices", _matrices),
    ("szegolyap.dynamics", "ExpGenerator.evaluate_grid", "dynamics.evaluate_grid", _size),
    ("szegolyap.dynamics", "PerturbedGenerator.evaluate_grid", "dynamics.evaluate_grid",
     _size),
    ("szegolyap.svgchart", "write_scan_svg", "svgchart.write_scan_svg", _file_bytes),
)

# Span name of one whole command; its run id numbers the command.
MAIN = "cli.main"

# Layers whose self times add up to the command's time, for layer shares.
SHARE_LAYERS = {
    "dynamics": ("dynamics.evaluate_grid",),
    "cocycle.szego_matrices": ("cocycle.szego_matrices",),
    "cocycle.engine": ("cocycle.engine",),
    "mat2.op_norm": ("mat2.op_norm",),
    "lyapunov": ("lyapunov.birkhoff_scan", "lyapunov.estimate_phase_average",
                 "lyapunov.subharmonic_check"),
    "svgchart": ("svgchart.write_scan_svg",),
    "cli": (MAIN,),
}


class Tracer:
    """Columnar span store; one row per call, in call order."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")  # summed durations of direct child spans
        self.work = array("q")  # elements, matrices or bytes, per span name
        self.steps = array("q")  # product steps (engine spans only)
        self.site_calls = {f"{m}.{a}": 0 for m, a, _, _ in SITES}
        self.run_id = 0
        self._stack = []

    def open(self, name):
        i = len(self.start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.child_s.append(0.0)
        self.work.append(0)
        self.steps.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        parent = self.parent[i]
        if parent >= 0:
            self.child_s[parent] += t - self.start[i]

    def wrap(self, site, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.site_calls[site] += 1
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                self.work[i], self.steps[i] = count(args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        """Write every span as columns; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.name),
                    "start": [t - t0 for t in self.start],
                    "end": [t - t0 for t in self.end],
                    "parent": list(self.parent),
                    "run": list(self.run),
                    "work": list(self.work),
                    "steps": list(self.steps),
                },
                fh,
            )


@contextlib.contextmanager
def installed(tracer):
    """Replace every site in SITES by a traced wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, name, count in SITES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(f"{module}.{attr}", name, original, count))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def _per_run(tracer, skip_runs):
    """{run id: {span name: [calls, work, steps, self_s, total_s]}}"""
    runs = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0.0, 0.0]))
    for i in range(len(tracer.start)):
        if tracer.run[i] in skip_runs:
            continue
        dur = tracer.end[i] - tracer.start[i]
        acc = runs[tracer.run[i]][tracer.names[tracer.name[i]]]
        acc[0] += 1
        acc[1] += tracer.work[i]
        acc[2] += tracer.steps[i]
        acc[3] += dur - tracer.child_s[i]
        acc[4] += dur
    return runs


def _command_metrics(spans):
    """Per-layer metrics of one command from its span totals (a defaultdict,
    so a layer the command never entered reads as zeros)."""

    def self_s(*names):
        return sum(spans[n][3] for n in names)

    out = {}
    for layer in ("dynamics.evaluate_grid", "cocycle.szego_matrices", "mat2.op_norm"):
        out[f"{layer}.calls"] = spans[layer][0]
        out[f"{layer}.elements"] = spans[layer][1]
        out[f"{layer}.self_s"] = self_s(layer)
    engine = spans["cocycle.engine"]
    out["cocycle.engine.calls"] = engine[0]
    out["cocycle.engine.steps"] = engine[2]
    out["cocycle.engine.self_s"] = self_s("cocycle.engine")
    matrix_calls = spans["cocycle.szego_matrices"][0]
    out["cocycle.engine.elements_per_call"] = engine[1] / matrix_calls if matrix_calls else 0.0
    out["lyapunov.subharmonic_check.calls"] = spans["lyapunov.subharmonic_check"][0]
    out["lyapunov.subharmonic_check.self_s"] = self_s("lyapunov.subharmonic_check")
    out["lyapunov.self_s"] = self_s(*SHARE_LAYERS["lyapunov"])
    out["svgchart.write_scan_svg.self_s"] = self_s("svgchart.write_scan_svg")
    out["svgchart.write_scan_svg.bytes"] = spans["svgchart.write_scan_svg"][1]
    out["cli.self_s"] = self_s(MAIN)
    out["cli.out_bytes"] = spans[MAIN][1]
    total = spans[MAIN][4]
    shares = {
        layer: (self_s(*names) / total if total else 0.0)
        for layer, names in SHARE_LAYERS.items()
    }
    return out, shares


def layer_metrics(tracer, skip_runs=(0,)):
    """Median over commands of each per-layer metric, and of each layer's
    share of the command's time.  Run ids in ``skip_runs`` (the warm-up
    command) are left out."""
    per_command = [_command_metrics(spans) for spans in _per_run(tracer, skip_runs).values()]
    if not per_command:
        return {}, {}
    metrics = {}
    for k, v in per_command[0][0].items():
        values = [m[k] for m, _ in per_command]
        # Counts repeat exactly from command to command; keep them whole.
        median = statistics.median_low if isinstance(v, int) else statistics.median
        metrics[k] = median(values)
    shares = {k: statistics.median(s[k] for _, s in per_command) for k in per_command[0][1]}
    return metrics, shares
