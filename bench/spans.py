"""Span tracing of maxlab's layers, installed from outside the package.

`Tracer.install` replaces each traced public function, at every name under
which a maxlab module (or the package itself) refers to it, with a wrapper
that records a span: name, start, end and parent span. Spans are kept in
flat arrays in memory and written out by `Tracer.write`. The package's
source is left unchanged.

A layer's self time is its span time minus the time its child spans cover.
Every span belongs to the benchmark step or operation that opened the root
span above it; its self time is scaled by that step's calibration factor.
"""

from __future__ import annotations

import os
import sys
import types
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter

# layer -> (module, function) pairs traced as that layer
LAYERS = {
    "metric.validate": [("metric", "validate_space")],
    "metric.enumerate": [("metric", "enumerate_balls")],
    "metric.midpoint": [("metric", "find_midpoint_configs")],
    "metric.closed_ball": [("metric", "closed_ball")],
    "measure": [("measure", "measure_of"), ("measure", "integrate")],
    "maximal.field": [("maximal", "maximal_field")],
    "maximal.point": [
        ("maximal", "centered_maximal"),
        ("maximal", "noncentered_maximal"),
        ("maximal", "centered_maximal_measure"),
        ("maximal", "noncentered_maximal_measure"),
        ("maximal", "inf_ball_measure_pair"),
    ],
    "theorems.decide": [("theorems", "coincidence_exact")],
    "theorems.audit": [("theorems", "check_ball_infimum")],
    "theorems.grid": [("theorems", "build_grid_demo")],
    "simplex.lp": [("simplex", "convex_combination")],
    "io.load": [("io", "load_space"), ("io", "load_measure"), ("io", "load_function")],
    "io.emit": [("io", "write_json"), ("io", "maximal_report_to_json"), ("io", "grid_demo_to_json")],
    "cli": [("cli", "main")],
}

# Per-layer metrics: (name, unit, kind, layer or counter). `time` is calibrated
# self time, `calls` the span count, `counter` a count recorded by a hook.
METRICS = [
    ("metric.validate_s", "s", "time", "metric.validate"),
    ("metric.enumerate_s", "s", "time", "metric.enumerate"),
    ("metric.balls", "count", "counter", "metric.balls"),
    ("metric.member_indices", "count", "counter", "metric.member_indices"),
    ("metric.midpoint_s", "s", "time", "metric.midpoint"),
    ("metric.closed_ball_calls", "count", "calls", "metric.closed_ball"),
    ("measure.calls", "count", "calls", "measure"),
    ("measure.self_s", "s", "time", "measure"),
    ("maximal.field_calls", "count", "calls", "maximal.field"),
    ("maximal.field_self_s", "s", "time", "maximal.field"),
    ("maximal.point_calls", "count", "calls", "maximal.point"),
    ("maximal.point_self_s", "s", "time", "maximal.point"),
    ("theorems.decide_self_s", "s", "time", "theorems.decide"),
    ("theorems.audit_self_s", "s", "time", "theorems.audit"),
    ("theorems.audit_pairs", "count", "counter", "theorems.audit_pairs"),
    ("theorems.grid_self_s", "s", "time", "theorems.grid"),
    ("simplex.lp_calls", "count", "calls", "simplex.lp"),
    ("simplex.lp_feasible", "count", "counter", "simplex.lp_feasible"),
    ("simplex.lp_s", "s", "time", "simplex.lp"),
    ("io.load_s", "s", "time", "io.load"),
    ("io.emit_s", "s", "time", "io.emit"),
    ("io.bytes_written", "B", "counter", "io.bytes_written"),
    ("cli.self_s", "s", "time", "cli"),
]

_HOOK = "trace.hook"  # time spent in counting hooks; charged to no layer


def _count_balls(tracer, args, kwargs, family):
    tracer.count("metric.balls", len(family.balls))
    tracer.count("metric.member_indices", sum(len(b.members) for b in family.balls))


def _count_lp(tracer, args, kwargs, result):
    tracer.count("simplex.lp_feasible", int(result[0] is not None))


def _count_pairs(tracer, args, kwargs, report):
    tracer.count("theorems.audit_pairs", len(report.pairs))


def _count_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("io.bytes_written", os.path.getsize(path))


_HOOKS = {
    ("metric", "enumerate_balls"): _count_balls,
    ("simplex", "convex_combination"): _count_lp,
    ("theorems", "check_ball_infimum"): _count_pairs,
    ("io", "write_json"): _count_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._roots: dict[int, tuple[str, float]] = {}  # root span -> (phase, factor)
        self._phase = "setup"
        self._excluded: list[tuple[int, float]] = []  # (span, seconds not spent in maxlab)
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def exclude(self, seconds: float) -> None:
        """Take `seconds` spent outside maxlab off the self time of the open span."""
        self._excluded.append((self._stack[-1], seconds))

    def count(self, counter: str, value: int) -> None:
        self.counters[self._phase][counter] += value

    def open_root(self, name: str, phase: str) -> int:
        self._phase = phase
        return self.open(self._id(name))

    def close_root(self, idx: int, factor: float) -> None:
        self.close(idx)
        self._roots[idx] = (self._phase, factor)

    def _wrap(self, fn, layer: str, hook):
        name_id = self._id(layer)
        hook_id = self._id(_HOOK)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                h = tracer.open(hook_id)
                hook(tracer, args, kwargs, result)
                tracer.close(h)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function under every maxlab name that refers to it."""
        wrappers = {}
        for layer, targets in LAYERS.items():
            for module, name in targets:
                fn = getattr(sys.modules[f"maxlab.{module}"], name)
                wrappers[fn] = self._wrap(fn, layer, _HOOKS.get((module, name)))
        for modname, module in list(sys.modules.items()):
            if modname != "maxlab" and not modname.startswith("maxlab."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def layer_totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per phase and layer: calibrated self seconds and span counts."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        for i, seconds in self._excluded:
            if i >= 0:
                covered[i] += seconds
        totals: dict = defaultdict(lambda: defaultdict(lambda: {"time": 0.0, "calls": 0}))
        hook_id = self._ids.get(_HOOK)
        root = None
        for i in range(n):
            if self.parent[i] < 0:
                root = self._roots.get(i)
                continue
            if root is None or self.name_id[i] == hook_id:
                continue
            phase, factor = root
            entry = totals[phase][self.names[self.name_id[i]]]
            entry["time"] += (self.end[i] - self.start[i] - covered[i]) * factor
            entry["calls"] += 1
        return totals

    def metrics(self, setup_reps: int, rounds: int) -> dict[str, dict]:
        """Every per-layer metric, per set-up repetition plus per round."""
        totals = self.layer_totals()
        per = {"setup": setup_reps, "round": rounds}
        out = {}
        for name, unit, kind, key in METRICS:
            value = 0.0
            for phase, count in per.items():
                if kind == "counter":
                    raw = self.counters[phase][key]
                else:
                    raw = totals[phase][key][kind]
                value += raw / count
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
