"""Spans around the public functions of each ``sgbounds`` module.

The wrappers live here, outside the package.  ``install`` replaces each
target in every ``sgbounds`` module namespace that holds it, so nested
calls are attributed to the right span; it must run before the CLI builds
its profiles, which capture ``diffop_rate`` and the like.  Per-sample
methods such as ``log_at`` are not wrapped: they run millions of times and
their spans would cost more than the work they measure.

A span is (name, start, end, parent, job).  Spans stay in memory in flat
arrays and are written out once, when the run ends.  A span's self time is
its duration minus the time its child spans cover, minus the time the
wrappers of its children spent on bookkeeping.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name -> (module, attribute, class name or None)
TARGETS = {
    "bounds.pointwise_min": ("sgbounds.bounds", "pointwise_min", None),
    "bounds.canonicalize": ("sgbounds.bounds", "canonicalize", None),
    "bounds.splice": ("sgbounds.bounds", "splice", None),
    "riccati.update_bound": ("sgbounds.riccati", "update_bound", None),
    "riccati.solve_crossing": ("sgbounds.riccati", "solve_crossing", None),
    "envelope.subadditive_envelope": ("sgbounds.envelope", "subadditive_envelope", None),
    "envelope.sample": ("sgbounds.envelope", "sample", "GridBound"),
    "envelope.piecewise_interpolant": ("sgbounds.envelope", "piecewise_interpolant", None),
    "iteration.min_update": ("sgbounds.iteration", "min_update", None),
    "iteration.argmin_abscissas": ("sgbounds.iteration", "argmin_abscissas", None),
    "iteration.rate": ("sgbounds.iteration", "rate", "ResolventProfile"),
    "models.jordan_resolvent_rate": ("sgbounds.models", "jordan_resolvent_rate", None),
    "models.jordan_semigroup_norm": ("sgbounds.models", "jordan_semigroup_norm", None),
    "models.diffop_rate": ("sgbounds.models", "diffop_rate", None),
    "cli.main": ("sgbounds.cli", "main", None),
}
NAMES = tuple(TARGETS)
LAYERS = ("bounds", "riccati", "envelope", "iteration", "models", "cli")
# spans whose call arguments or results feed a counter
_COUNTED_BEFORE = {"bounds.pointwise_min", "riccati.solve_crossing", "iteration.rate", "envelope.subadditive_envelope"}
_COUNTED_AFTER = {"riccati.update_bound", "envelope.piecewise_interpolant"}


class Tracer:
    """Span store and argument counters for one traced pass."""

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.hooks_s = array("d")  # wrapper bookkeeping of child spans, per span
        self.stack = [-1]
        self.current_job = -1
        self.sums: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.interpolant_jobs: set[int] = set()

    # -- counters read from call arguments and results -----------------------

    def _before(self, name: str, args: tuple) -> None:
        if name == "bounds.pointwise_min":
            self.sums["bounds.pointwise_min.pieces_in"] += len(args[0].breakpoints) + len(args[1].breakpoints)
        elif name == "riccati.solve_crossing":
            m, pair = args[0], args[1]
            self.sums["riccati.solve_crossing.pieces"] += len(m.breakpoints)
            self.distinct[name].add((self.current_job, hash(m), pair.omega, pair.rate))
        elif name == "iteration.rate":
            self.distinct[name].add((self.current_job, id(args[0]), args[1]))
        elif name == "envelope.subadditive_envelope":
            self.sums["envelope.subadditive_envelope.points"] += len(args[0].values)

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "riccati.update_bound":
            self.sums["riccati.update_bound.changed"] += result != args[0]
        elif name == "envelope.piecewise_interpolant":
            self.sums["envelope.piecewise_interpolant.pieces_out"] += len(result.breakpoints)
            self.interpolant_jobs.add(self.current_job)

    def wrap(self, name: str, fn):
        code = NAMES.index(name)
        clock = time.perf_counter
        counted = name in _COUNTED_BEFORE
        counted_after = name in _COUNTED_AFTER

        def traced(*args, **kwargs):
            c0 = clock()
            if counted:
                self._before(name, args)
            idx = len(self.start)
            parent = self.stack[-1]
            self.name.append(code)
            self.parent.append(parent)
            self.job.append(self.current_job)
            self.start.append(0.0)
            self.end.append(0.0)
            self.hooks_s.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counted_after:
                self._after(name, args, result)
            if parent >= 0:
                self.hooks_s[parent] += (t0 - c0) + (clock() - t1)
            return result

        return functools.wraps(fn)(traced)

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child - np.frombuffer(self.hooks_s, dtype=float)

    def metrics(self, jobs: int, bytes_out: int) -> dict[str, float]:
        """Per-layer metrics of the pass (see BENCHMARK.json for the list)."""
        names = np.frombuffer(self.name, dtype=np.int8)
        self_s = self.self_times()
        calls = np.bincount(names, minlength=len(NAMES))
        self_by_name = np.bincount(names, weights=self_s, minlength=len(NAMES))
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_by_name[i])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(out[f"{n}.self_s"] for n in NAMES if n.startswith(layer + "."))
        out.update({k: float(v) for k, v in self.sums.items()})
        for key in ("bounds.pointwise_min.pieces_in", "riccati.solve_crossing.pieces",
                    "envelope.subadditive_envelope.points", "envelope.piecewise_interpolant.pieces_out"):
            out.setdefault(key, 0.0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["riccati.update_bound.changed_ratio"] = ratio(
            self.sums.get("riccati.update_bound.changed", 0.0), out["riccati.update_bound.calls"])
        out.pop("riccati.update_bound.changed", None)
        for name in ("riccati.solve_crossing", "iteration.rate"):
            out[f"{name}.distinct_ratio"] = ratio(len(self.distinct[name]), out[f"{name}.calls"])
        out["envelope.interpolant_job_share"] = ratio(len(self.interpolant_jobs), jobs)
        out["cli.bytes_out"] = float(bytes_out)
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
        }


def install(tracer: Tracer):
    """Wrap every target for ``tracer``; returns a callable that undoes it."""
    undo = []
    modules = [m for k, m in list(sys.modules.items()) if k == "sgbounds" or k.startswith("sgbounds.")]
    for name, (module_name, attr, owner) in TARGETS.items():
        module = sys.modules[module_name]
        if owner is not None:
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(tracer.wrap(name, raw.__func__))
            else:
                replacement = tracer.wrap(name, raw)
            setattr(cls, attr, replacement)
            undo.append((cls, attr, raw))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    def uninstall() -> None:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)

    return uninstall


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of all traced passes to one compressed .npz file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [t.arrays() for t in tracers]
    offset = 0
    for part in parts:  # parent indices become indices into the merged arrays
        part["parent"][part["parent"] >= 0] += offset
        offset += len(part["name"])
    merged = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    merged["pass"] = np.concatenate([np.full(len(p["name"]), i) for i, p in enumerate(parts)])
    np.savez_compressed(path, names=np.array(NAMES), **merged)
