"""Span tracing around the zerofree layer entry points, from outside the package.

A traced pass patches each layer's entry point where its caller looks the
name up (for example `engine.minimize_rows`, not `canonical.minimize_rows`),
records one span per call in memory, and restores the originals afterwards.
Spans are (name, start, end, parent) in integer nanoseconds; every span of
one traced pass shares the tracer's run id.  The program itself carries no
timers, so nothing here changes what an untraced pass executes.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from zerofree import cli, engine, textio

ROOT_SPAN = "solve"

# (span name, owner object, attribute) for every wrapped entry point.
_ENTRY_POINTS = (
    ("canonical.prefix_test", engine, "minimize_rows"),
    ("engine.filter", engine._Generator, "_candidates"),
    ("engine.accept", engine._Generator, "_accept_batch"),
    ("engine.descend", engine._Generator, "run_prefixes"),
    ("engine.descend", engine._Generator, "run_subtree"),
    ("engine.merge", engine, "_merge_units"),
    ("engine.checkpoint.save", engine, "save_checkpoint"),
    ("engine.checkpoint.load", engine, "load_checkpoint"),
    ("canonical.canonical_form", cli, "canonical_form"),
    ("textio.parse", textio, "parse_matrix_line"),
    ("textio.format", cli, "format_matrix_line"),
    ("cli", cli, "main"),
)


def _count_prefix_test(counts, args, result):
    counts["canonical.prefix_test.passes"] += result is not None


def _count_filter(counts, args, result):
    counts["engine.filter.survivors"] += len(result[0])


def _count_accept(counts, args, result):
    # _accept_batch(self, rows, krows, idx, dets): one row per candidate index
    counts["engine.accept.rows"] += len(args[3])


def _count_unit(counts, args, result):
    counts["engine.units"] += 1


def _count_save(counts, args, result):
    # bytes handed to the page cache, computed from the file size
    counts["engine.checkpoint.save.bytes"] += os.path.getsize(args[0])


# Counts taken at the same wrappers, keyed by the wrapped attribute.
_COUNTERS = {
    "minimize_rows": _count_prefix_test,
    "_candidates": _count_filter,
    "_accept_batch": _count_accept,
    "run_subtree": _count_unit,
    "save_checkpoint": _count_save,
}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = {
            "canonical.prefix_test.passes": 0,
            "engine.filter.survivors": 0,
            "engine.accept.rows": 0,
            "engine.units": 0,
            "engine.checkpoint.save.bytes": 0,
        }

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, t0, time.perf_counter_ns())

    def wrap(self, name: str, fn, counter=None):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, t0, clock())
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Patch every layer entry point for the duration of the block.

        An entry point the program no longer has is reported on stderr and
        left out; its layer then reads zero and its time shows up in the
        self time of the span around it."""
        saved = []
        try:
            for name, owner, attr in _ENTRY_POINTS:
                original = owner.__dict__.get(attr)
                if original is None:
                    print(f"perfbench: no entry point {owner.__name__}.{attr}", file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, _COUNTERS.get(attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def columns(self):
        """Span table as numpy arrays: name ids, start, end, parent."""
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def write(self, path: Path) -> None:
        """Write every span once, as gzip-compressed JSON columns."""
        names, start, end, parent = self.columns()
        t0 = int(start.min()) if len(start) else 0
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "name": names.tolist(),
            "start_ns": (start - t0).tolist(),
            "end_ns": (end - t0).tolist(),
            "parent": parent.tolist(),
            "counts": self.counts,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(names, start, end, parent, n_names: int) -> np.ndarray:
    """Seconds of self time per name id: each span's duration minus its
    children's.  Children of one span never overlap, since a traced pass is
    single-threaded, so the covered part is the sum of their durations."""
    names = np.asarray(names, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    own = dur - covered
    return np.bincount(names, weights=own, minlength=n_names) / 1e9


def call_counts(names, n_names: int) -> np.ndarray:
    return np.bincount(np.asarray(names, dtype=np.int64), minlength=n_names)


def durations_ms(tracer: Tracer, name: str) -> np.ndarray:
    names, start, end, _ = tracer.columns()
    if name not in tracer._name_ids:
        return np.empty(0)
    sel = names == tracer._name_ids[name]
    return (end[sel] - start[sel]) / 1e6


def nearest_rank(values: np.ndarray, q: float) -> float:
    """The q-quantile by nearest rank, 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


# Per-layer metrics of a traced run: name -> unit.  Layers a workload does
# not reach report zero.
LAYER_METRICS = {
    "canonical.prefix_test.calls": "count",
    "canonical.prefix_test.self_s": "s",
    "canonical.prefix_test.pass_ratio": "ratio",
    "engine.filter.calls": "count",
    "engine.filter.survivors": "count",
    "engine.filter.self_s": "s",
    "engine.accept.calls": "count",
    "engine.accept.rows": "count",
    "engine.accept.self_s": "s",
    "engine.descend.self_s": "s",
    "engine.merge.self_s": "s",
    "engine.checkpoint.save.calls": "count",
    "engine.checkpoint.save.self_s": "s",
    "engine.checkpoint.save.bytes": "bytes",
    "engine.checkpoint.load.self_s": "s",
    "canonical.canonical_form.calls": "count",
    "canonical.canonical_form.self_s": "s",
    "canonical.canonical_form.p50_ms": "ms",
    "canonical.canonical_form.p99_ms": "ms",
    "textio.parse.self_s": "s",
    "textio.format.self_s": "s",
    "cli.self_s": "s",
    "engine.nodes": "count",
    "engine.units": "count",
    "engine.classes": "count",
    "engine.positive_classes": "count",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(tracer: Tracer, untraced_solve_s: float, exact: dict) -> dict:
    """Per-layer values of one traced pass.

    `exact` holds the counts read off the pass's results (nodes, classes).
    trace.unattributed_s is the root span's self time: the part of the
    traced pass that no layer span covers.
    """
    names, start, end, parent = tracer.columns()
    n_names = len(tracer.names)
    selfs = self_times(names, start, end, parent, n_names)
    calls = call_counts(names, n_names)

    def self_s(name):
        return float(selfs[tracer._name_ids[name]]) if name in tracer._name_ids else 0.0

    def ncalls(name):
        return int(calls[tracer._name_ids[name]]) if name in tracer._name_ids else 0

    root = tracer._name_ids[ROOT_SPAN]
    traced_solve_s = float((end[names == root] - start[names == root]).sum()) / 1e9
    canon_ms = durations_ms(tracer, "canonical.canonical_form")
    prefix_calls = ncalls("canonical.prefix_test")
    c = tracer.counts
    values = {
        "canonical.prefix_test.calls": prefix_calls,
        "canonical.prefix_test.self_s": self_s("canonical.prefix_test"),
        "canonical.prefix_test.pass_ratio": (
            c["canonical.prefix_test.passes"] / prefix_calls if prefix_calls else 0.0
        ),
        "engine.filter.calls": ncalls("engine.filter"),
        "engine.filter.survivors": c["engine.filter.survivors"],
        "engine.filter.self_s": self_s("engine.filter"),
        "engine.accept.calls": ncalls("engine.accept"),
        "engine.accept.rows": c["engine.accept.rows"],
        "engine.accept.self_s": self_s("engine.accept"),
        "engine.descend.self_s": self_s("engine.descend"),
        "engine.merge.self_s": self_s("engine.merge"),
        "engine.checkpoint.save.calls": ncalls("engine.checkpoint.save"),
        "engine.checkpoint.save.self_s": self_s("engine.checkpoint.save"),
        "engine.checkpoint.save.bytes": c["engine.checkpoint.save.bytes"],
        "engine.checkpoint.load.self_s": self_s("engine.checkpoint.load"),
        "canonical.canonical_form.calls": len(canon_ms),
        "canonical.canonical_form.self_s": self_s("canonical.canonical_form"),
        "canonical.canonical_form.p50_ms": nearest_rank(canon_ms, 0.50),
        "canonical.canonical_form.p99_ms": nearest_rank(canon_ms, 0.99),
        "textio.parse.self_s": self_s("textio.parse"),
        "textio.format.self_s": self_s("textio.format"),
        "cli.self_s": self_s("cli"),
        "engine.nodes": exact["engine.nodes"],
        "engine.units": c["engine.units"],
        "engine.classes": exact["engine.classes"],
        "engine.positive_classes": exact["engine.positive_classes"],
        "trace.solve_s": traced_solve_s,
        "trace.overhead_s": traced_solve_s - untraced_solve_s,
        "trace.unattributed_s": float(selfs[root]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
