"""Spans and counts recorded around the program's layers, from outside it.

`installed(tracer)` rebinds public names in the modules that call each layer
(for example `rednw.simulate.nw_batch`, the name the harness looks up) to
timing wrappers, and restores them on exit. Each span records its name,
start, end, parent, thread and pass; spans stay in memory until the run
ends and are then written out. A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

import rednw


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    pass_id: int
    failed: bool


def _x0_rows(args, kwargs) -> int:
    x0 = kwargs.get("X0", args[4] if len(args) > 4 else None)
    return int(np.shape(x0)[0])


class Tracer:
    """Collects spans and per-pass counts. One tracer serves one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self.root: int | None = None
        # counting the samples inside each kernel window costs a pass over
        # the radii, so only the pass that sets this pays it
        self.count_windows = False
        self.last_batch_args: tuple | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[self.pass_id][key] += value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        # spans opened by worker threads hang under the pass's root span
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = next(self._ids)
        if root:
            self.root = sid
        stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), self.pass_id, failed))

    def write(self, path) -> None:
        """All spans, one JSON array per line: id, name, start, end, parent,
        thread, pass, failed."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent,
                                     s.thread, s.pass_id, s.failed]) + "\n")

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper


def _after_batch(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("npregress.points", _x0_rows(args, kwargs))
    tracer.add("npregress.empty_windows", sum(1 for r in result if not r.ok))
    tracer.last_batch_args = args


def _after_weights(tracer: Tracer, args, kwargs, result) -> None:
    kernel, t = args[0], np.asarray(args[1])
    tracer.add("kernels.weights_evals", t.size)
    if tracer.count_windows and t.size:
        inside = t <= kernel.profile.support_radius
        # one query per row of radii: its share of samples inside the window
        rows = inside.reshape(-1, t.shape[-1]) if t.ndim else inside.reshape(1, 1)
        tracer.add("window.queries", rows.shape[0])
        tracer.add("window.fill_sum", float(rows.mean(axis=1).sum()))


def _after_load_csv(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("dataio.load_csv_rows", result.n)


# (span name, module or class, attribute, hook run after each call)
TARGETS = [
    ("simulate.generate", "simulate", "gen_model1", None),
    ("simulate.generate", "simulate", "gen_model2", None),
    ("reduction.fit", "simulate", "pls_fit", None),
    ("reduction.fit", "simulate", "pfc_fit", None),
    ("reduction.fit", "simulate", "sir_fit", None),
    ("reduction.fit", "simulate", "oracle_basis", None),
    ("kernels.make_kernel", "simulate", "make_kernel", None),
    ("npregress.nw_batch", "simulate", "nw_batch", _after_batch),
    ("kernels.weights", "kernels.RadialKernel", "weights", _after_weights),
    ("npregress.nw_batch", "dataio", "nw_batch", _after_batch),
    ("kernels.make_kernel", "dataio", "make_kernel", None),
    ("reduction.fit", "dataio", "pls_fit", None),
    ("reduction.fit", "dataio", "pfc_fit", None),
    ("reduction.fit", "dataio", "sir_fit", None),
    ("reduction.fit", "dataio", "oracle_basis", None),
    ("dataio.load_csv", "cli", "load_csv", _after_load_csv),
    ("dataio.load_test_rows", "cli", "load_test_rows", None),
    ("dataio.run_predict_workflow", "cli", "run_predict_workflow", None),
    ("dataio.sha256_file", "cli", "sha256_file", None),
    ("dataio.write_table", "cli", "write_table", None),
]


def _owner(path: str):
    obj = rednw
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def missing_targets() -> list[str]:
    """Wrap targets the program no longer has; their time lands in the caller."""
    return [f"rednw.{path}.{attr}" for _, path, attr, _ in TARGETS
            if not hasattr(_owner(path), attr)]


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for name, path, attr, after in TARGETS:
            owner = _owner(path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def pass_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, summed duration and call count."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"self": 0.0, "total": 0.0,
                                                            "calls": 0, "failed": 0})
    for s in spans:
        covered = _covered([(max(c.start, s.start), min(c.end, s.end))
                            for c in children[s.id] if c.end > s.start and c.start < s.end])
        rec = out[s.name]
        rec["self"] += (s.end - s.start) - covered
        rec["total"] += s.end - s.start
        rec["calls"] += 1
        rec["failed"] += int(s.failed)
    return out
