"""Spans and counts around corestream's public functions, from outside.

A traced unit of work runs with wrappers installed at the attributes
that callers look up at call time: a module global such as
``corestream.tracking.train_one_class`` (the name ``track_stream``
resolves when it retrains) or a class attribute such as
``CoresetTree.push_point``.  Nothing inside ``src/`` changes.  Each
wrapped call becomes a span (layer, start, end, parent, run id) kept in
memory; self time is a span's duration minus the time its child spans
cover.  Hot inner functions whose time belongs to their caller are only
counted.  ``restore`` puts every original back, and ``check_original``
proves that an untraced unit sees the unwrapped functions.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

_perf = time.perf_counter

ROOT_LAYER = "harness"


def svd_gflop(shape: tuple[int, int]) -> float:
    """Flops of a thin SVD with U, sigma and V of an m x d matrix, in GFLOP.

    Golub & Van Loan's R-SVD count, 6 m d^2 + 20 d^3 with m >= d; the
    two sides swap when the matrix is wide.
    """
    m, d = max(shape), min(shape)
    return (6.0 * m * d * d + 20.0 * d**3) / 1e9


# (owner, attribute, layer).  The owner is a module, or "module:Class"
# for a method.  A function imported into several modules is wrapped in
# each module that calls it, under one layer name.
SPAN_SITES = (
    ("corestream.tree", "svd_truncate", "blocks.svd_truncate"),
    ("corestream.blocks:DataBlock", "__post_init__", "blocks.DataBlock"),
    ("corestream.tree:CoresetTree", "push_point", "tree.push_point"),
    ("corestream.tree:CoresetTree", "snapshot", "tree.snapshot"),
    ("corestream.tree", "collapse", "tree.collapse"),
    ("corestream.sampling", "collapse", "tree.collapse"),
    ("corestream.sampling", "hierarchical_sample", "sampling.hierarchical_sample"),
    ("corestream.tracking", "hierarchical_sample", "sampling.hierarchical_sample"),
    ("corestream.sampling", "root_sample", "sampling.root_sample"),
    ("corestream.tracking", "root_sample", "sampling.root_sample"),
    ("corestream.tracking", "train_one_class", "svm.train_one_class"),
    ("corestream.tracking", "decisions", "svm.decisions"),
    ("corestream.tracking", "em_fit", "kalman.em_fit"),
    ("corestream.tracking", "kalman_predict", "kalman.kalman_predict"),
    ("corestream.tracking", "kalman_update", "kalman.kalman_update"),
    ("corestream.tracking", "detect", "tracking.detect"),
    ("corestream.tracking", "track_stream", "tracking.track_stream"),
    ("corestream.cli", "cmd_tree_build", "cli.tree_build"),
    ("corestream.io", "read_features", "io.read_features"),
    ("corestream.io", "write_telemetry", "io.write_telemetry"),
    ("corestream.io", "write_snapshot", "io.write_snapshot"),
    ("corestream.io", "read_snapshot", "io.read_snapshot"),
)

# Called thousands of times per training; a span each would distort
# the solver's time, so these only count.
COUNT_SITES = (
    ("corestream.svm", "one_class_objective", "svm.one_class_objective"),
    ("corestream.svm", "one_class_subgradient", "svm.one_class_subgradient"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs and removes the call-site wrappers and keeps the spans."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.facts: defaultdict = defaultdict(float)
        self.trees: dict[int, list] = defaultdict(list)
        self._stack: list[int] = [-1]
        self._run = -1
        self._sites = []
        for owner, attr, layer in SPAN_SITES:
            obj = _resolve(owner)
            self._sites.append((obj, attr, vars(obj)[attr], layer, True))
        for owner, attr, layer in COUNT_SITES:
            obj = _resolve(owner)
            self._sites.append((obj, attr, vars(obj)[attr], layer, False))
        self._after = {
            "blocks.svd_truncate": self._after_svd,
            "tree.push_point": self._after_push,
            "sampling.hierarchical_sample": self._after_sample,
            "sampling.root_sample": self._after_sample,
            "io.read_features": self._after_io,
            "io.write_telemetry": self._after_io,
            "io.write_snapshot": self._after_io,
        }

    # -- per-call facts, taken after the span has closed ---------------
    def _after_svd(self, layer: str, args, result) -> None:
        self.facts[(self._run, f"{layer}.gflop_computed")] += svd_gflop(args[0].shape)

    def _after_push(self, layer: str, args, result) -> None:
        trees = self.trees[self._run]
        if args[0] not in trees:
            trees.append(args[0])

    def _after_sample(self, layer: str, args, result) -> None:
        self.facts[(self._run, "sampling.rows_out")] += result.rows.rows

    def _after_io(self, layer: str, args, result) -> None:
        # The path is the first argument of every wrapped io function.
        self.facts[(self._run, f"{layer}.bytes")] += os.path.getsize(args[0])

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, fn, layer: str):
        spans, stack = self.spans, self._stack
        after = self._after.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans[idx] = (layer, start, end, parent, tracer._run)
            if after is not None:
                after(layer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, layer: str):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer._run, layer)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, run: int) -> None:
        """Wrap every site; spans recorded from now on carry this run id."""
        self._run = run
        for obj, attr, original, layer, spanned in self._sites:
            make = self._span_wrapper if spanned else self._count_wrapper
            setattr(obj, attr, make(original, layer))

    def restore(self) -> None:
        for obj, attr, original, _, _ in self._sites:
            setattr(obj, attr, original)

    def check_original(self) -> None:
        """Raise unless every site holds the function it held at start."""
        for obj, attr, original, layer, _ in self._sites:
            if vars(obj)[attr] is not original:
                raise RuntimeError(f"{layer} is still wrapped at {obj.__name__}.{attr}")

    def run_traced(self, run: int, fn):
        """Call fn() as the root span of one traced run; returns (result, wall).

        The root span's self time is whatever no wrapped function
        covers: the harness's own loop and the unwrapped parts of the
        program.
        """
        root = self._span_wrapper(fn, ROOT_LAYER)
        self.install(run)
        try:
            start = _perf()
            result = root()
            return result, _perf() - start
        finally:
            self.restore()

    # -- aggregation ----------------------------------------------------
    def layer_stats(self, runs: set[int]) -> dict:
        """Calls, self seconds and inclusive durations per layer over runs."""
        covered = defaultdict(float)
        for span in self.spans:
            if span is not None and span[4] in runs and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        durations: defaultdict = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span is None or span[4] not in runs:
                continue
            layer, start, end = span[0], span[1], span[2]
            calls[layer] += 1
            self_s[layer] += (end - start) - covered[idx]
            durations[layer].append(end - start)
        for (run, layer), n in self.counts.items():
            if run in runs:
                calls[layer] += n
        facts: defaultdict = defaultdict(float)
        for (run, name), value in self.facts.items():
            if run in runs:
                facts[name] += value
        trees = [t for run in runs for t in self.trees.get(run, [])]
        return {
            "calls": calls,
            "self_s": self_s,
            "durations": durations,
            "facts": facts,
            "merges": sum(t.merge_count for t in trees),
            "max_live_nodes": max((t.max_live_nodes for t in trees), default=0),
        }

    def write_spans(self, path) -> None:
        """Every span as CSV: run, index, parent, layer, start and end in ns."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("run,index,parent,layer,start_ns,end_ns\n")
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, run = span
                fh.write(
                    f"{run},{idx},{parent},{layer},{int(start * 1e9)},{int(end * 1e9)}\n"
                )
