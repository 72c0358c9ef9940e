"""Benchmark harnesses: push cost, stack size and training-time scaling.

These drive the library the way the CLI benchmark command does and are
also used directly by the verification suite.  Workloads are seeded and
synthetic so results are reproducible up to wall-clock jitter.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .blocks import DataBlock
from .sampling import hierarchical_sample, random_sample
from .svm import TrainParams, train_one_class
from .tracking import (
    DetectParams,
    SyntheticStreamConfig,
    TrackerParams,
    generate_stream,
    track_stream,
)
from .tree import CoresetTree


@dataclass(frozen=True)
class StreamBenchRow:
    """Tree behavior at one stream length."""

    points: int
    leaves: int
    merges: int
    max_live_nodes: int
    mean_merges_per_push: float
    amortized_push_seconds: float
    live_bound: int


@dataclass(frozen=True)
class SvmBenchRow:
    """Training cost at one stream length: bounded sample vs all rows."""

    points: int
    sample_rows: int
    sample_train_seconds: float
    full_train_seconds: float


def _stream_rows(rng: np.random.Generator, points: int, dim: int) -> np.ndarray:
    return rng.standard_normal((points, dim))


def build_tree(points: int, n: int, dim: int, seed: int) -> CoresetTree:
    """Push a seeded Gaussian stream of the given length through a tree."""
    rng = np.random.default_rng(seed)
    tree = CoresetTree(n, dim)
    for row in _stream_rows(rng, points, dim):
        tree.push_point(row)
    return tree


def stream_bench(points: int, n: int, dim: int, seed: int) -> StreamBenchRow:
    """Build a tree over one stream length and summarize its counters.

    Only the push loop is timed; the rows are generated before the
    clock starts.
    """
    rows = _stream_rows(np.random.default_rng(seed), points, dim)
    tree = CoresetTree(n, dim)
    start = time.perf_counter()
    for row in rows:
        tree.push_point(row)
    elapsed = time.perf_counter() - start
    ratio = max(points / n, 1.0)
    return StreamBenchRow(
        points=points,
        leaves=tree.leaves_seen,
        merges=tree.merge_count,
        max_live_nodes=tree.max_live_nodes,
        mean_merges_per_push=tree.merge_count / points if points else 0.0,
        amortized_push_seconds=elapsed / points if points else 0.0,
        live_bound=int(math.floor(math.log2(ratio))) + 1,
    )


def svm_time_bench(
    points: int, n: int, dim: int, seed: int, train_params: TrainParams
) -> SvmBenchRow:
    """Compare training on a bounded tree sample against all rows.

    The bounded sample never exceeds 2n rows regardless of the stream
    length, so its training time should stay flat while full-data
    training grows with the stream.
    """
    rng = np.random.default_rng(seed)
    rows = _stream_rows(rng, points, dim)
    tree = CoresetTree(n, dim)
    for row in rows:
        tree.push_point(row)
    sample = hierarchical_sample(tree.snapshot())
    start = time.perf_counter()
    train_one_class(sample, train_params)
    sample_seconds = time.perf_counter() - start

    everything = random_sample(DataBlock(rows), points, seed)
    start = time.perf_counter()
    train_one_class(everything, train_params)
    full_seconds = time.perf_counter() - start
    return SvmBenchRow(
        points=points,
        sample_rows=sample.rows.rows,
        sample_train_seconds=sample_seconds,
        full_train_seconds=full_seconds,
    )


def compare_samplers(
    config: SyntheticStreamConfig,
    n_values: list[int],
    seeds: list[int],
    tracker: TrackerParams | None = None,
    train_params: TrainParams | None = None,
    detect_params: DetectParams | None = None,
) -> list[dict]:
    """Paired sampler comparison on identical streams.

    For every n and seed, one stream is generated and each sampler mode
    runs its own loop over it.  Returns one record per (n, seed, mode)
    with the final success rate.
    """
    base_tracker = tracker or TrackerParams()
    rows: list[dict] = []
    for n in n_values:
        for seed in seeds:
            cfg = replace(config, seed=seed)
            frames = generate_stream(cfg)
            for mode in ("hierarchical", "root", "random", "subsample"):
                run = track_stream(
                    frames,
                    cfg,
                    tracker=replace(base_tracker, n=n, sampler=mode),
                    train_params=train_params,
                    detect_params=detect_params,
                )
                rows.append(
                    {
                        "n": n,
                        "seed": seed,
                        "mode": mode,
                        "success": run.success_rate,
                    }
                )
    return rows


def summarize_comparison(rows: list[dict]) -> dict[tuple[int, str], float]:
    """Mean success per (n, mode) over the seeds."""
    sums: dict[tuple[int, str], list[float]] = {}
    for row in rows:
        sums.setdefault((row["n"], row["mode"]), []).append(row["success"])
    return {key: sum(v) / len(v) for key, v in sums.items()}
