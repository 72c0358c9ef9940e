"""Bounded training sets drawn from a summary tree, plus flat baselines.

The hierarchical draw favors recency: the newest stack node keeps up to
n rows and every level above it contributes half as many, so old data
fades geometrically instead of falling off a cliff.  The flat baselines
(whole-stream collapse, uniform random, evenly spaced) exist for
comparison and use the same SampleSet container.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .blocks import DataBlock, _wrap
from .tree import TreeView, collapse

# Provenance level for rows taken straight from a raw buffer rather
# than from a tree node: the pending buffer or a flat history.
RAW_LEVEL = -1

# A flat history: a matrix or a list of 1-d rows, one per stream point.
History = np.ndarray | Sequence[np.ndarray]


@dataclass(frozen=True)
class RowTag:
    """Where one sample row came from: a node level and a row index.

    level >= 0 points at the stack node of that level; RAW_LEVEL marks
    rows lifted directly from a raw buffer, with row indexing into that
    buffer.
    """

    level: int
    row: int


@lru_cache(maxsize=256)
def _tag_run(level: int, count: int) -> tuple[RowTag, ...]:
    """RowTag(level, 0) ... RowTag(level, count - 1), shared by every sample."""
    return tuple(RowTag(level, j) for j in range(count))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Training rows with per-row provenance.

    n is the row budget the sample was built against and points_seen
    the stream position of the source view or history, which lets
    callers prove a model never saw data from its own future.  The
    library builds its own samples by _trusted, which skips the tag check.
    """

    rows: DataBlock
    tags: tuple[RowTag, ...]
    n: int
    points_seen: int

    _trusted = classmethod(_wrap)

    def __post_init__(self) -> None:
        if len(self.tags) != self.rows.rows:
            raise ValueError(f"{self.rows.rows} rows carry {len(self.tags)} provenance tags")


def hierarchical_sample(view: TreeView) -> SampleSet:
    """Geometrically weighted draw over the stack, newest rows first.

    Pending raw rows come first and are always kept.  The top (most
    recent) node then contributes its first min(n, rows) rows; a node g
    levels above the top contributes the first floor(n / 2**g) rows, at
    least one.  The total is hard-capped at 2n rows; when the cap binds
    it is the oldest nodes that lose rows, never the pending buffer or
    the top node.
    """
    if not view.nodes and view.pending.shape[0] == 0:
        raise ValueError("cannot sample an empty tree")
    parts = [view.pending]
    tags = list(_tag_run(RAW_LEVEL, view.pending.shape[0]))
    budget = 2 * view.n - view.pending.shape[0]
    top_level = view.nodes[-1].level if view.nodes else 0
    for node in reversed(view.nodes):
        if budget <= 0:
            break
        quota = max(1, view.n >> (node.level - top_level))
        take = min(quota, node.summary.block.rows, budget)
        parts.append(node.summary.block.values[:take])
        tags += _tag_run(node.level, take)
        budget -= take
    return SampleSet._trusted(
        rows=DataBlock._trusted(np.concatenate(parts, dtype=float)),
        tags=tuple(tags),
        n=view.n,
        points_seen=view.points_seen,
    )


def root_sample(view: TreeView) -> SampleSet:
    """All rows of the whole-stream collapse, at most n of them.

    Rows are derived summaries, so they are tagged with the level of
    the deepest contributing node (RAW_LEVEL only when the tree held
    nothing but pending rows).
    """
    summary = collapse(view)
    level = view.nodes[0].level if view.nodes else RAW_LEVEL
    return SampleSet._trusted(
        rows=summary.block,
        tags=_tag_run(level, summary.block.rows),
        n=view.n,
        points_seen=view.points_seen,
    )


def _flat_sample(history: History, idx: np.ndarray, n: int) -> SampleSet:
    """Sample of the history rows at indices idx, copying only those rows."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if len(history) == 0:
        raise ValueError("cannot sample an empty history")
    rows = [history[i] for i in idx]
    tags = tuple(RowTag(level=RAW_LEVEL, row=int(i)) for i in idx)
    return SampleSet(rows=DataBlock(rows), tags=tags, n=n, points_seen=len(history))


def random_sample(history: History, n: int, seed: int) -> SampleSet:
    """n rows drawn uniformly without replacement, in stream order.

    A history shorter than n comes back whole.
    """
    m = len(history)
    idx = np.arange(m)
    if m > n >= 1:
        idx = np.sort(np.random.default_rng(seed).choice(m, size=n, replace=False))
    return _flat_sample(history, idx, n)


def subsample(history: History, n: int) -> SampleSet:
    """n evenly spaced rows: indices floor(j * rows / n) for j < n.

    Duplicate indices (history shorter than n) are dropped, so the
    result always holds exactly min(n, rows) distinct rows.
    """
    m = len(history)
    return _flat_sample(history, np.unique([(j * m) // n for j in range(n)]), n)
