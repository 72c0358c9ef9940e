"""Bounded training sets drawn from a summary tree, plus flat baselines.

The hierarchical draw favors recency: the newest stack node keeps up to
n rows and every level above it contributes half as many, so old data
fades geometrically instead of falling off a cliff.  The flat baselines
(whole-stream collapse, uniform random, evenly spaced) exist for
comparison and use the same SampleSet container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import DataBlock
from .tree import TreeView, collapse

# Provenance level for rows taken straight from a raw buffer rather
# than from a tree node: the pending buffer or a flat history matrix.
RAW_LEVEL = -1


@dataclass(frozen=True)
class RowTag:
    """Where one sample row came from: a node level and a row index.

    level >= 0 points at the stack node of that level; RAW_LEVEL marks
    rows lifted directly from a raw buffer, with row indexing into that
    buffer.
    """

    level: int
    row: int


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Training rows with per-row provenance.

    n is the row budget the sample was built against and points_seen
    the stream position of the source view or history, which lets
    callers prove a model never saw data from its own future.
    """

    rows: DataBlock
    tags: tuple[RowTag, ...]
    n: int
    points_seen: int

    def __post_init__(self) -> None:
        if len(self.tags) != self.rows.rows:
            raise ValueError(
                f"{self.rows.rows} rows carry {len(self.tags)} provenance tags"
            )


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
    limit = 2 * view.n
    picked: list[np.ndarray] = []
    tags: list[RowTag] = []
    for i in range(view.pending.shape[0]):
        picked.append(view.pending[i])
        tags.append(RowTag(level=RAW_LEVEL, row=i))
    if view.nodes:
        top_level = view.nodes[-1].level
        for node in reversed(view.nodes):
            gap = node.level - top_level
            quota = max(1, view.n >> gap)
            budget = limit - len(picked)
            if budget <= 0:
                break
            take = min(quota, node.summary.block.rows, budget)
            values = node.summary.block.values
            for j in range(take):
                picked.append(values[j])
                tags.append(RowTag(level=node.level, row=j))
    return SampleSet(
        rows=DataBlock(np.vstack(picked)),
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
    tags = tuple(RowTag(level=level, row=j) for j in range(summary.block.rows))
    return SampleSet(
        rows=summary.block,
        tags=tags,
        n=view.n,
        points_seen=view.points_seen,
    )


def random_indices(m: int, n: int, seed: int) -> np.ndarray:
    """Rows random_sample keeps from an m-row history, in stream order.

    n indices drawn uniformly without replacement, or all m when m <= n.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if m <= n:
        return np.arange(m)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(m, size=n, replace=False))


def subsample_indices(m: int, n: int) -> np.ndarray:
    """Rows subsample keeps from an m-row history: the distinct values
    of floor(j * m / n) for j < n."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return np.unique([(j * m) // n for j in range(n)])


def raw_sample(rows: np.ndarray, idx: np.ndarray, n: int, points_seen: int) -> SampleSet:
    """Sample of raw history rows already picked at indices idx.

    Lets a caller holding the history in another form than a DataBlock
    copy only the rows it keeps.
    """
    tags = tuple(RowTag(level=RAW_LEVEL, row=int(i)) for i in idx)
    return SampleSet(rows=DataBlock(rows), tags=tags, n=n, points_seen=points_seen)


def random_sample(history: DataBlock, n: int, seed: int) -> SampleSet:
    """n rows drawn uniformly without replacement, in stream order.

    A history shorter than n comes back whole.
    """
    idx = random_indices(history.rows, n, seed)
    return raw_sample(history.values[idx], idx, n, history.rows)


def subsample(history: DataBlock, n: int) -> SampleSet:
    """n evenly spaced rows: indices floor(j * rows / n) for j < n.

    Duplicate indices (history shorter than n) are dropped, so the
    result always holds exactly min(n, rows) distinct rows.
    """
    idx = subsample_indices(history.rows, n)
    return raw_sample(history.values[idx], idx, n, history.rows)
