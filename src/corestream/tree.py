"""Merge-and-reduce summary stack over an unbounded row stream.

Incoming rows buffer until a full leaf of n has arrived.  Leaves enter a
stack as level-0 summaries; whenever two stack entries share a level
they are concatenated and compressed back to n rows, forming one entry
a level higher.  The stack therefore holds at most one entry per level
and mirrors a binary counter over the number of leaves seen: after L
leaves exactly popcount(L) entries are live and exactly
L - popcount(L) compressions have run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from .blocks import CoresetBlock, DataBlock, concat_blocks, svd_truncate


@dataclass(frozen=True, eq=False)
class CoresetNode:
    """One stack entry: a summary covering a contiguous span of the stream.

    level is the merge depth (a node at level j stands for n * 2**j
    stream rows), span the half-open [first, last) range of stream
    indices it covers.
    """

    level: int
    summary: CoresetBlock
    span: tuple[int, int]


@dataclass(frozen=True, eq=False)
class TreeView:
    """Immutable picture of a tree at one instant.

    nodes are ordered bottom to top, oldest first, with strictly
    decreasing levels.  pending holds the rows buffered toward the next
    leaf (possibly zero of them), newest last.
    """

    n: int
    dim: int
    nodes: tuple[CoresetNode, ...]
    pending: np.ndarray
    points_seen: int
    leaves_seen: int
    merge_count: int
    max_live_nodes: int


@dataclass(frozen=True)
class MergeReport:
    """What one push did: whether a leaf formed and which levels merged."""

    leaf_formed: bool
    merged_levels: tuple[int, ...]


@dataclass(frozen=True)
class StreamStats:
    """Per-push telemetry series, index-aligned with the pushed rows."""

    merges_per_push: tuple[int, ...]
    cumulative_svds: tuple[int, ...]
    live_nodes: tuple[int, ...]
    push_seconds: tuple[float, ...]
    max_live_nodes: int
    points_seen: int
    leaves_seen: int
    merge_count: int


def _merge(older: CoresetBlock, newer: CoresetBlock, n: int) -> CoresetBlock:
    """The one merge step: concatenate, compress to at most n rows, add constants.

    Older rows go on top of the concatenation so summaries keep stream
    order.  Every merge compresses, even when the concatenation fits the
    budget, so merged rows always come back in sigma_i * v_i form and
    merge_count and the SVD count stay the same number.  The result's c
    is older.c + newer.c plus the new truncation tail, which is zero when
    the concatenation fits.
    """
    cat = concat_blocks(older, newer)
    rows, tail = svd_truncate(cat.block.values, n)
    return CoresetBlock(block=DataBlock(rows), c=cat.c + tail, source_rows=cat.source_rows)


class CoresetTree:
    """Single-writer summary stack with bounded memory.

    push_point is the only mutating operation and must be called from
    one thread at a time; snapshot() may be called concurrently from
    readers and returns a frozen copy that later pushes cannot alter.
    """

    def __init__(self, n: int, dim: int):
        if n < 1:
            raise ValueError(f"leaf size n must be >= 1, got {n}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.n = n
        self.dim = dim
        self._stack: list[CoresetNode] = []
        self._pending: list[np.ndarray] = []
        self._points_seen = 0
        self._leaves_seen = 0
        self._merge_count = 0
        self._max_live_nodes = 0
        self._merges_per_push: list[int] = []
        self._cumulative_svds: list[int] = []
        self._live_nodes: list[int] = []
        self._push_seconds: list[float] = []
        self._lock = threading.Lock()

    @property
    def points_seen(self) -> int:
        return self._points_seen

    @property
    def leaves_seen(self) -> int:
        return self._leaves_seen

    @property
    def merge_count(self) -> int:
        return self._merge_count

    @property
    def max_live_nodes(self) -> int:
        return self._max_live_nodes

    def live_node_count(self) -> int:
        return len(self._stack)

    def pending_count(self) -> int:
        return len(self._pending)

    def push_point(self, row: np.ndarray) -> MergeReport:
        """Append one stream row, forming and merging leaves as needed."""
        row = np.asarray(row, dtype=float)
        if row.shape != (self.dim,):
            raise ValueError(f"expected a row of shape ({self.dim},), got {row.shape}")
        if not np.all(np.isfinite(row)):
            raise ValueError("row entries must be finite")
        with self._lock:
            start = time.perf_counter()
            self._pending.append(row.copy())
            self._points_seen += 1
            leaf_formed = False
            merged_levels: tuple[int, ...] = ()
            if len(self._pending) == self.n:
                leaf_formed = True
                merged_levels = self._absorb_leaf()
            self._merges_per_push.append(len(merged_levels))
            self._cumulative_svds.append(self._merge_count)
            self._live_nodes.append(len(self._stack))
            self._push_seconds.append(time.perf_counter() - start)
            return MergeReport(leaf_formed=leaf_formed, merged_levels=merged_levels)

    def _absorb_leaf(self) -> tuple[int, ...]:
        first = self._points_seen - self.n
        leaf = CoresetBlock(
            block=DataBlock(np.vstack(self._pending)),
            c=0.0,
            source_rows=self.n,
        )
        self._pending = []
        self._leaves_seen += 1
        self._stack.append(CoresetNode(level=0, summary=leaf, span=(first, self._points_seen)))
        # High-water mark includes the instant both same-level siblings
        # coexist, which is the true memory peak of a push.
        self._max_live_nodes = max(self._max_live_nodes, len(self._stack))
        merged: list[int] = []
        while len(self._stack) >= 2 and self._stack[-1].level == self._stack[-2].level:
            newer = self._stack.pop()
            older = self._stack.pop()
            self._stack.append(
                CoresetNode(
                    level=older.level + 1,
                    summary=_merge(older.summary, newer.summary, self.n),
                    span=(older.span[0], newer.span[1]),
                )
            )
            merged.append(older.level)
            self._merge_count += 1
        return tuple(merged)

    def snapshot(self) -> TreeView:
        """Frozen copy of the current state, safe to read concurrently."""
        with self._lock:
            if self._pending:
                pending = np.vstack(self._pending)
            else:
                pending = np.zeros((0, self.dim))
            pending.setflags(write=False)
            return TreeView(
                n=self.n,
                dim=self.dim,
                nodes=tuple(self._stack),
                pending=pending,
                points_seen=self._points_seen,
                leaves_seen=self._leaves_seen,
                merge_count=self._merge_count,
                max_live_nodes=self._max_live_nodes,
            )

    def root_collapse(self) -> CoresetBlock:
        """Single summary of everything seen so far; the tree is unchanged."""
        return collapse(self.snapshot())

    def telemetry(self) -> StreamStats:
        with self._lock:
            return StreamStats(
                merges_per_push=tuple(self._merges_per_push),
                cumulative_svds=tuple(self._cumulative_svds),
                live_nodes=tuple(self._live_nodes),
                push_seconds=tuple(self._push_seconds),
                max_live_nodes=self._max_live_nodes,
                points_seen=self._points_seen,
                leaves_seen=self._leaves_seen,
                merge_count=self._merge_count,
            )


def collapse(view: TreeView) -> CoresetBlock:
    """Merge every live node plus pending rows into one summary block.

    Nodes are folded oldest-first, pending rows last, each fold step
    being the same compressing merge the tree itself runs, so the result
    holds at most min(n, dim) rows in sigma_i * v_i form.  A view with a
    single node and no pending rows comes back as that node's summary,
    and a view holding only pending rows comes back as those raw rows.
    """
    if not view.nodes and view.pending.shape[0] == 0:
        raise ValueError("empty tree has nothing to collapse")
    parts = [node.summary for node in view.nodes]
    if view.pending.shape[0] > 0:
        parts.append(
            CoresetBlock(
                block=DataBlock(view.pending),
                c=0.0,
                source_rows=view.pending.shape[0],
            )
        )
    acc = parts[0]
    for part in parts[1:]:
        acc = _merge(acc, part, view.n)
    return acc


def validate_view(view: TreeView) -> None:
    """Raise ValueError if a view breaks any structural invariant."""
    levels = [node.level for node in view.nodes]
    for lower, upper in zip(levels, levels[1:]):
        if upper >= lower:
            raise ValueError(f"stack levels must strictly decrease, got {levels}")
    live = bin(view.leaves_seen).count("1")
    if len(view.nodes) != live:
        raise ValueError(f"live nodes {len(view.nodes)} != popcount of leaves {view.leaves_seen}")
    if view.merge_count != view.leaves_seen - live:
        raise ValueError(
            f"merge_count {view.merge_count} != leaves {view.leaves_seen} - popcount {live}"
        )
    if view.max_live_nodes != view.leaves_seen.bit_length():
        raise ValueError(
            f"max_live_nodes {view.max_live_nodes} != bit length of leaves {view.leaves_seen}"
        )
    covered = 0
    prev_last = None
    for node in view.nodes:
        first, last = node.span
        if last - first != view.n * (1 << node.level):
            raise ValueError(
                f"node at level {node.level} spans {last - first} rows, "
                f"expected {view.n * (1 << node.level)}"
            )
        if prev_last is not None and first != prev_last:
            raise ValueError("node spans must tile the stream contiguously")
        prev_last = last
        covered += last - first
        if node.summary.block.dim != view.dim:
            raise ValueError(f"node summary has dim {node.summary.block.dim}, view has {view.dim}")
        if node.summary.block.rows > view.n:
            raise ValueError("node summary exceeds the row budget")
        if node.summary.source_rows != last - first:
            raise ValueError("node source_rows disagrees with its span")
        if node.summary.c < 0:
            raise ValueError("node constant must be >= 0")
    if view.pending.ndim != 2 or view.pending.shape[1] != view.dim:
        raise ValueError(f"pending has shape {view.pending.shape}, expected (p, {view.dim})")
    if view.pending.shape[0] >= view.n:
        raise ValueError("pending buffer must stay below one leaf")
    if covered + view.pending.shape[0] != view.points_seen:
        raise ValueError(
            f"covered {covered} + pending {view.pending.shape[0]} "
            f"!= points_seen {view.points_seen}"
        )
    if view.leaves_seen * view.n != covered:
        raise ValueError("leaves_seen disagrees with covered span")
