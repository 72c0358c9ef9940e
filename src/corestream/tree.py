"""Merge-and-reduce summary stack over an unbounded row stream.

Incoming rows buffer until a full leaf of n has arrived.  Leaves enter a
stack as level-0 summaries; whenever two stack entries share a level
they are concatenated and compressed back to n rows, forming one entry
a level higher.  The stack therefore holds at most one entry per level
and mirrors a binary counter over the number of leaves seen: after L
leaves exactly popcount(L) entries are live and exactly
L - popcount(L) compressions have run.  So only L is stored:
points_seen, merge_count and max_live_nodes are worked out from L and
the pending row count, for the tree and its views alike (_Counters).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .blocks import CoresetBlock, DataBlock, _array, _check_fields, _wrap, concat_blocks, svd_truncate


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


class _Counters:
    """Counters the tree and its views work out from their n,
    leaves_seen and _pending_rows()."""

    @property
    def points_seen(self) -> int:
        return self.leaves_seen * self.n + self._pending_rows()

    @property
    def merge_count(self) -> int:
        return self.leaves_seen - self.leaves_seen.bit_count()

    @property
    def max_live_nodes(self) -> int:
        # Leaf l arrives beside popcount(l - 1) live nodes, and the largest
        # popcount(l - 1) + 1 over l <= L is the bit length of L.
        return self.leaves_seen.bit_length()


@dataclass(frozen=True, eq=False)
class TreeView(_Counters):
    """Immutable picture of a tree at one instant.

    nodes are ordered bottom to top, oldest first, with strictly
    decreasing levels.  pending holds the rows buffered toward the next
    leaf (possibly zero of them), newest last.  The constructor checks
    every invariant and keeps a read-only copy; snapshot() uses _trusted.
    """

    n: int
    dim: int
    nodes: tuple[CoresetNode, ...]
    pending: np.ndarray
    leaves_seen: int

    _trusted = classmethod(_wrap)

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.n < 1 or self.dim < 1:
            raise ValueError(f"need n >= 1 and dim >= 1, got n={self.n}, dim={self.dim}")
        pending = _array(self.pending, (None, self.dim), "pending rows", copy=True)
        object.__setattr__(self, "pending", pending)
        levels = [node.level for node in self.nodes]
        for lower, upper in zip(levels, levels[1:]):
            if upper >= lower:
                raise ValueError(f"stack levels must strictly decrease, got {levels}")
        if len(self.nodes) != self.leaves_seen.bit_count():
            raise ValueError(f"live nodes {len(self.nodes)} != popcount of leaves {self.leaves_seen}")
        covered = 0
        for node in self.nodes:
            first, last = node.span
            if last - first != self.n * (1 << node.level):
                raise ValueError(
                    f"node at level {node.level} spans {last - first} rows, "
                    f"expected {self.n * (1 << node.level)}"
                )
            if first != covered:
                raise ValueError("node spans must tile the stream contiguously from row 0")
            covered = last
            if node.summary.block.dim != self.dim:
                raise ValueError(f"node summary has dim {node.summary.block.dim}, view has {self.dim}")
            if node.summary.block.rows > self.n:
                raise ValueError("node summary exceeds the row budget")
            if node.summary.source_rows != last - first:
                raise ValueError("node source_rows disagrees with its span")
        if pending.shape[0] >= self.n:
            raise ValueError("pending buffer must stay below one leaf")
        if self.leaves_seen * self.n != covered:
            raise ValueError("leaves_seen disagrees with covered span")

    def _pending_rows(self) -> int:
        return self.pending.shape[0]


@dataclass(frozen=True)
class MergeReport:
    """What one push did: whether a leaf formed and which levels merged."""

    leaf_formed: bool
    merged_levels: tuple[int, ...]


# Most pushes only buffer their row; they all share this frozen report.
_NO_LEAF = MergeReport(leaf_formed=False, merged_levels=())


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
    return CoresetBlock(block=DataBlock._trusted(rows), c=cat.c + tail, source_rows=cat.source_rows)


class CoresetTree(_Counters):
    """Single-writer summary stack with bounded memory.

    push_point and push_rows must be called from one thread at a time;
    snapshot() may be called concurrently from readers and returns a
    frozen copy that later pushes cannot alter.

    It keeps no per-push history, so its size depends on n and dim only;
    a per-push record is each push's MergeReport plus the counters.
    """

    def __init__(self, n: int, dim: int):
        if n < 1:
            raise ValueError(f"leaf size n must be >= 1, got {n}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.n = n
        self.dim = dim
        self._stack: list[CoresetNode] = []
        self._leaf = np.empty((n, dim))
        self._fill = 0
        self._leaves_seen = 0
        self._lock = threading.Lock()

    @property
    def leaves_seen(self) -> int:
        return self._leaves_seen

    def live_node_count(self) -> int:
        return len(self._stack)

    def _pending_rows(self) -> int:
        return self._fill

    def push_point(self, row: np.ndarray) -> MergeReport:
        """Append one stream row, forming and merging leaves as needed."""
        return self._push(_array(row, (self.dim,), "row entries")[None])

    def push_rows(self, rows: np.ndarray) -> int:
        """Append rows in stream order; return the number of leaves formed.

        The tree ends as if each row had gone through push_point.  The
        whole batch is checked before any row goes in, and the lock is
        held for one leaf at a time, so snapshot() waits at most one cascade.
        """
        rows = _array(rows, (None, self.dim), "row entries")
        leaves = start = 0
        while start < rows.shape[0]:
            stop = start + self.n - self._fill
            leaves += self._push(rows[start:stop]).leaf_formed
            start = stop
        return leaves

    def _push(self, part: np.ndarray) -> MergeReport:
        """Copy checked rows that fit the open leaf into its buffer, and
        absorb the leaf if they fill it."""
        k = part.shape[0]
        with self._lock:
            fill = self._fill + k
            self._leaf[self._fill : fill] = part
            if fill < self.n:
                self._fill = fill
                return _NO_LEAF
            # The leaf's last row counts once its merges succeed, so a merge
            # that raises leaves the rows before it pending, as per-row pushes do.
            self._fill = fill - 1
            return self._absorb_leaf()

    def _absorb_leaf(self) -> MergeReport:
        """Form a leaf from the full buffer, then run its merge cascade.

        Nothing is committed until every merge has succeeded, so a merge
        that raises leaves the tree as it was before the leaf's last row.
        """
        first = self._leaves_seen * self.n
        leaf = CoresetBlock(
            block=DataBlock._trusted(self._leaf.copy()),
            c=0.0,
            source_rows=self.n,
        )
        node = CoresetNode(level=0, summary=leaf, span=(first, first + self.n))
        keep = len(self._stack)
        merged: list[int] = []
        while keep and self._stack[keep - 1].level == node.level:
            keep -= 1
            older = self._stack[keep]
            node = CoresetNode(
                level=older.level + 1,
                summary=_merge(older.summary, node.summary, self.n),
                span=(older.span[0], node.span[1]),
            )
            merged.append(older.level)
        del self._stack[keep:]
        self._stack.append(node)
        self._fill = 0
        self._leaves_seen += 1
        return MergeReport(leaf_formed=True, merged_levels=tuple(merged))

    def snapshot(self) -> TreeView:
        """Frozen copy of the current state, safe to read concurrently."""
        with self._lock:
            pending = self._leaf[: self._fill].copy()
            pending.setflags(write=False)
            return TreeView._trusted(
                n=self.n,
                dim=self.dim,
                nodes=tuple(self._stack),
                pending=pending,
                leaves_seen=self._leaves_seen,
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
                block=DataBlock._trusted(view.pending),
                c=0.0,
                source_rows=view.pending.shape[0],
            )
        )
    acc = parts[0]
    for part in parts[1:]:
        acc = _merge(acc, part, view.n)
    return acc
