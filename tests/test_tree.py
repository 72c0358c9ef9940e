"""Tests for the merge-and-reduce stack: counters, spans, collapse."""

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corestream import (
    CoresetBlock,
    CoresetTree,
    DataBlock,
    TreeView,
    collapse,
    dist_sq,
    hierarchical_sample,
    random_orthonormal,
)
from corestream import bench
from corestream.sampling import _tag_run


def push_stream(tree: CoresetTree, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, tree.dim))
    for row in rows:
        tree.push_point(row)
    return rows


def low_rank_rows(count: int, dim: int, rank: int, seed: int, noise: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    basis = random_orthonormal(dim, rank, seed + 77).T
    rows = rng.standard_normal((count, rank)) @ basis
    if noise > 0:
        rows = rows + noise * rng.standard_normal((count, dim))
    return rows


def test_constructor_validation():
    with pytest.raises(ValueError):
        CoresetTree(0, 3)
    with pytest.raises(ValueError):
        CoresetTree(3, 0)


@pytest.mark.parametrize(
    "n, dim",
    [
        pytest.param(2.0, 3, id="n-float"),
        pytest.param(True, 3, id="n-bool"),
        pytest.param(2, 3.0, id="dim-float"),
        pytest.param(2, True, id="dim-bool"),
    ],
)
def test_constructor_leaves_non_integer_sizes_to_numpy(n, dim):
    # The leaf buffer's np.empty((n, dim)) already refuses a float or a
    # boolean size, so the tree adds no field check of its own.
    with pytest.raises(TypeError):
        CoresetTree(n, dim)


def test_push_point_validation():
    tree = CoresetTree(2, 3)
    with pytest.raises(ValueError):
        tree.push_point(np.ones(2))
    with pytest.raises(ValueError):
        tree.push_point(np.ones((1, 3)))
    with pytest.raises(ValueError):
        tree.push_point(np.array([1.0, np.nan, 0.0]))
    assert tree.points_seen == 0


@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_pushes_refuse_a_non_finite_first_or_last_entry(value, where):
    tree = CoresetTree(4, 3)
    row = np.ones(3)
    row[where] = value
    with pytest.raises(ValueError, match="^row entries must be finite$"):
        tree.push_point(row)
    rows = np.ones((6, 3))
    rows[where, where] = value
    with pytest.raises(ValueError, match="^row entries must be finite$"):
        tree.push_rows(rows)
    assert tree.points_seen == 0


def test_rows_near_the_float_limit_are_accepted_without_a_warning():
    # RuntimeWarning is an error under pytest, so any overflow in the
    # finite check would fail here.
    tree = CoresetTree(4, 3)
    tree.push_point(np.array([1.7e308, -1.7e308, 1.7e308]))
    tree.push_rows(np.array([[-1.7e308, 1.7e308, -1.7e308]] * 2))
    assert tree.points_seen == 3


def test_a_merge_that_overflows_raises():
    # Every entry is finite, but the merged leaves' top singular value
    # lies beyond the float range.  The failed push commits nothing: the
    # tree keeps the leaf the merge would have consumed and the pending
    # row, and its counters read as before the push.
    tree = CoresetTree(2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            tree.push_point(np.full(2, 1e308))
        with pytest.raises(ValueError, match="overflow"):
            tree.push_point(np.full(2, 1e308))
    replace(tree.snapshot())
    assert tree.points_seen == 3
    assert tree.leaves_seen == 1
    assert tree.merge_count == 0
    assert tree.max_live_nodes == 1
    assert tree.live_node_count() == 1
    assert tree.snapshot().pending.shape[0] == 1


def test_the_tree_builds_no_publicly_validated_blocks(monkeypatch):
    # Leaves, merges and samples wrap arrays the library built from rows
    # push_point already checked; only the public constructor validates.
    calls = []
    validate = DataBlock.__post_init__

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(DataBlock, "__post_init__", counting)
    tree = CoresetTree(64, 16)
    push_stream(tree, 4106, seed=5)
    assert (tree.leaves_seen, tree.merge_count) == (64, 63)
    assert calls == []
    hierarchical_sample(tree.snapshot())
    assert calls == []
    DataBlock(np.ones((2, 2)))
    assert len(calls) == 1


def test_leaf_merge_and_sample_arrays_are_read_only():
    tree = CoresetTree(4, 3)
    push_stream(tree, 3 * 4 + 2, seed=3)
    view = tree.snapshot()
    assert [node.level for node in view.nodes] == [1, 0]
    arrays = [node.summary.block.values for node in view.nodes]
    arrays.append(hierarchical_sample(view).rows.values)
    for values in arrays:
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0


def test_leaf_forms_at_exactly_n_rows():
    tree = CoresetTree(4, 2)
    reports = [tree.push_point(np.array([float(i), 0.0])) for i in range(4)]
    assert [r.leaf_formed for r in reports] == [False, False, False, True]
    assert tree.snapshot().pending.shape[0] == 0
    assert tree.leaves_seen == 1
    assert tree.live_node_count() == 1


def test_counter_identities_across_many_leaves():
    # After L leaves the stack mirrors a binary counter: popcount(L)
    # live entries and L - popcount(L) completed merges.
    tree = CoresetTree(2, 3)
    for leaf in range(1, 65):
        push_stream(tree, 2, seed=leaf)
        assert tree.leaves_seen == leaf
        assert tree.live_node_count() == bin(leaf).count("1")
        assert tree.merge_count == leaf - bin(leaf).count("1")


@settings(deadline=None, max_examples=40, derandomize=True)
@given(points=st.integers(0, 100), n=st.integers(1, 5), seed=st.integers(0, 100))
def test_derived_counters_match_counts_kept_by_the_caller(points, n, seed):
    # The tree derives its counters from leaves_seen; this test counts
    # rows, merges and the live-node peak itself, one push at a time.
    tree = CoresetTree(n, 2)
    merges = peak = 0
    for pushed, row in enumerate(np.random.default_rng(seed).standard_normal((points, 2)), 1):
        live_before = tree.live_node_count()
        report = tree.push_point(row)
        merges += len(report.merged_levels)
        if report.leaf_formed:
            peak = max(peak, live_before + 1)
        assert tree.points_seen == pushed
        assert tree.merge_count == merges
        assert tree.max_live_nodes == peak
        view = tree.snapshot()
        assert (view.points_seen, view.merge_count, view.max_live_nodes) == (pushed, merges, peak)


def test_burst_at_power_of_two_leaves():
    tree = CoresetTree(2, 3)
    bursts = {}
    for i in range(2 * 32):
        report = tree.push_point(np.random.default_rng(i).standard_normal(3))
        if report.leaf_formed:
            bursts[tree.leaves_seen] = report.merged_levels
    for q in range(1, 6):
        assert bursts[2**q] == tuple(range(q))
        assert len(bursts[2**q]) == q


def test_snapshot_is_frozen():
    tree = CoresetTree(3, 2)
    push_stream(tree, 7, seed=1)
    view = tree.snapshot()
    assert view.points_seen == 7
    assert view.pending.shape[0] == 1
    with pytest.raises(ValueError):
        view.pending[0, 0] = 9.0
    push_stream(tree, 6, seed=2)
    assert view.points_seen == 7
    assert len(view.nodes) == 1  # popcount(2 leaves)
    assert tree.points_seen == 13


@settings(deadline=None, max_examples=30, derandomize=True)
@given(points=st.integers(1, 120), n=st.integers(1, 6), seed=st.integers(0, 100))
def test_any_view_passes_structural_validation(points, n, seed):
    tree = CoresetTree(n, 3)
    push_stream(tree, points, seed=seed)
    view = tree.snapshot()
    replace(view)
    assert view.points_seen == points
    assert view.leaves_seen == points // n
    assert sum(node.summary.source_rows for node in view.nodes) + view.pending.shape[0] == points


def test_validate_view_catches_corruption():
    tree = CoresetTree(2, 3)
    push_stream(tree, 6, seed=3)
    good = tree.snapshot()
    replace(good)
    with pytest.raises(ValueError):
        TreeView(
            n=good.n,
            dim=good.dim,
            nodes=good.nodes,
            pending=good.pending,
            leaves_seen=good.leaves_seen + 1,
        )
    with pytest.raises(ValueError):
        TreeView(
            n=good.n,
            dim=good.dim,
            nodes=good.nodes[::-1],
            pending=good.pending,
            leaves_seen=good.leaves_seen,
        )


def _node_with(node, **summary):
    """node with some of its summary's fields replaced."""
    return replace(node, summary=replace(node.summary, **summary))


# Each case breaks one structural invariant of a valid n=2, dim=3 view
# over 7 rows: nodes at levels 1 and 0 spanning [0, 4) and [4, 6), and
# one pending row.
@pytest.mark.parametrize(
    "fault, message",
    [
        pytest.param(lambda v: dict(n=0), "need n >= 1 and dim >= 1", id="n-below-1"),
        pytest.param(lambda v: dict(dim=0), "need n >= 1 and dim >= 1", id="dim-below-1"),
        pytest.param(
            lambda v: dict(nodes=v.nodes[::-1]),
            "stack levels must strictly decrease",
            id="levels-not-decreasing",
        ),
        pytest.param(
            lambda v: dict(leaves_seen=4), "live nodes 2 != popcount of leaves 4", id="popcount"
        ),
        pytest.param(
            lambda v: dict(nodes=(replace(v.nodes[0], span=(0, 3)), v.nodes[1])),
            "node at level 1 spans 3 rows, expected 4",
            id="span-length",
        ),
        pytest.param(
            lambda v: dict(
                nodes=tuple(replace(x, span=(x.span[0] + 1, x.span[1] + 1)) for x in v.nodes)
            ),
            "must tile the stream contiguously from row 0",
            id="spans-not-from-row-0",
        ),
        pytest.param(
            lambda v: dict(
                nodes=(_node_with(v.nodes[0], block=DataBlock(np.ones((2, 4)))), v.nodes[1])
            ),
            "node summary has dim 4, view has 3",
            id="node-dim",
        ),
        pytest.param(
            lambda v: dict(
                nodes=(_node_with(v.nodes[0], block=DataBlock(np.ones((3, 3)))), v.nodes[1])
            ),
            "node summary exceeds the row budget",
            id="node-rows-over-n",
        ),
        pytest.param(
            lambda v: dict(nodes=(_node_with(v.nodes[0], source_rows=5), v.nodes[1])),
            "node source_rows disagrees with its span",
            id="source-rows-off-span",
        ),
        pytest.param(
            lambda v: dict(pending=np.ones((1, 4))),
            "pending rows must be shaped",
            id="pending-shape",
        ),
        pytest.param(
            lambda v: dict(pending=np.ones((2, 3))),
            "pending buffer must stay below one leaf",
            id="pending-full-leaf",
        ),
        pytest.param(
            lambda v: dict(leaves_seen=5),
            "leaves_seen disagrees with covered span",
            id="leaves-seen-off-coverage",
        ),
    ],
)
def test_the_view_constructor_refuses_each_structural_fault(fault, message):
    tree = CoresetTree(2, 3)
    push_stream(tree, 7, seed=3)
    good = tree.snapshot()
    assert [(x.level, x.span) for x in good.nodes] == [(1, (0, 4)), (0, (4, 6))]
    assert good.pending.shape == (1, 3)
    fields = dict(n=2, dim=3, nodes=good.nodes, pending=good.pending, leaves_seen=3)
    with pytest.raises(ValueError, match=message):
        TreeView(**{**fields, **fault(good)})
    with pytest.raises(ValueError, match=message):
        replace(good, **fault(good))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_hand_built_view_refuses_non_finite_pending_rows(value):
    tree = CoresetTree(4, 3)
    push_stream(tree, 3 * 4 + 2, seed=5)
    view = tree.snapshot()
    pending = np.array(view.pending)
    pending[1, 2] = value
    fields = dict(n=view.n, dim=view.dim, nodes=view.nodes, leaves_seen=view.leaves_seen)
    with pytest.raises(ValueError, match="pending rows must be finite"):
        TreeView(pending=pending, **fields)
    with pytest.raises(ValueError, match="pending rows must be finite"):
        replace(view, pending=pending)


def test_a_hand_built_view_keeps_a_read_only_copy_of_its_pending_rows():
    tree = CoresetTree(4, 3)
    push_stream(tree, 2 * 4 + 3, seed=6)
    good = tree.snapshot()
    pending = np.array(good.pending)
    view = TreeView(n=4, dim=3, nodes=good.nodes, pending=pending, leaves_seen=good.leaves_seen)
    pending[0, 0] = 1e9
    assert np.array_equal(view.pending, good.pending)
    with pytest.raises(ValueError):
        view.pending[0, 0] = 1e9
    replace(view)


@pytest.mark.parametrize("points", [3, 4 * 4, 5 * 4 + 3])
def test_a_snapshot_view_matches_one_built_by_the_public_constructor(points):
    # snapshot() skips the constructor's check and copy; what it hands
    # out must not be told apart from a view that went through them.
    tree = CoresetTree(4, 3)
    push_stream(tree, points, seed=7)
    view = tree.snapshot()
    built = TreeView(
        n=view.n,
        dim=view.dim,
        nodes=view.nodes,
        pending=view.pending,
        leaves_seen=view.leaves_seen,
    )
    assert (view.n, view.dim, view.leaves_seen) == (built.n, built.dim, built.leaves_seen)
    assert all(a is b for a, b in zip(view.nodes, built.nodes, strict=True))
    assert view.pending.dtype == built.pending.dtype == np.float64
    assert view.pending.shape == built.pending.shape
    assert view.pending.tobytes() == built.pending.tobytes()
    assert not view.pending.flags.writeable and not built.pending.flags.writeable
    for counter in ("points_seen", "merge_count", "max_live_nodes"):
        assert getattr(view, counter) == getattr(built, counter)
    replace(view)
    replace(built)


def test_node_spans_tile_the_stream():
    tree = CoresetTree(3, 2)
    push_stream(tree, 33, seed=4)
    view = tree.snapshot()
    edges = [span for node in view.nodes for span in node.span]
    assert edges[0] == 0
    for node in view.nodes:
        first, last = node.span
        assert last - first == 3 * 2**node.level
    for left, right in zip(view.nodes, view.nodes[1:]):
        assert left.span[1] == right.span[0]


def test_max_live_nodes_tracks_the_transient_peak():
    # With n = 1 every push is a leaf; pushing the fourth point stacks a
    # third level-0 sibling before the cascade, and that instant is the
    # true memory peak.
    tree = CoresetTree(1, 2)
    push_stream(tree, 4, seed=5)
    assert tree.live_node_count() == 1
    assert tree.max_live_nodes == 3


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
def test_peak_live_nodes_never_exceed_the_bench_bound(n):
    # After L leaves the peak is the bit length of L, which never exceeds
    # the live_bound = floor(log2(max(points / n, 1))) + 1 that bench
    # reports beside it, so bench needs no runtime check of its own.
    for points in [*range(300), 1000, 4095, 4096, 4097]:
        row = bench.stream_bench(points, n, 1, 0)
        assert row.max_live_nodes == row.leaves.bit_length() <= row.live_bound, points


def test_tree_memory_does_not_grow_with_the_stream():
    # The object's size depends on n and dim only.  Each stream below
    # ends on a single live node, so 4x and 16x the pushes must hold the
    # same memory up to numpy's own small caches (about 1 KB here).  A
    # per-push log of even one pointer would add 8 B a push, over 100 KB
    # between the first and last stream.  Both ingest paths are checked.
    n, dim = 8, 4

    def per_row(tree, rows):
        for row in rows:
            tree.push_point(row)

    for ingest in (per_row, CoresetTree.push_rows):
        # One untraced merge first, so numpy's one-time allocations are
        # not charged to the first stream.
        ingest(CoresetTree(n, dim), np.random.default_rng(0).standard_normal((2 * n, dim)))
        held = []
        for k in (10, 12, 14):
            rows = np.random.default_rng(k).standard_normal((2**k, dim))
            tracemalloc.start()
            try:
                tree = CoresetTree(n, dim)
                ingest(tree, rows)
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert tree.live_node_count() == 1
        assert max(held) - min(held) < 4096, (ingest, held)


def test_read_path_memory_does_not_grow_with_the_stream():
    # A hierarchical_sample after every leaf keeps nothing per read.  Its
    # one process-wide term is the cache of shared tag runs (at most 256
    # runs of at most n tags), which the untraced warm-up stream fills for
    # every level the traced streams reach.  So 4x and 16x the reads must
    # hold the same memory, within the spread of the ingest test above.
    # Building each sample's tags as tuple(chain(...)) fails here: the
    # tuples it resizes pile up in CPython's tuple free lists, one per
    # read, about 250 KB over 2**14 rows.
    n, dim = 8, 4

    def sample_every_leaf(rows):
        tree = CoresetTree(n, dim)
        for row in rows:
            if tree.push_point(row).leaf_formed:
                sample = hierarchical_sample(tree.snapshot())
        return tree, sample

    sample_every_leaf(np.random.default_rng(0).standard_normal((2**14, dim)))
    runs = _tag_run.cache_info().currsize
    held = []
    for k in (10, 12, 14):
        rows = np.random.default_rng(k).standard_normal((2**k, dim))
        tracemalloc.start()
        try:
            tree, sample = sample_every_leaf(rows)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert tree.live_node_count() == 1 and sample.rows.rows == min(n, dim)
    assert _tag_run.cache_info().currsize == runs
    assert max(held) - min(held) < 4096, held


def assert_same_state(a: CoresetTree, b: CoresetTree) -> None:
    """Bit-identical nodes, constants, spans, pending rows and counters."""
    va, vb = a.snapshot(), b.snapshot()
    counters = ("points_seen", "leaves_seen", "merge_count", "max_live_nodes")
    assert [getattr(va, f) for f in counters] == [getattr(vb, f) for f in counters]
    assert va.pending.shape == vb.pending.shape
    assert va.pending.tobytes() == vb.pending.tobytes()
    assert len(va.nodes) == len(vb.nodes)
    for na, nb in zip(va.nodes, vb.nodes):
        assert (na.level, na.span) == (nb.level, nb.span)
        assert na.summary.source_rows == nb.summary.source_rows
        assert na.summary.c == nb.summary.c
        assert na.summary.block.values.shape == nb.summary.block.values.shape
        assert na.summary.block.values.tobytes() == nb.summary.block.values.tobytes()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    n=st.integers(1, 10),
    sizes=st.lists(st.integers(0, 25), max_size=12),
    seed=st.integers(0, 100),
)
def test_push_rows_matches_per_row_pushes(n, sizes, seed):
    # Batches of any length, empty ones and ones spanning several
    # leaves included, build the tree per-row pushes build.
    rows = np.random.default_rng(seed).standard_normal((sum(sizes), 3))
    per_row, batched = CoresetTree(n, 3), CoresetTree(n, 3)
    for row in rows:
        per_row.push_point(row)
    start = 0
    for size in sizes:
        leaves = batched.leaves_seen
        assert batched.push_rows(rows[start : start + size]) == batched.leaves_seen - leaves
        start += size
    assert batched.snapshot().pending.shape[0] == per_row.snapshot().pending.shape[0]
    assert_same_state(batched, per_row)


def test_push_rows_stops_where_per_row_pushes_stop_on_a_raising_merge():
    # The second leaf's merge overflows.  As with per-row pushes, the
    # rows before that leaf's last row stay pushed and nothing after it
    # goes in.
    tree = CoresetTree(2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflow"):
            tree.push_rows(np.full((6, 2), 1e308))
    replace(tree.snapshot())
    assert tree.points_seen == 3
    assert tree.leaves_seen == 1
    assert tree.merge_count == 0
    assert tree.live_node_count() == 1
    assert tree.snapshot().pending.shape[0] == 1


@pytest.mark.parametrize(
    "batch",
    [np.ones((5, 2)), np.ones(3), np.vstack([np.ones((4, 3)), [[1.0, 2.0, np.nan]]])],
    ids=["wrong-width", "one-dimensional", "nan-in-last-row"],
)
def test_a_bad_batch_leaves_the_tree_untouched(batch):
    # n=2 with one row pending: an unchecked batch would complete a leaf
    # before reaching its bad row.
    tree, twin = CoresetTree(2, 3), CoresetTree(2, 3)
    push_stream(tree, 5, seed=6)
    push_stream(twin, 5, seed=6)
    with pytest.raises(ValueError):
        tree.push_rows(batch)
    assert_same_state(tree, twin)


def test_snapshots_taken_during_push_rows_are_consistent():
    # push_rows releases the lock between leaves; every view a reader
    # takes meanwhile must still pass structural validation.  At this
    # size a _push that skipped the lock fails this test reliably.
    tree = CoresetTree(2, 3)
    rows = np.random.default_rng(14).standard_normal((12001, 3))
    done = threading.Event()
    failures = []

    def read():
        while not done.is_set():
            try:
                replace(tree.snapshot())
            except ValueError as exc:
                failures.append(exc)

    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        tree.push_rows(rows)
    finally:
        done.set()
        sys.setswitchinterval(interval)
        for reader in readers:
            reader.join(timeout=30)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert tree.points_seen == rows.shape[0]


def test_identical_streams_build_identical_trees():
    a = CoresetTree(3, 4)
    b = CoresetTree(3, 4)
    rows = np.random.default_rng(7).standard_normal((40, 4))
    for row in rows:
        a.push_point(row)
        b.push_point(row)
    va, vb = a.snapshot(), b.snapshot()
    assert len(va.nodes) == len(vb.nodes)
    for na, nb in zip(va.nodes, vb.nodes):
        assert na.level == nb.level
        assert na.span == nb.span
        assert np.array_equal(na.summary.block.values, nb.summary.block.values)
        assert na.summary.c == nb.summary.c


def test_collapse_empty_tree_raises():
    tree = CoresetTree(2, 2)
    with pytest.raises(ValueError):
        collapse(tree.snapshot())


def test_collapse_single_node_is_that_summary():
    tree = CoresetTree(3, 2)
    push_stream(tree, 3, seed=8)
    view = tree.snapshot()
    out = collapse(view)
    assert np.array_equal(out.block.values, view.nodes[0].summary.block.values)
    assert out.c == view.nodes[0].summary.c


def test_collapse_pending_only():
    tree = CoresetTree(5, 2)
    rows = push_stream(tree, 3, seed=9)
    out = collapse(tree.snapshot())
    assert out.c == 0.0
    assert np.allclose(out.block.values, rows)
    assert out.source_rows == 3


def test_root_collapse_respects_budget_and_conservation():
    tree = CoresetTree(4, 5)
    push_stream(tree, 57, seed=10)
    root = collapse(tree.snapshot())
    assert root.block.rows <= 4
    assert root.source_rows == 57
    assert root.c >= 0.0
    # Collapsing must not disturb the tree itself.
    replace(tree.snapshot())
    assert tree.points_seen == 57


def test_root_collapse_exact_on_low_rank_stream():
    dim, rank, n = 6, 2, 4
    rows = low_rank_rows(n * 16, dim, rank, seed=11)
    tree = CoresetTree(n, dim)
    for row in rows:
        tree.push_point(row)
    root = collapse(tree.snapshot())
    everything = DataBlock(rows)
    for t in range(20):
        y = random_orthonormal(dim, 1 + t % (dim - 1), 500 + t)
        want = dist_sq(everything, y)
        got = dist_sq(root.block, y) + root.c
        assert abs(want - got) <= 1e-8 * max(want, 1.0)


def test_node_constant_grows_with_lossy_merges():
    tree = CoresetTree(2, 4)
    push_stream(tree, 32, seed=12)
    view = tree.snapshot()
    assert any(node.summary.c > 0 for node in view.nodes)
    for node in view.nodes:
        assert node.summary.block.rows <= 2


@pytest.mark.parametrize("n, dim, points", [(64, 16, 6 * 64 + 1), (8, 3, 6 * 8 + 2)])
def test_root_collapse_is_canonical_when_the_fold_fits_the_budget(n, dim, points):
    # Six leaves leave two compressed nodes of dim rows each; with the
    # pending rows the whole fold fits n rows, and every fold step
    # still compresses to the sigma_i * v_i form the nodes have.
    tree = CoresetTree(n, dim)
    push_stream(tree, points, seed=13)
    view = tree.snapshot()
    parts = [node.summary.block.values for node in view.nodes] + [view.pending]
    assert sum(part.shape[0] for part in parts) <= n
    root = collapse(view)
    assert root.block.rows == min(n, dim)
    norms = np.linalg.norm(root.block.values, axis=1)
    assert np.all(np.diff(norms) <= 0.0)
    for row in root.block.values:
        assert row[np.argmax(np.abs(row))] > 0.0
    assert root.c == sum(node.summary.c for node in view.nodes)
    assert root.source_rows == points
    gram = sum(part.T @ part for part in parts)
    assert np.max(np.abs(root.block.values.T @ root.block.values - gram)) <= 1e-9 * np.max(gram)
