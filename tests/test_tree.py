"""Tests for the merge-and-reduce stack: counters, spans, collapse."""

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
    random_orthonormal,
    validate_view,
)


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


def test_push_point_validation():
    tree = CoresetTree(2, 3)
    with pytest.raises(ValueError):
        tree.push_point(np.ones(2))
    with pytest.raises(ValueError):
        tree.push_point(np.ones((1, 3)))
    with pytest.raises(ValueError):
        tree.push_point(np.array([1.0, np.nan, 0.0]))
    assert tree.points_seen == 0


def test_leaf_forms_at_exactly_n_rows():
    tree = CoresetTree(4, 2)
    reports = [tree.push_point(np.array([float(i), 0.0])) for i in range(4)]
    assert [r.leaf_formed for r in reports] == [False, False, False, True]
    assert tree.pending_count() == 0
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
    validate_view(view)
    assert view.points_seen == points
    assert view.leaves_seen == points // n
    assert sum(node.summary.source_rows for node in view.nodes) + view.pending.shape[0] == points


def test_validate_view_catches_corruption():
    tree = CoresetTree(2, 3)
    push_stream(tree, 6, seed=3)
    good = tree.snapshot()
    validate_view(good)
    bad = TreeView(
        n=good.n,
        dim=good.dim,
        nodes=good.nodes,
        pending=good.pending,
        points_seen=good.points_seen + 1,
        leaves_seen=good.leaves_seen,
        merge_count=good.merge_count,
        max_live_nodes=good.max_live_nodes,
    )
    with pytest.raises(ValueError):
        validate_view(bad)
    bad = TreeView(
        n=good.n,
        dim=good.dim,
        nodes=good.nodes[::-1],
        pending=good.pending,
        points_seen=good.points_seen,
        leaves_seen=good.leaves_seen,
        merge_count=good.merge_count,
        max_live_nodes=good.max_live_nodes,
    )
    with pytest.raises(ValueError):
        validate_view(bad)


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


def test_telemetry_series_are_aligned_and_consistent():
    tree = CoresetTree(2, 4)
    push_stream(tree, 25, seed=6)
    stats = tree.telemetry()
    assert len(stats.merges_per_push) == 25
    assert len(stats.cumulative_svds) == 25
    assert len(stats.live_nodes) == 25
    assert len(stats.push_seconds) == 25
    assert sum(stats.merges_per_push) == stats.merge_count
    assert stats.cumulative_svds[-1] == stats.merge_count
    assert stats.live_nodes[-1] == tree.live_node_count()
    assert stats.points_seen == 25
    assert all(t >= 0.0 for t in stats.push_seconds)
    running = np.cumsum(stats.merges_per_push)
    assert list(running) == list(stats.cumulative_svds)


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
    out = tree.root_collapse()
    assert out.c == 0.0
    assert np.allclose(out.block.values, rows)
    assert out.source_rows == 3


def test_root_collapse_respects_budget_and_conservation():
    tree = CoresetTree(4, 5)
    push_stream(tree, 57, seed=10)
    root = tree.root_collapse()
    assert root.block.rows <= 4
    assert root.source_rows == 57
    assert root.c >= 0.0
    # Collapsing must not disturb the tree itself.
    validate_view(tree.snapshot())
    assert tree.points_seen == 57


def test_root_collapse_exact_on_low_rank_stream():
    dim, rank, n = 6, 2, 4
    rows = low_rank_rows(n * 16, dim, rank, seed=11)
    tree = CoresetTree(n, dim)
    for row in rows:
        tree.push_point(row)
    root = tree.root_collapse()
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
    root = tree.root_collapse()
    assert root.block.rows == min(n, dim)
    norms = np.linalg.norm(root.block.values, axis=1)
    assert np.all(np.diff(norms) <= 0.0)
    for row in root.block.values:
        assert row[np.argmax(np.abs(row))] > 0.0
    assert root.c == sum(node.summary.c for node in view.nodes)
    assert root.source_rows == points
    gram = sum(part.T @ part for part in parts)
    assert np.max(np.abs(root.block.values.T @ root.block.values - gram)) <= 1e-9 * np.max(gram)
