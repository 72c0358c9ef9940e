"""Tests for the bounded training-set builders."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corestream import (
    CoresetTree,
    DataBlock,
    RAW_LEVEL,
    RowTag,
    SampleSet,
    collapse,
    hierarchical_sample,
    random_sample,
    root_sample,
    subsample,
)
from corestream import tracking
from corestream.sampling import _tag_run


def grown_tree(points: int, n: int, dim: int = 4, seed: int = 0) -> CoresetTree:
    tree = CoresetTree(n, dim)
    rng = np.random.default_rng(seed)
    for row in rng.standard_normal((points, dim)):
        tree.push_point(row)
    return tree


def test_sample_set_tag_count_must_match():
    rows = DataBlock(np.ones((2, 3)))
    with pytest.raises(ValueError):
        SampleSet(rows=rows, tags=(RowTag(0, 0),), n=2, points_seen=2)


def test_hierarchical_on_single_leaf_returns_the_leaf():
    n = 5
    tree = grown_tree(n, n)
    sample = hierarchical_sample(tree.snapshot())
    assert sample.rows.rows == n
    assert all(tag.level == 0 for tag in sample.tags)
    assert sample.points_seen == n
    assert sample.n == n


def test_hierarchical_pending_only():
    tree = grown_tree(3, 8)
    view = tree.snapshot()
    sample = hierarchical_sample(view)
    assert sample.rows.rows == 3
    assert all(tag.level == RAW_LEVEL for tag in sample.tags)
    assert np.array_equal(sample.rows.values, view.pending)


def test_hierarchical_pending_rows_come_first():
    n = 4
    tree = grown_tree(3 * n + 2, n)
    view = tree.snapshot()
    sample = hierarchical_sample(view)
    assert sample.tags[0].level == RAW_LEVEL
    assert sample.tags[1].level == RAW_LEVEL
    assert np.array_equal(sample.rows.values[:2], view.pending)
    assert sample.tags[2].level == view.nodes[-1].level


def test_hierarchical_quota_halves_per_level():
    # 7 leaves leave nodes at levels 2, 1, 0; with n = 4 the newest
    # node gives 4 rows, then 2, then 1.
    n = 4
    tree = grown_tree(7 * n, n)
    view = tree.snapshot()
    assert [node.level for node in view.nodes] == [2, 1, 0]
    sample = hierarchical_sample(view)
    per_level = {}
    for tag in sample.tags:
        per_level[tag.level] = per_level.get(tag.level, 0) + 1
    assert per_level[0] == 4
    assert per_level[1] == 2
    assert per_level[2] == 1
    # Rows are copied verbatim, newest node first.
    top = view.nodes[-1].summary.block.values
    assert np.array_equal(sample.rows.values[:4], top[:4])


def test_hierarchical_respects_hard_cap():
    n = 4
    tree = grown_tree(6 * n + 3, n)
    sample = hierarchical_sample(tree.snapshot())
    assert sample.rows.rows <= 2 * n


def test_hierarchical_empty_tree_raises():
    tree = CoresetTree(4, 2)
    with pytest.raises(ValueError):
        hierarchical_sample(tree.snapshot())


@settings(deadline=None, max_examples=40, derandomize=True)
@given(points=st.integers(1, 200), n=st.integers(2, 10), seed=st.integers(0, 50))
def test_hierarchical_bound_and_top_node_property(points, n, seed):
    tree = grown_tree(points, n, dim=3, seed=seed)
    view = tree.snapshot()
    sample = hierarchical_sample(view)
    assert sample.rows.rows <= 2 * n
    assert len(sample.tags) == sample.rows.rows
    if view.nodes:
        top = view.nodes[-1]
        want = {(top.level, j) for j in range(top.summary.block.rows)}
        got = {(t.level, t.row) for t in sample.tags}
        assert want <= got


def row_by_row_hierarchical_sample(view):
    """The sampler's rule written one row at a time: pending rows, then
    newest node to oldest, max(1, n >> gap) rows per node, capped at 2n."""
    limit = 2 * view.n
    picked, tags = [], []
    for i in range(view.pending.shape[0]):
        picked.append(view.pending[i])
        tags.append(RowTag(level=RAW_LEVEL, row=i))
    if view.nodes:
        top_level = view.nodes[-1].level
        for node in reversed(view.nodes):
            budget = limit - len(picked)
            if budget <= 0:
                break
            quota = max(1, view.n >> (node.level - top_level))
            values = node.summary.block.values
            for j in range(min(quota, values.shape[0], budget)):
                picked.append(values[j])
                tags.append(RowTag(level=node.level, row=j))
    return np.vstack(picked), tuple(tags)


@pytest.mark.parametrize(
    "n, dim, points, cap_binds",
    [
        (4, 3, 255 * 4 + 3, True),  # eight nodes and three pending rows
        (5, 7, 40 * 5 + 4, False),  # n not a power of two
        (6, 2, 31 * 6, False),  # ends with no pending rows
        (3, 40, 22 * 3 + 1, False),  # dim > n, leaves hold n rows
        (8, 3, 13 * 8 + 5, False),  # nodes hold dim < n rows
        (16, 16, 9 * 16 + 7, False),
    ],
)
def test_hierarchical_matches_the_row_by_row_rule(n, dim, points, cap_binds):
    rng = np.random.default_rng(n * 100 + dim)
    tree = CoresetTree(n, dim)
    capped = with_pending = without_pending = 0
    for row in rng.standard_normal((points, dim)):
        tree.push_point(row)
        view = tree.snapshot()
        want_rows, want_tags = row_by_row_hierarchical_sample(view)
        sample = hierarchical_sample(view)
        assert sample.rows.values.tobytes() == want_rows.tobytes()
        assert sample.rows.values.shape == want_rows.shape
        assert sample.tags == want_tags
        assert (sample.n, sample.points_seen) == (n, view.points_seen)
        capped += want_rows.shape[0] == 2 * n
        with_pending += view.pending.shape[0] > 0
        without_pending += view.pending.shape[0] == 0 and len(view.nodes) > 0
    assert with_pending and without_pending
    assert capped or not cap_binds


def test_hierarchical_refuses_non_finite_pending_rows_of_a_hand_built_view():
    view = grown_tree(3 * 4 + 2, 4).snapshot()
    for bad in (np.nan, np.inf):
        pending = np.array(view.pending)
        pending[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            hierarchical_sample(replace(view, pending=pending))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "n, points, holds",
    [(5, 3, "pending-only"), (4, 6 * 4, "nodes-only"), (4, 13 * 4 + 3, "nodes-and-pending")],
)
def test_every_library_sample_carries_one_tag_per_row(seed, n, points, holds):
    # The library builds these samples by SampleSet._trusted, which does
    # not check the tag count the public constructor checks.
    view = grown_tree(points, n, dim=6, seed=seed).snapshot()
    assert {
        "pending-only": not view.nodes,
        "nodes-only": view.pending.shape[0] == 0,
        "nodes-and-pending": bool(view.nodes) and view.pending.shape[0] > 0,
    }[holds]
    for sampler in (hierarchical_sample, root_sample):
        sample = sampler(view)
        for built in (sample, tracking._as_directions(sample)):
            assert len(built.tags) == built.rows.rows


def test_root_sample_is_the_collapse():
    n = 4
    tree = grown_tree(9 * n, n)
    view = tree.snapshot()
    sample = root_sample(view)
    assert sample.rows.rows <= n
    assert all(tag.level == view.nodes[0].level for tag in sample.tags)
    root = collapse(view)
    assert np.array_equal(sample.rows.values, root.block.values)


@pytest.mark.parametrize("n, points", [(4, 9 * 4), (5, 3), (3, 40 * 3 + 2)])
def test_root_sample_tags_equal_freshly_built_ones(n, points):
    view = grown_tree(points, n).snapshot()
    sample = root_sample(view)
    level = view.nodes[0].level if view.nodes else RAW_LEVEL
    assert sample.tags == tuple(RowTag(level, j) for j in range(sample.rows.rows))


def test_samples_of_one_view_share_frozen_tags():
    # Tag runs are cached and handed to every sample, which is safe only
    # because a RowTag cannot be changed in place.
    view = grown_tree(13 * 4 + 3, 4).snapshot()
    for sampler in (hierarchical_sample, root_sample):
        first, second = sampler(view), sampler(view)
        assert all(a is b for a, b in zip(first.tags, second.tags, strict=True))
        with pytest.raises(FrozenInstanceError):
            first.tags[0].level = 7


def test_tag_run_cache_stays_bounded():
    for level in range(300):
        assert _tag_run(level, 3) == tuple(RowTag(level, j) for j in range(3))
    assert _tag_run.cache_info().currsize <= 256
    # An evicted run is rebuilt the same.
    assert _tag_run(0, 3) == (RowTag(0, 0), RowTag(0, 1), RowTag(0, 2))


def test_random_sample_returns_short_history_whole():
    history = DataBlock(np.arange(12.0).reshape(4, 3))
    sample = random_sample(history.values, n=10, seed=0)
    assert np.array_equal(sample.rows.values, history.values)
    assert [t.row for t in sample.tags] == [0, 1, 2, 3]
    assert sample.points_seen == 4


def test_random_sample_draws_distinct_sorted_rows():
    history = DataBlock(np.arange(60.0).reshape(20, 3))
    sample = random_sample(history.values, n=8, seed=42)
    picked = [t.row for t in sample.tags]
    assert len(picked) == 8
    assert picked == sorted(picked)
    assert len(set(picked)) == 8
    again = random_sample(history.values, n=8, seed=42)
    assert np.array_equal(sample.rows.values, again.rows.values)
    other = random_sample(history.values, n=8, seed=43)
    assert [t.row for t in other.tags] != picked


def test_random_sample_rejects_bad_size():
    history = DataBlock(np.ones((3, 2)))
    for n in (0, -1):
        with pytest.raises(ValueError, match="sample size"):
            random_sample(history.values, n=n, seed=0)


def test_subsample_exact_spacing():
    history = DataBlock(np.arange(20.0).reshape(10, 2))
    sample = subsample(history.values, n=4)
    assert [t.row for t in sample.tags] == [0, 2, 5, 7]
    assert np.array_equal(sample.rows.values, history.values[[0, 2, 5, 7]])


def test_subsample_short_history_collapses_duplicates():
    history = DataBlock(np.arange(6.0).reshape(3, 2))
    sample = subsample(history.values, n=7)
    assert [t.row for t in sample.tags] == [0, 1, 2]
    for n in (0, -1):
        with pytest.raises(ValueError, match="sample size"):
            subsample(history.values, n=n)


def test_all_raw_samplers_tag_raw_level():
    history = DataBlock(np.arange(30.0).reshape(10, 3))
    for sample in (random_sample(history.values, 4, seed=1), subsample(history.values, 4)):
        assert all(t.level == RAW_LEVEL for t in sample.tags)
