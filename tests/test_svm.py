"""Tests for the hinge trainers and the monotone descent solver."""

import numpy as np
import pytest

from corestream import (
    DataBlock,
    LinearModel,
    RowTag,
    SampleSet,
    TrainParams,
    decisions,
    train_binary,
    train_one_class,
)
from corestream.svm import (
    _BACKTRACK_LIMIT,
    binary_objective,
    binary_subgradient,
    monotone_descent,
    one_class_objective,
    one_class_subgradient,
)


def as_sample(rows: np.ndarray, n: int | None = None) -> SampleSet:
    block = DataBlock(rows)
    tags = tuple(RowTag(level=-1, row=i) for i in range(block.rows))
    return SampleSet(rows=block, tags=tags, n=n or block.rows, points_seen=block.rows)


def clustered_rows(count: int, dim: int, seed: int, spread: float = 0.05):
    rng = np.random.default_rng(seed)
    center = np.abs(rng.standard_normal(dim))
    center /= np.linalg.norm(center)
    return center, center + spread * rng.standard_normal((count, dim))


def test_linear_model_validation():
    with pytest.raises(ValueError):
        LinearModel(w=np.ones((2, 2)), b=0.0, threshold=0.0)
    with pytest.raises(ValueError):
        LinearModel(w=np.array([1.0, np.nan]), b=0.0, threshold=0.0)
    with pytest.raises(ValueError):
        LinearModel(w=np.ones(2), b=float("inf"), threshold=0.0)
    model = LinearModel(w=np.array([1.0, 2.0]), b=0.5, threshold=0.1)
    assert model.dim == 2
    with pytest.raises(ValueError):
        model.w[0] = 9.0


def test_train_params_validation():
    for bad in (
        dict(regularization=0.0),
        dict(iterations=0),
        dict(step_size=0.0),
        dict(nu=0.0),
        dict(nu=1.5),
    ):
        with pytest.raises(ValueError):
            TrainParams(**bad)
    assert TrainParams(nu=1.0).nu == 1.0


def test_decisions_scores_stacks_and_single_rows():
    model = LinearModel(w=np.array([2.0, -1.0]), b=0.25, threshold=0.0)
    rows = np.array([[1.0, 1.0], [0.0, 3.0]])
    assert decisions(model, rows).tolist() == pytest.approx([1.25, -2.75])
    assert decisions(model, rows[1:]).tolist() == pytest.approx([-2.75])
    for bad in (np.ones(2), np.ones((1, 3)), np.ones((2, 3))):
        with pytest.raises(ValueError):
            decisions(model, bad)


def test_decisions_refuses_non_finite_rows():
    # Scoring a NaN row used to return a NaN score that no threshold refuses.
    model = LinearModel(w=np.array([2.0, -1.0]), b=0.25, threshold=0.0)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^rows must be finite$"):
            decisions(model, np.array([[1.0, 1.0], [value, 0.0]]))


def test_monotone_descent_on_a_quadratic():
    obj = lambda x: (x[:, 0] - 3.0) ** 2
    grad = lambda x: np.array([2.0 * (x[0] - 3.0)])
    x, path = monotone_descent(np.zeros(1), obj, grad, iterations=100, step_size=1.0)
    assert abs(x[0] - 3.0) < 1e-6
    assert len(path) == 101
    for earlier, later in zip(path, path[1:]):
        assert later <= earlier + 1e-12


def test_monotone_descent_never_accepts_a_worse_point():
    # A hostile objective: the gradient points uphill, so every proposal
    # is worse and the solver must keep the starting point.
    obj = lambda x: x[:, 0]
    grad = lambda x: np.array([-1.0])
    x, path = monotone_descent(np.zeros(1), obj, grad, iterations=5, step_size=1.0)
    assert x[0] == 0.0
    assert path == [0.0] * 6


def sequential_descent(x0, objective_fn, subgradient_fn, iterations, step_size):
    """Reference line search: one candidate per objective call, halving
    until the objective does not rise.  Also returns the accepted
    halving index of every iteration, -1 where no step was taken."""
    x = np.array(x0, dtype=float)
    path = [float(objective_fn(x[None, :])[0])]
    accepted = []
    for t in range(iterations):
        g = subgradient_fn(x)
        step = step_size / (t + 1.0)
        for j in range(_BACKTRACK_LIMIT):
            candidate = x - step * g
            value = float(objective_fn(candidate[None, :])[0])
            if value <= path[-1]:
                x = candidate
                path.append(value)
                accepted.append(j)
                break
            step *= 0.5
        else:
            path.append(path[-1])
            accepted.append(-1)
    return x, path, accepted


def traced_descent(x0, objective_fn, subgradient_fn, iterations, step_size):
    """monotone_descent plus, per iteration, the accepted halving index
    and the search's first halving and block sizes.

    Iterations are read back from path and from the iterates: each
    scored block must be exactly the candidates x - steps[j] * g for
    consecutive halvings j, with g the subgradient at the iterate the
    search starts from.  A search ends at the first block holding a
    value <= path[t], which must be the accepted value path[t + 1], or
    after the last halving, which leaves x and the path where they were.
    """
    blocks = []

    def obj(stack):
        values = objective_fn(stack)
        blocks.append((stack.copy(), np.array(values)))
        return values

    x, path = monotone_descent(x0, obj, subgradient_fn, iterations, step_size)
    assert np.array_equal(blocks[0][0], np.array(x0, dtype=float)[None, :])
    queue = blocks[1:]
    at = np.array(x0, dtype=float)
    accepted, searches = [], []
    for t in range(iterations):
        g = subgradient_fn(at)
        steps = [step_size / (t + 1.0) * 0.5**j for j in range(_BACKTRACK_LIMIT)]
        firsts = [
            j for j, s in enumerate(steps) if queue and np.array_equal(queue[0][0][0], at - s * g)
        ]
        start = firsts[0] if firsts else _BACKTRACK_LIMIT
        first, sizes, hit = start, [], -1
        while start < _BACKTRACK_LIMIT and hit < 0:
            stack, values = queue.pop(0)
            expected = at - np.array(steps[start : start + len(stack)])[:, None] * g
            assert np.array_equal(stack, expected)
            descends = values <= path[t]
            if descends.any():
                k = int(descends.argmax())
                hit, at = start + k, stack[k]
                assert path[t + 1] == values[k]
            sizes.append(len(stack))
            start += len(stack)
        if hit < 0:
            assert path[t + 1] == path[t]
        accepted.append(hit)
        searches.append((first, sizes))
    assert not queue and np.array_equal(at, x)
    return x, path, accepted, searches


def full_search_candidates(j):
    """Candidates a search from halving 0 scores before settling at
    halving j (-1: none fits) in blocks of 1, 2, 4, ..."""
    if j < 0:
        return _BACKTRACK_LIMIT
    return min(2 ** (j + 1).bit_length() - 1, _BACKTRACK_LIMIT)


def assert_same_line_search(x0, objective_fn, subgradient_fn, iterations, step_size):
    ref_x, ref_path, ref_accepted = sequential_descent(
        x0, objective_fn, subgradient_fn, iterations, step_size
    )
    x, path, accepted, searches = traced_descent(
        x0, objective_fn, subgradient_fn, iterations, step_size
    )
    assert accepted == ref_accepted
    assert np.array_equal(x, ref_x)
    assert len(path) == len(ref_path) == iterations + 1
    assert np.max(np.abs(np.array(path) - np.array(ref_path))) <= 1e-12
    for j, (first, sizes) in zip(accepted, searches):
        # Blocks double from the search's first halving, clipped at the
        # limit, and no search scores more than one from halving 0 does.
        for k, size in enumerate(sizes):
            assert size == min(2**k, _BACKTRACK_LIMIT - first - sum(sizes[:k]))
        assert sum(sizes) <= full_search_candidates(j)
    return accepted


def test_batched_line_search_matches_the_sequential_rule_one_class():
    # Criterion 10's rows with every fourth one flipped through the
    # origin: the hinge optimum sits on kinks, so searches settle at
    # every depth, from the first step to none at all.
    rows = np.random.default_rng(10).normal(size=(60, 6)) + 2.0
    rows[::4] *= -1.0
    accepted = assert_same_line_search(
        np.zeros(6),
        lambda w: one_class_objective(w, rows, 1e-3),
        lambda w: one_class_subgradient(w, rows, 1e-3),
        120,
        1.0,
    )
    assert 0 in accepted and max(accepted) >= 7
    assert any(0 < j < 3 for j in accepted) and any(3 <= j < 7 for j in accepted)


def test_batched_line_search_matches_the_sequential_rule_binary():
    # Criterion 10's separable pair with every seventh label flipped:
    # searches settle anywhere from the first halving to the last block,
    # and some find no step.
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    pos = 3.0 * direction + 0.3 * rng.standard_normal((25, 5))
    neg = -3.0 * direction + 0.3 * rng.standard_normal((25, 5))
    rows = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(25), -np.ones(25)])
    labels[::7] *= -1.0

    def grad(v):
        gw, gb = binary_subgradient(v[:5], float(v[5]), rows, labels, 1e-3)
        return np.append(gw, gb)

    accepted = assert_same_line_search(
        np.zeros(6),
        lambda v: binary_objective(v[:, :5], v[:, 5], rows, labels, 1e-3),
        grad,
        120,
        1.0,
    )
    assert {-1, 0} <= set(accepted) and max(accepted) >= 15


def test_batched_line_search_when_no_step_is_accepted():
    accepted = assert_same_line_search(
        np.zeros(1), lambda x: x[:, 0], lambda x: np.array([-1.0]), 5, 1.0
    )
    assert accepted == [-1] * 5


def test_objectives_take_a_point_or_a_stack():
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((30, 4))
    labels = np.sign(rng.standard_normal(30))
    stack = rng.standard_normal((5, 5))
    one_class = one_class_objective(stack[:, :4], rows, 1e-2)
    binary = binary_objective(stack[:, :4], stack[:, 4], rows, labels, 1e-2)
    assert one_class.shape == binary.shape == (5,)
    for i, v in enumerate(stack):
        single = one_class_objective(v[:4], rows, 1e-2)
        assert isinstance(single, float)
        assert abs(one_class[i] - single) <= 1e-12
        single = binary_objective(v[:4], float(v[4]), rows, labels, 1e-2)
        assert isinstance(single, float)
        assert abs(binary[i] - single) <= 1e-12


def allocating_one_class_objective(w, rows, reg):
    hinge = np.maximum(1.0 - w @ rows.T, 0.0).sum(axis=-1) / rows.shape[0]
    value = 0.5 * reg * (w * w).sum(axis=-1) + hinge
    return float(value) if w.ndim == 1 else value


def allocating_one_class_subgradient(w, rows, reg):
    violators = rows @ w < 1.0
    g = reg * w.copy()
    if np.any(violators):
        g -= rows[violators].sum(axis=0) / rows.shape[0]
    return g


def allocating_binary_objective(w, b, rows, labels, reg):
    scores = w @ rows.T + np.asarray(b)[..., None]
    hinge = np.maximum(1.0 - labels * scores, 0.0).sum(axis=-1) / rows.shape[0]
    value = 0.5 * reg * (w * w).sum(axis=-1) + hinge
    return float(value) if w.ndim == 1 else value


def allocating_binary_subgradient(w, b, rows, labels, reg):
    violators = labels * (rows @ w + b) < 1.0
    gw = reg * w.copy()
    gb = 0.0
    if np.any(violators):
        yv = labels[violators]
        gw -= (yv[:, None] * rows[violators]).sum(axis=0) / rows.shape[0]
        gb = -float(yv.sum()) / rows.shape[0]
    return gw, gb


def same_bits(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("k", [1, 2, 7])
def test_objectives_and_subgradients_equal_the_allocating_forms_bit_for_bit(k):
    # The in-place objectives keep every operand and its order, so they
    # equal the forms that allocate a temporary per step, bit for bit.
    rng = np.random.default_rng(100 + k)
    rows = rng.standard_normal((17, 16)) + 0.5
    labels = np.sign(rng.standard_normal(17))
    # Random points violate some margins; zero violates every one and a
    # long step along the rows' mean violates none.
    stack = np.vstack([rng.standard_normal((k, 16)), np.zeros(16), 50.0 * rows.mean(axis=0)])
    b = rng.standard_normal(stack.shape[0])
    assert not (rows @ stack[-1] < 1.0).any()
    for reg in (1e-3, 0.37):
        for ws, bs in ((stack[:k], b[:k]), (stack, b)):
            assert same_bits(
                one_class_objective(ws, rows, reg), allocating_one_class_objective(ws, rows, reg)
            )
            assert same_bits(
                binary_objective(ws, bs, rows, labels, reg),
                allocating_binary_objective(ws, bs, rows, labels, reg),
            )
        for w, bw in zip(stack, b):
            assert same_bits(
                one_class_objective(w, rows, reg), allocating_one_class_objective(w, rows, reg)
            )
            assert same_bits(
                one_class_subgradient(w, rows, reg),
                allocating_one_class_subgradient(w, rows, reg),
            )
            assert same_bits(
                binary_objective(w, float(bw), rows, labels, reg),
                allocating_binary_objective(w, float(bw), rows, labels, reg),
            )
            for got, want in zip(
                binary_subgradient(w, float(bw), rows, labels, reg),
                allocating_binary_subgradient(w, float(bw), rows, labels, reg),
            ):
                assert same_bits(got, want)


def test_one_class_subgradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((25, 6))
    reg = 1e-3
    h = 1e-6
    for _ in range(10):
        w = rng.standard_normal(6)
        if np.any(np.abs(rows @ w - 1.0) < 1e-4):
            continue  # stay away from hinge kinks
        g = one_class_subgradient(w, rows, reg)
        fd = np.zeros(6)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            fd[j] = (
                one_class_objective(w + e, rows, reg)
                - one_class_objective(w - e, rows, reg)
            ) / (2 * h)
        assert np.max(np.abs(fd - g)) < 1e-5


def test_train_one_class_aligns_with_the_cluster():
    center, rows = clustered_rows(30, 8, seed=0)
    model = train_one_class(as_sample(rows), TrainParams())
    assert model.b == 0.0
    cos = float(model.w @ center) / np.linalg.norm(model.w)
    assert cos > 0.99
    scores = decisions(model, rows)
    assert np.min(scores) > 0.9  # all rows pushed past the margin


def test_one_class_threshold_keeps_the_agreed_fraction():
    center, rows = clustered_rows(40, 8, seed=1, spread=0.2)
    for nu in (0.25, 0.5, 0.9):
        model = train_one_class(as_sample(rows), TrainParams(nu=nu))
        scores = decisions(model, rows)
        at_or_above = int(np.sum(scores >= model.threshold))
        assert at_or_above >= int(np.ceil((1.0 - nu) * len(rows)))
        # The cut sits just below an actual training score, never on it.
        ordered = np.sort(scores)
        idx = min(len(ordered) - 1, int(np.floor(nu * len(ordered))))
        assert model.threshold < ordered[idx]
        assert ordered[idx] - model.threshold < 1e-6 * (1.0 + abs(ordered[idx]))


def test_training_a_rescored_row_cannot_fall_below_threshold():
    # Exact duplicates make every score identical, the hardest case for
    # a quantile cut: rescoring the same rows must keep them all.
    row = np.abs(np.random.default_rng(5).standard_normal(6))
    rows = np.tile(row, (10, 1))
    model = train_one_class(as_sample(rows), TrainParams(nu=0.5))
    scores = decisions(model, rows)
    assert np.all(scores >= model.threshold)


def test_train_one_class_deterministic():
    _, rows = clustered_rows(20, 5, seed=2)
    a = train_one_class(as_sample(rows), TrainParams())
    b = train_one_class(as_sample(rows), TrainParams())
    assert np.array_equal(a.w, b.w)
    assert a.threshold == b.threshold


def test_train_binary_separates_separable_data():
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    pos = 3.0 * direction + 0.3 * rng.standard_normal((25, 5))
    neg = -3.0 * direction + 0.3 * rng.standard_normal((25, 5))
    model = train_binary(as_sample(pos), as_sample(neg), TrainParams())
    assert model.threshold == 0.0
    assert np.all(decisions(model, pos) > 0.0)
    assert np.all(decisions(model, neg) < 0.0)


def test_train_binary_dimension_mismatch():
    with pytest.raises(ValueError):
        train_binary(
            as_sample(np.ones((2, 3))), as_sample(np.ones((2, 4))), TrainParams()
        )


def line_search_problem(name):
    """A line-search problem: (x0, objective, subgradient, iterations).

    one_class, binary and no_descent are the problems of the three tests
    above, no_descent run for 120 iterations; steep makes searches that
    found no step give way to moves.
    """
    if name == "one_class":
        rows = np.random.default_rng(10).normal(size=(60, 6)) + 2.0
        rows[::4] *= -1.0
        return (
            np.zeros(6),
            lambda w: one_class_objective(w, rows, 1e-3),
            lambda w: one_class_subgradient(w, rows, 1e-3),
            120,
        )
    if name == "binary":
        rng = np.random.default_rng(4)
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        pos = 3.0 * direction + 0.3 * rng.standard_normal((25, 5))
        neg = -3.0 * direction + 0.3 * rng.standard_normal((25, 5))
        rows = np.vstack([pos, neg])
        labels = np.concatenate([np.ones(25), -np.ones(25)])
        labels[::7] *= -1.0

        def grad(v):
            gw, gb = binary_subgradient(v[:5], float(v[5]), rows, labels, 1e-3)
            return np.append(gw, gb)

        return (
            np.zeros(6),
            lambda v: binary_objective(v[:, :5], v[:, 5], rows, labels, 1e-3),
            grad,
            120,
        )
    if name == "steep":
        # Curvature 3 * 2**30: only steps below about 2**-30 descend, so
        # the first searches find none, a later one moves from below the
        # last rejected step, and as the 1/t decay shrinks the steps,
        # searches settle at shallower halvings again.
        curvature = np.array([3.0 * 2**30, 3.0 * 2**30 / 7.0])
        return (
            np.array([1e-5, -2e-5]),
            lambda x: 0.5 * (x * x) @ curvature,
            lambda x: curvature * x,
            120,
        )
    return np.zeros(1), lambda x: x[:, 0], lambda x: np.array([-1.0]), 120


def test_batched_line_search_matches_the_sequential_rule_after_stalls():
    x0, objective_fn, subgradient_fn, iterations = line_search_problem("steep")
    accepted = assert_same_line_search(x0, objective_fn, subgradient_fn, iterations, 1.0)
    stall_then_move = [t for t in range(1, iterations) if accepted[t - 1] < 0 <= accepted[t]]
    assert stall_then_move and min(accepted[stall_then_move[0] :]) < 28


@pytest.mark.parametrize("name", ["one_class", "binary", "steep", "no_descent"])
def test_line_search_skips_work_that_cannot_change_the_step(name):
    x0, objective_fn, subgradient_fn, iterations = line_search_problem(name)
    _, _, ref_accepted = sequential_descent(x0, objective_fn, subgradient_fn, iterations, 1.0)
    grad_at, scored = [], []

    def obj(stack):
        scored.append(stack.shape[0])
        return objective_fn(stack)

    def grad(x):
        grad_at.append(x.copy())
        return subgradient_fn(x)

    monotone_descent(x0, obj, grad, iterations, 1.0)
    # One subgradient per distinct iterate a search starts from: x0 and
    # every move except one made by the last iteration.
    moves = sum(j >= 0 for j in ref_accepted[:-1])
    assert len(grad_at) == 1 + moves
    assert not any(np.array_equal(a, b) for a, b in zip(grad_at, grad_at[1:]))
    # No search scores more than a search from the first halving does.
    from_zero = 1 + sum(full_search_candidates(j) for j in ref_accepted)
    assert sum(scored) <= from_zero
    if name == "binary":
        assert ref_accepted.count(-1) == 16 and len(grad_at) == 105
    if name == "no_descent":
        # 30 candidates for the first stall, then one per iteration,
        # where a search from the first halving scores all 30 each time.
        assert from_zero == 3601 and sum(scored) <= 150
