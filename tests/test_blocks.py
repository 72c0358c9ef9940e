"""Tests for the SVD compression primitive and its error bookkeeping."""

import ast
import math
import struct
import warnings
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corestream import (
    CoresetBlock,
    CoresetTree,
    DataBlock,
    DetectParams,
    KalmanState,
    LinearModel,
    NoiseParams,
    SyntheticStreamConfig,
    TrackerParams,
    TrainParams,
    TreeView,
    concat_blocks,
    decisions,
    dist_sq,
    em_fit,
    kalman_update,
    measure_epsilon,
    random_orthonormal,
    random_sample,
    reduce_block,
    subsample,
    svd_truncate,
)
from corestream import blocks, io
from corestream.io import FormatError


def known_spectrum(rows: int, dim: int, spectrum, seed: int) -> np.ndarray:
    """Matrix built as U diag(s) V^T, so its singular values are exactly s."""
    r = len(spectrum)
    u = random_orthonormal(rows, r, seed)
    v = random_orthonormal(dim, r, seed + 1)
    return u @ np.diag(spectrum) @ v.T


def test_data_block_copies_and_freezes():
    src = np.ones((2, 3))
    block = DataBlock(src)
    src[0, 0] = 99.0
    assert block.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        block.values[0, 0] = 5.0
    assert block.rows == 2
    assert block.dim == 3


def test_data_block_rejects_bad_input():
    with pytest.raises(ValueError):
        DataBlock(np.ones(4))
    with pytest.raises(ValueError):
        DataBlock(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        DataBlock(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        DataBlock(np.zeros((3, 0)))
    bad = np.ones((2, 2))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        DataBlock(bad)
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        DataBlock(bad)


def test_coreset_block_validation():
    block = DataBlock(np.ones((2, 2)))
    with pytest.raises(ValueError):
        CoresetBlock(block=block, c=-1e-9, source_rows=2)
    with pytest.raises(ValueError):
        CoresetBlock(block=block, c=float("nan"), source_rows=2)
    with pytest.raises(ValueError):
        CoresetBlock(block=block, c=0.0, source_rows=1)
    ok = CoresetBlock(block=block, c=0.5, source_rows=10)
    assert ok.c == 0.5
    assert ok.source_rows == 10


def test_dist_sq_matches_hand_projection():
    block = DataBlock(np.array([[1.0, 2.0], [3.0, 4.0]]))
    first_axis = np.array([[1.0], [0.0]])
    assert dist_sq(block, first_axis) == pytest.approx(10.0, abs=1e-12)
    # Projecting onto the full space returns the squared Frobenius norm.
    assert dist_sq(block, np.eye(2)) == pytest.approx(30.0, abs=1e-12)


def test_dist_sq_input_validation():
    block = DataBlock(np.ones((2, 3)))
    with pytest.raises(ValueError):
        dist_sq(block, np.ones(3))
    with pytest.raises(ValueError):
        dist_sq(block, np.ones((2, 1)))
    with pytest.raises(ValueError):
        dist_sq(block, np.ones((3, 2)))  # not orthonormal


def test_dist_sq_refuses_a_non_finite_query_matrix():
    # The orthonormality test alone lets NaN through: dev > tol is False for NaN.
    block = DataBlock(np.ones((3, 2)))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^query matrix must be finite$"):
            dist_sq(block, np.array([[value], [0.0]]))


def test_random_orthonormal_is_orthonormal_and_deterministic():
    y1 = random_orthonormal(8, 3, seed=7)
    y2 = random_orthonormal(8, 3, seed=7)
    assert np.array_equal(y1, y2)
    gram = y1.T @ y1
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    assert not np.allclose(y1, random_orthonormal(8, 3, seed=8))
    with pytest.raises(ValueError):
        random_orthonormal(3, 0, seed=0)
    with pytest.raises(ValueError):
        random_orthonormal(3, 4, seed=0)


def test_svd_truncate_tail_from_known_spectrum():
    # Singular values 4, 2, 1, 0.5; keeping two rows discards 1^2 + 0.5^2.
    a = known_spectrum(8, 6, [4.0, 2.0, 1.0, 0.5], seed=3)
    rows, tail = svd_truncate(a, 2)
    assert rows.shape == (2, 6)
    assert tail == pytest.approx(1.25, rel=1e-9)
    norms = np.linalg.norm(rows, axis=1)
    assert norms[0] == pytest.approx(4.0, rel=1e-9)
    assert norms[1] == pytest.approx(2.0, rel=1e-9)


def test_svd_truncate_sign_convention():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((10, 5))
        rows, _ = svd_truncate(a, 4)
        for row in rows:
            peak = np.argmax(np.abs(row))
            assert row[peak] > 0.0


def test_svd_truncate_preserves_gram_when_nothing_is_cut():
    a = known_spectrum(12, 7, [3.0, 2.0, 1.0], seed=5)
    rows, tail = svd_truncate(a, 5)
    assert tail < 1e-24
    assert np.max(np.abs(rows.T @ rows - a.T @ a)) < 1e-10


def test_svd_truncate_deterministic():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((9, 4))
    r1, t1 = svd_truncate(a, 3)
    r2, t2 = svd_truncate(a, 3)
    assert np.array_equal(r1, r2)
    assert t1 == t2


def test_reduce_block_lossless_below_budget():
    a = known_spectrum(20, 8, [5.0, 1.0], seed=9)
    original = DataBlock(a)
    summary = reduce_block(original, 3)
    assert summary.block.rows == 3
    assert summary.source_rows == 20
    assert summary.c <= 1e-16
    assert measure_epsilon(original, summary, k=1) <= 1e-8


def test_reduce_block_rejects_empty_budget():
    block = DataBlock(np.ones((4, 3)))
    with pytest.raises(ValueError, match="row budget"):
        reduce_block(block, 0)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(3, 40),
    dim=st.integers(2, 12),
    n=st.integers(1, 8),
)
def test_sandwich_bound_on_random_blocks(seed, rows, dim, n):
    rng = np.random.default_rng(seed)
    original = DataBlock(rng.standard_normal((rows, dim)))
    summary = reduce_block(original, n)
    for t in range(5):
        cols = 1 + (seed + t) % dim
        y = random_orthonormal(dim, cols, seed + 1000 + t)
        gap = dist_sq(original, y) - dist_sq(summary.block, y)
        assert gap >= -1e-10
        assert gap <= summary.c + 1e-10


def test_concat_blocks_adds_everything():
    rng = np.random.default_rng(4)
    a = reduce_block(DataBlock(rng.standard_normal((10, 5))), 3)
    b = reduce_block(DataBlock(rng.standard_normal((7, 5))), 3)
    cat = concat_blocks(a, b)
    assert cat.block.rows == a.block.rows + b.block.rows
    assert cat.c == pytest.approx(a.c + b.c, rel=1e-12, abs=1e-300)
    assert cat.source_rows == 17
    y = random_orthonormal(5, 2, seed=1)
    lhs = dist_sq(cat.block, y)
    rhs = dist_sq(a.block, y) + dist_sq(b.block, y)
    assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


def test_reduced_and_concatenated_blocks_are_read_only():
    rng = np.random.default_rng(6)
    a = reduce_block(DataBlock(rng.standard_normal((6, 4))), 3)
    b = reduce_block(DataBlock(rng.standard_normal((5, 4))), 3)
    for block in (a.block, b.block, concat_blocks(a, b).block):
        assert not block.values.flags.writeable
        with pytest.raises(ValueError):
            block.values[0, 0] = 1.0


def test_svd_truncate_refuses_rows_that_overflow():
    huge = np.full((4, 2), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflow"):
            svd_truncate(huge, 2)
        with pytest.raises(ValueError, match="overflow"):
            reduce_block(DataBlock(huge), 2)


def svd_reference(values: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """svd_truncate's contract computed by np.linalg.svd alone."""
    _, s, vt = np.linalg.svd(values, full_matrices=False)
    kept = vt[: min(n, s.shape[0])].copy()
    peak = np.argmax(np.abs(kept), axis=1)
    signs = np.sign(kept[np.arange(kept.shape[0]), peak])
    signs[signs == 0.0] = 1.0
    rows = (s[: kept.shape[0]] * signs)[:, None] * kept
    if not np.isfinite(rows).all():
        raise ValueError("singular rows overflowed")
    return rows, float(np.sum(s[n:] ** 2))


def test_svd_truncate_gram_path_agrees_with_the_svd(monkeypatch):
    # ingest-wide's merge shape: 256x256 cut to 128 rows, decaying spectrum.
    a = known_spectrum(256, 256, 0.97 ** np.arange(256), seed=21)
    want_rows, want_tail = svd_reference(a, 128)

    def no_svd(*args, **kwargs):
        raise AssertionError("the Gram path should not call the SVD here")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rows, tail = svd_truncate(a, 128)
    assert rows.shape == (128, 256)
    assert abs(tail - want_tail) <= 1e-12 * want_tail
    energy, want_energy = np.sum(rows**2, axis=1), np.sum(want_rows**2, axis=1)
    assert np.max(np.abs(energy - want_energy)) <= 1e-14 * want_energy[0]
    assert np.all(rows[np.arange(128), np.argmax(np.abs(rows), axis=1)] > 0.0)


@pytest.mark.parametrize(
    "values, n",
    [
        (known_spectrum(40, 20, [5.0, 3.0, 1.0], seed=8), 8),  # negligible tail
        (np.random.default_rng(9).standard_normal((30, 6)), 8),  # dim <= n
        (np.random.default_rng(10).standard_normal((6, 20)), 3),  # rows < dim
    ],
)
def test_svd_truncate_falls_back_to_the_svd_bit_for_bit(values, n):
    rows, tail = svd_truncate(values, n)
    want_rows, want_tail = svd_reference(values, n)
    assert np.array_equal(rows, want_rows)
    assert tail == want_tail


def test_svd_truncate_gram_tail_stays_an_upper_bound_at_rank_deficiency():
    # Rank 4 in dim 6: the two null eigenvalues of the Gram matrix come
    # out at roundoff, possibly negative, and must be clipped, not rooted.
    a = known_spectrum(8, 6, [4.0, 2.0, 1.0, 0.5], seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, tail = svd_truncate(a, 2)
    assert np.all(np.isfinite(rows))
    assert tail >= 1.25 - 1e-12 * 16.0


@pytest.mark.parametrize(
    "values",
    [
        1e155 * np.random.default_rng(12).standard_normal((8, 4)),
        np.full((6, 3), 1e155),
        np.full((4, 2), 1e308),
        1e308 * np.random.default_rng(13).uniform(-1.0, 1.0, (8, 4)),
    ],
)
def test_svd_truncate_where_the_gram_overflows_matches_the_svd(values):
    # Either both raise the same ValueError (from the kernel, or from a
    # summary refusing an infinite tail) or both return the same bits.
    def outcome(truncate):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                rows, tail = truncate(values, 1)
                CoresetBlock(block=DataBlock(rows), c=tail, source_rows=values.shape[0])
            except ValueError as exc:
                return str(exc)
        return rows.tobytes(), tail

    assert outcome(svd_truncate) == outcome(svd_reference)


def test_concat_blocks_dimension_mismatch():
    a = CoresetBlock(block=DataBlock(np.ones((2, 3))), c=0.0, source_rows=2)
    b = CoresetBlock(block=DataBlock(np.ones((2, 4))), c=0.0, source_rows=2)
    with pytest.raises(ValueError):
        concat_blocks(a, b)


def test_measure_epsilon_validation():
    original = DataBlock(np.ones((3, 4)))
    summary = CoresetBlock(block=DataBlock(np.ones((2, 4))), c=0.0, source_rows=3)
    with pytest.raises(ValueError):
        measure_epsilon(original, summary, k=1, trials=0)
    with pytest.raises(ValueError):
        measure_epsilon(original, summary, k=0)
    with pytest.raises(ValueError):
        measure_epsilon(original, summary, k=4)
    narrow = CoresetBlock(block=DataBlock(np.ones((2, 3))), c=0.0, source_rows=3)
    with pytest.raises(ValueError):
        measure_epsilon(original, narrow, k=1)


def test_measure_epsilon_exact_copy_is_zero():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 5))
    original = DataBlock(a)
    summary = CoresetBlock(block=DataBlock(a), c=0.0, source_rows=6)
    assert measure_epsilon(original, summary, k=2, trials=20) <= 1e-12


def test_measure_epsilon_sees_an_inflated_constant():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 5))
    original = DataBlock(a)
    padded = CoresetBlock(block=DataBlock(a), c=1.0, source_rows=6)
    assert measure_epsilon(original, padded, k=2, trials=20) > 1e-3


@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (1,), (7,), (3, 5)])
def test_the_finite_helper_agrees_with_isfinite_all(shape):
    rng = np.random.default_rng(len(shape))
    for bad in (None, np.nan, np.inf, -np.inf):
        a = rng.standard_normal(shape)
        if bad is not None and a.size:
            a.flat[rng.integers(a.size)] = bad
        assert blocks._finite(a) == np.isfinite(a).all()


def test_every_array_finite_check_uses_the_helper():
    # np.isfinite(a).all() and np.all(np.isfinite(a)) cost about twice
    # blocks._finite on the short rows checked once per push.
    def isfinite_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "isfinite"

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blocks.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "all"
        and (isfinite_call(node.func.value) or any(map(isfinite_call, node.args)))
    ]
    assert offenders == []


def test_only_the_array_helper_and_overflow_checks_call_finite():
    # blocks._array is the one shape and finite check on array arguments;
    # _finite is left to it and to the checks on results the library
    # computes itself, so a new boundary cannot start a second idiom.
    def callers(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_finite":
                yield scope
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            yield from callers(child, f"{scope}.{child.name}" if named else scope)

    found = {
        scope
        for path in sorted(Path(blocks.__file__).parent.glob("*.py"))
        for scope in callers(ast.parse(path.read_text()), path.stem)
    }
    assert found == {
        "blocks._array",
        "blocks._gram_spectrum",
        "blocks.svd_truncate",
    }


def test_the_array_helper_copies_only_when_asked():
    rows = np.ones((2, 3))
    assert blocks._array(rows, (None, 3), "rows") is rows
    kept = blocks._array(rows, (None, 3), "rows", copy=True)
    assert kept is not rows and not kept.flags.writeable and rows.flags.writeable
    with pytest.raises(ValueError, match=r"^rows must be shaped \(\*, 2\), got \(2, 3\)$"):
        blocks._array(rows, (None, 2), "rows")
    with pytest.raises(ValueError, match=r"^row must be shaped \(3,\), got \(2, 3\)$"):
        blocks._array(rows, (3,), "row")
    with pytest.raises(ValueError, match=r"^rows must be shaped \(\*, \*\), got a ragged sequence$"):
        blocks._array([[1.0, 2.0], [3.0]], (None, None), "rows")


def _read_text(tmp_path, values):
    path = tmp_path / "f.txt"
    rows = "".join(" ".join(map(repr, row)) + "\n" for row in values.tolist())
    path.write_text("dim=2 rows=2\n" + rows)
    return io.read_features(str(path))


def _read_binary(tmp_path, values):
    path = tmp_path / "f.bin"
    path.write_bytes(b"CSTK" + struct.pack("<IQI", 1, 2, 2) + values.astype("<f8").tobytes())
    return io.read_features(str(path))


@pytest.mark.parametrize(
    "call, good, wrong",
    [
        pytest.param(DataBlock, np.ones((3, 2)), np.ones(3), id="DataBlock"),
        pytest.param(DataBlock, np.ones((3, 2)), [[1.0, 2.0], [3.0]], id="DataBlock-ragged"),
        pytest.param(lambda h: subsample(h, 3), np.ones((3, 2)), [[1.0, 2.0], [3.0]],
                     id="subsample-ragged"),
        pytest.param(lambda h: random_sample(h, 3, 0), np.ones((3, 2)), [[1.0, 2.0], [3.0]],
                     id="random_sample-ragged"),
        pytest.param(lambda y: dist_sq(DataBlock(np.ones((3, 2))), y),
                     np.eye(2)[:, :1], np.eye(3)[:, :1], id="dist_sq"),
        pytest.param(_read_text, np.ones((2, 2)), np.ones((2, 3)), id="read_features-text"),
        pytest.param(_read_binary, np.ones((2, 2)), np.ones((2, 3)), id="read_features-binary"),
        pytest.param(lambda p: TreeView(n=2, dim=3, nodes=(), pending=p, leaves_seen=0),
                     np.ones((1, 3)), np.ones((1, 2)), id="TreeView-pending"),
        pytest.param(lambda r: CoresetTree(4, 3).push_point(r),
                     np.ones(3), np.ones((1, 3)), id="push_point"),
        pytest.param(lambda r: CoresetTree(4, 3).push_rows(r),
                     np.ones((5, 3)), np.ones(3), id="push_rows"),
        pytest.param(lambda w: LinearModel(w=w, b=0.0, threshold=0.0),
                     np.ones(3), np.ones((1, 3)), id="LinearModel-w"),
        pytest.param(lambda r: decisions(LinearModel(w=np.ones(3), b=0.0, threshold=0.0), r),
                     np.ones((2, 3)), np.ones((2, 2)), id="decisions"),
        pytest.param(lambda x: KalmanState(x=x, P=np.eye(4)), np.zeros(4), np.zeros(2),
                     id="KalmanState-x"),
        pytest.param(lambda p: KalmanState(x=np.zeros(4), P=p), np.eye(4), np.eye(2),
                     id="KalmanState-P"),
        pytest.param(lambda q: NoiseParams(Q=q, R=np.eye(2)), np.eye(4), np.eye(2),
                     id="NoiseParams-Q"),
        pytest.param(lambda r: NoiseParams(Q=np.eye(4), R=r), np.eye(2), np.eye(4),
                     id="NoiseParams-R"),
        pytest.param(lambda z: kalman_update(KalmanState(np.zeros(4), np.eye(4)), z,
                                             NoiseParams.default()),
                     np.zeros(2), np.zeros(4), id="kalman_update"),
        pytest.param(lambda c: em_fit(c, iterations=1), np.arange(10.0).reshape(5, 2),
                     np.arange(15.0).reshape(5, 3), id="em_fit"),
    ],
)
def test_every_array_entry_point_refuses_a_wrong_shape_and_a_nan(tmp_path, call, good, wrong):
    # The readers' files always declare a 2 x 2 matrix, so their wrong
    # shape is refused by the parser, and a NaN through the one helper.
    error, shape_message = ValueError, "must be shaped"
    if call in (_read_text, _read_binary):
        call, error, shape_message = partial(call, tmp_path), FormatError, "values, got|promises"
    call(good)
    with pytest.raises(error, match=shape_message):
        call(wrong)
    bad = good.copy()
    bad.flat[0] = np.nan
    with pytest.raises(error, match="must be finite"):
        call(bad)


def test_every_scalar_field_check_uses_the_helper():
    # blocks._check_fields is the one type and finite check on scalar
    # fields; a constructor that checks one itself starts a second idiom.
    def own_check(node):
        if not isinstance(node, ast.Call):
            return False
        if getattr(node.func, "attr", None) == "isfinite":
            return getattr(node.func.value, "id", None) == "math"
        return getattr(node.func, "id", None) == "isinstance" and any(
            getattr(name, "id", None) in ("numbers", "Integral", "Real")
            for name in ast.walk(node.args[1])
        )

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blocks.__file__).parent.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"
        for node in ast.walk(func)
        if own_check(node)
    ]
    assert offenders == []


def small_view():
    """A valid n=2, dim=3 view over 7 rows."""
    tree = CoresetTree(2, 3)
    for row in np.ones((7, 3)):
        tree.push_point(row)
    return tree.snapshot()


# A valid instance of each class whose constructor calls blocks._check_fields.
CHECKED = {
    "CoresetBlock": lambda: CoresetBlock(block=DataBlock(np.ones((2, 2))), c=2.0, source_rows=10),
    "LinearModel": lambda: LinearModel(w=np.ones(2), b=0.0, threshold=1.0),
    "TrainParams": TrainParams,
    "DetectParams": lambda: DetectParams(threshold=1.0),
    "TrackerParams": TrackerParams,
    "SyntheticStreamConfig": SyntheticStreamConfig,
    "TreeView": small_view,
}


def scalar_fields(obj):
    return [f for f in fields(obj) if f.type in ("int", "float", "float | None")]


def build(make, via, **changes):
    """make() with changes, through the constructor or through dataclasses.replace."""
    base = make()
    if via == "replace":
        return replace(base, **changes)
    return type(base)(**{f.name: getattr(base, f.name) for f in fields(base)} | changes)


def bad_field_values():
    for name, make in CHECKED.items():
        for f in scalar_fields(make()):
            if f.type == "int":
                cases = [("bool", True, TypeError, "an integer"), ("float", 2.0, TypeError, "an integer")]
            else:
                cases = [
                    ("bool", True, TypeError, "a number"),
                    ("str", "x", TypeError, "a number"),
                    ("nan", math.nan, ValueError, "finite"),
                ]
            for via in ("init", "replace"):
                for label, value, error, noun in cases:
                    yield pytest.param(
                        make, via, f.name, value, error, f"^{f.name} must be {noun}, got ",
                        id=f"{name}-{f.name}-{label}-{via}",
                    )


@pytest.mark.parametrize("make, via, field, value, error, message", bad_field_values())
def test_every_scalar_field_refuses_a_wrong_type_or_a_non_finite_number(
    make, via, field, value, error, message
):
    with pytest.raises(error, match=message):
        build(make, via, **{field: value})


@pytest.mark.parametrize("name", list(CHECKED))
def test_scalar_fields_take_numpy_scalars_and_floats_take_ints(name):
    base = CHECKED[name]()
    for f in scalar_fields(base):
        value = getattr(base, f.name)
        takes = [np.int64(value)] if f.type == "int" else [np.float64(value)]
        if f.type != "int" and float(value).is_integer():
            takes.append(int(value))
        for good in takes:
            for via in ("init", "replace"):
                assert getattr(build(CHECKED[name], via, **{f.name: good}), f.name) == good


def test_numpy_integers_are_stored_as_python_ints():
    # max_live_nodes calls int.bit_length, which np.int64 lacks.
    view = replace(small_view(), leaves_seen=np.int64(3))
    assert type(view.leaves_seen) is int
    assert view.max_live_nodes == 2
    assert view.merge_count == 1
    assert type(TrackerParams(n=np.int64(16)).n) is int


@pytest.mark.parametrize(
    "probe, error, message",
    [
        pytest.param(lambda: TrackerParams(n=16.0), TypeError, "^n must be", id="tracker-n-float"),
        pytest.param(
            lambda: TrainParams(iterations=120.0), TypeError, "^iterations must be", id="iterations-float"
        ),
        pytest.param(
            lambda: TrainParams(iterations=True), TypeError, "^iterations must be", id="iterations-bool"
        ),
        pytest.param(lambda: replace(small_view(), n=2.0), TypeError, "^n must be", id="view-n-float"),
        pytest.param(
            lambda: replace(small_view(), leaves_seen=3.0),
            TypeError,
            "^leaves_seen must be",
            id="view-leaves-seen-float",
        ),
        pytest.param(
            lambda: TrainParams(step_size="x"), TypeError, "^step_size must be", id="step-size-str"
        ),
        pytest.param(
            lambda: TrainParams(regularization=np.array([1e-3])),
            TypeError,
            "^regularization must be",
            id="regularization-array",
        ),
        pytest.param(
            lambda: LinearModel(w=[1.0], b=None, threshold=0.0), TypeError, "^b must be", id="model-b-none"
        ),
        pytest.param(
            lambda: CoresetBlock(block=DataBlock(np.ones((1, 1))), c=10**400, source_rows=1),
            ValueError,
            "^c must be finite",
            id="c-beyond-float-range",
        ),
    ],
)
def test_each_baseline_probe_is_refused_by_name(probe, error, message):
    with pytest.raises(error, match=message):
        probe()
