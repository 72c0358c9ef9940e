"""Dense feature blocks and the SVD row-compression primitive.

A block of streamed feature vectors is summarized by keeping its top
singular directions, each scaled by its singular value, plus a scalar
recording the squared energy that was cut off.  For every orthonormal
query matrix the summary's projected energy then brackets the
original's:

    dist_sq(summary, Y) <= dist_sq(original, Y) <= dist_sq(summary, Y) + c

Summaries of disjoint row sets concatenate additively, which is what
makes them mergeable further up a summary tree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

# Gram deviation beyond this rejects a query matrix as non-orthonormal.
ORTHO_TOL = 1e-10

# Projected energies below this are treated as zero when measuring
# relative deviation.
ENERGY_FLOOR = 1e-12

# svd_truncate takes the Gram + eigh path only when the cut tail exceeds
# this fraction of the top eigenvalue (about sqrt(eps), far above the
# Gram's roundoff of dim * eps).
_GRAM_TAIL_FLOOR = 1e-8


def _wrap(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, made without __init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite; cheaper than isfinite(a).all() on short rows."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _shape_text(shape: tuple) -> str:
    """shape as a tuple, with * for each None."""
    return str(tuple("*" if n is None else n for n in shape)).replace("'", "")


def _array(value, shape: tuple, what: str, copy: bool = False) -> np.ndarray:
    """value as a float array of the given shape, None matching any length,
    whose entries are all finite; otherwise ValueError naming what.  With
    copy set the result is a private read-only copy, for values a
    constructor keeps; without it value itself is returned if it already
    is a float array.  A ragged nested sequence is refused as misshaped."""
    try:
        a = np.array(value, dtype=float) if copy else np.asarray(value, dtype=float)
    except ValueError as err:
        # numpy words a ragged sequence "setting an array element with a sequence".
        if "sequence" not in str(err):
            raise
        ragged = f"{what} must be shaped {_shape_text(shape)}, got a ragged sequence"
        raise ValueError(ragged) from None
    if a.shape != shape and (
        a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape))
    ):
        raise ValueError(f"{what} must be shaped {_shape_text(shape)}, got {a.shape}")
    if not _finite(a):
        raise ValueError(f"{what} must be finite")
    if copy:
        a.setflags(write=False)
    return a


def _integer(name: str, value) -> int:
    """value as an int if it is an integer other than a boolean, else TypeError naming it."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_fields(obj) -> None:
    """Check the dataclass obj's int, float and float | None fields: integer fields take
    integers and float fields finite numbers or, where annotated, None; neither takes a
    boolean.  A wrong type raises TypeError, a non-finite number or an int beyond float
    range ValueError, naming the field.  An int field stores any integer as int (see
    _integer).  Plain ints and floats skip the slower ABC checks."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and type(value) is not int:
            object.__setattr__(obj, f.name, _integer(f.name, value))
        if f.type == "float" or f.type == "float | None" and value is not None:
            if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
                raise TypeError(f"{f.name} must be a number, got {value!r}")
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class DataBlock:
    """A dense rows x dim matrix of feature vectors.

    The constructor checks its input and stores a private, read-only
    copy, so a block can be shared across threads and snapshots without
    defensive copying.  Blocks the library builds itself come from
    _trusted, which wraps the array it is given instead of a copy.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = _array(self.values, (None, None), "matrix entries", copy=True)
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"matrix must be at least 1x1, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "DataBlock":
        """Wrap a 2-d float array of checked rows, fresh or already read-only."""
        values.setflags(write=False)
        return _wrap(cls, values=values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class CoresetBlock:
    """A compressed stand-in for a larger set of rows.

    ``block`` holds the surviving rows, ``c`` is the nonnegative squared
    energy discarded by compression and ``source_rows`` counts how many
    original stream rows the block stands for.
    """

    block: DataBlock
    c: float
    source_rows: int

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.c < 0.0:
            raise ValueError(f"additive constant must be finite and >= 0, got {self.c}")
        if self.source_rows < self.block.rows:
            raise ValueError(
                f"source_rows={self.source_rows} smaller than stored rows={self.block.rows}"
            )


def _check_orthonormal(y: np.ndarray) -> None:
    gram = y.T @ y
    dev = float(np.max(np.abs(gram - np.eye(y.shape[1]))))
    if dev > ORTHO_TOL:
        raise ValueError(f"query matrix is not orthonormal, gram deviation {dev:.3e}")


def dist_sq(block: DataBlock, y: np.ndarray) -> float:
    """Total squared projection of the block's rows onto the columns of y.

    y must be a dim x m matrix with orthonormal columns.  When y spans
    the orthogonal complement of a candidate subspace, this value is the
    summed squared distance of the rows to that subspace.
    """
    y = _array(y, (block.dim, None), "query matrix")
    _check_orthonormal(y)
    proj = block.values @ y
    return float(np.sum(proj * proj))


def random_orthonormal(dim: int, cols: int, seed: int) -> np.ndarray:
    """Deterministic random matrix with orthonormal columns."""
    if not 1 <= cols <= dim:
        raise ValueError(f"need 1 <= cols <= dim, got cols={cols} dim={dim}")
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, cols)))
    # Fixing the sign of each reflector makes the draw independent of
    # how the underlying factorization breaks ties.
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _gram_spectrum(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(s, vt) in descending order from eigh of values.T @ values, or None
    when the Gram matrix overflows or the tail it would cut is below
    its roundoff."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = values.T @ values
    if not _finite(gram):
        return None
    lam, vecs = np.linalg.eigh(gram)
    if not np.sum(lam[: values.shape[1] - n]) > _GRAM_TAIL_FLOOR * lam[-1]:
        return None
    return np.sqrt(np.maximum(lam[::-1], 0.0)), vecs[:, ::-1].T


def svd_truncate(values: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Core reduction: top singular rows plus the discarded tail energy.

    Returns (rows, tail) where row i equals sigma_i * v_i with the sign
    of each direction fixed so its largest-magnitude entry is positive,
    and tail is the sum of squared singular values beyond the first n.
    Rows that overflow raise ValueError, so callers may trust the result.

    When something is cut and the Gram matrix is no bigger than the
    input (rows >= dim > n), the spectrum comes from eigh of
    values.T @ values, about twice as fast as the SVD.  Its eigenvalues
    carry an absolute error of about dim * eps * lambda_max, so it is
    used only when the cut tail exceeds _GRAM_TAIL_FLOOR * lambda_max,
    far above that error.  A near-lossless cut (a rank-deficient input)
    falls back to the SVD, whose squared singular values err by only
    about eps**2 * lambda_max.  Negative eigenvalues are clipped to 0,
    never small positive ones, so clipping can only raise tail.  On
    either path tail matches the energy dropped only to within about
    dim * eps * lambda_max, from either side.
    """
    m, dim = values.shape
    spectrum = _gram_spectrum(values, n) if m >= dim > n else None
    if spectrum is None:
        _, s, vt = np.linalg.svd(values, full_matrices=False)
    else:
        s, vt = spectrum
    kept = vt[: min(n, s.shape[0])].copy()
    peak = np.argmax(np.abs(kept), axis=1)
    signs = np.sign(kept[np.arange(kept.shape[0]), peak])
    signs[signs == 0.0] = 1.0
    rows = (s[: kept.shape[0]] * signs)[:, None] * kept
    # Finite input can still overflow when its energy nears 1e308.
    if not _finite(rows):
        raise ValueError("singular rows overflowed")
    tail = float(np.sum(s[n:] ** 2))
    return rows, tail


def reduce_block(block: DataBlock, n: int) -> CoresetBlock:
    """Compress a raw block to at most n rows.

    The output preserves every projected energy up to the additive
    constant it reports: for any orthonormal y,
    0 <= dist_sq(block, y) - dist_sq(out.block, y) <= out.c.
    A block whose rank does not exceed n is preserved exactly (c = 0 up
    to roundoff).
    """
    if n < 1:
        raise ValueError(f"row budget n must be >= 1, got {n}")
    rows, tail = svd_truncate(block.values, n)
    return CoresetBlock(block=DataBlock._trusted(rows), c=tail, source_rows=block.rows)


def concat_blocks(a: CoresetBlock, b: CoresetBlock) -> CoresetBlock:
    """Stack two summaries; projected energies and constants both add."""
    if a.block.dim != b.block.dim:
        raise ValueError(
            f"dimension mismatch: {a.block.dim} vs {b.block.dim}"
        )
    stacked = np.vstack([a.block.values, b.block.values])
    return CoresetBlock(
        block=DataBlock._trusted(stacked),
        c=a.c + b.c,
        source_rows=a.source_rows + b.source_rows,
    )


def measure_epsilon(
    original: DataBlock,
    summary: CoresetBlock,
    k: int,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Worst observed relative deviation of a summary over random probes.

    Probe t projects both matrices onto random_orthonormal(d, d - k,
    seed + t), so callers can regenerate the exact probe sequence.
    Probes where the original's energy falls below ENERGY_FLOOR are
    skipped.  Returns 0.0 if every probe was skipped.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d = original.dim
    if summary.block.dim != d:
        raise ValueError(
            f"dimension mismatch: original {d}, summary {summary.block.dim}"
        )
    if not 1 <= k < d:
        raise ValueError(f"need 1 <= k < dim={d}, got k={k}")
    worst = 0.0
    for t in range(trials):
        y = random_orthonormal(d, d - k, seed + t)
        denom = dist_sq(original, y)
        if denom < ENERGY_FLOOR:
            continue
        got = dist_sq(summary.block, y) + summary.c
        worst = max(worst, abs(denom - got) / denom)
    return worst
