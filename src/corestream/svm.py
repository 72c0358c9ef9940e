"""Linear appearance models trained by monotone full-batch subgradient descent.

Two trainers share one solver.  The one-class trainer separates its
rows from the origin with a margin-1 hinge and then places a detection
threshold at the nu-quantile of the training scores, so roughly a
(1 - nu) fraction of the training rows score at or above it.  The
binary trainer is the usual hinge on labeled rows.  Both run a fixed
number of full-batch iterations with a 1/t step decay, and every step
is backtracked until the objective does not rise, which makes the
objective sequence non-increasing by construction and the whole
procedure deterministic.

The backtracking line search scores its candidate steps in blocks of
1, 2, 4, ... with one objective call per block, so both objectives take
either one point of shape (d,) or a stack of points of shape (k, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import _finite
from .sampling import SampleSet

# A step is halved at most this many times before being rejected.
_BACKTRACK_LIMIT = 30


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Affine scorer: score(x) = w . x + b, compared against threshold."""

    w: np.ndarray
    b: float
    threshold: float

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"weights must be a vector, got ndim={w.ndim}")
        if not (_finite(w) and math.isfinite(self.b) and math.isfinite(self.threshold)):
            raise ValueError("model parameters must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class TrainParams:
    """Solver settings shared by both trainers.

    regularization scales the 0.5 * reg * |w|^2 penalty, step_size is
    the initial step of the 1/t decay and nu in (0, 1] sets what
    fraction of training rows may fall below the one-class threshold.
    The full-batch solver never draws randomness.
    """

    regularization: float = 1e-3
    iterations: int = 200
    step_size: float = 1.0
    nu: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.regularization) and self.regularization > 0):
            raise ValueError(f"regularization must be > 0, got {self.regularization}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must be in (0, 1], got {self.nu}")


def decisions(model: LinearModel, rows: np.ndarray) -> np.ndarray:
    """Score a stack of feature vectors at once."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise ValueError(f"expected rows of width {model.dim}, got shape {rows.shape}")
    return rows @ model.w + model.b


def one_class_objective(w: np.ndarray, rows: np.ndarray, reg: float) -> float | np.ndarray:
    """0.5 * reg * |w|^2 plus the mean origin-separating hinge at margin 1.

    w is one weight vector of shape (d,), which gives a float, or a
    stack of shape (k, d), which gives an array of k values.
    """
    margins = w @ rows.T
    np.maximum(np.subtract(1.0, margins, out=margins), 0.0, out=margins)
    value = 0.5 * reg * (w * w).sum(axis=-1) + margins.sum(axis=-1) / rows.shape[0]
    return float(value) if w.ndim == 1 else value


def one_class_subgradient(w: np.ndarray, rows: np.ndarray, reg: float) -> np.ndarray:
    """Subgradient of one_class_objective at w."""
    violators = rows @ w < 1.0
    g = reg * w
    if violators.any():
        g -= rows[violators].sum(axis=0) / rows.shape[0]
    return g


def binary_objective(
    w: np.ndarray, b: float | np.ndarray, rows: np.ndarray, labels: np.ndarray, reg: float
) -> float | np.ndarray:
    """0.5 * reg * |w|^2 plus the mean labeled hinge; b is unpenalized.

    Takes one point, w of shape (d,) with a float b, which gives a
    float, or a stack, w of shape (k, d) with b of shape (k,), which
    gives an array of k values.
    """
    scores = w @ rows.T + np.asarray(b)[..., None]
    hinge = np.maximum(1.0 - labels * scores, 0.0).sum(axis=-1) / rows.shape[0]
    value = 0.5 * reg * (w * w).sum(axis=-1) + hinge
    return float(value) if w.ndim == 1 else value


def binary_subgradient(
    w: np.ndarray, b: float, rows: np.ndarray, labels: np.ndarray, reg: float
) -> tuple[np.ndarray, float]:
    """Subgradient of binary_objective at (w, b)."""
    violators = labels * (rows @ w + b) < 1.0
    gw = reg * w
    gb = 0.0
    if violators.any():
        yv = labels[violators]
        gw -= (yv[:, None] * rows[violators]).sum(axis=0) / rows.shape[0]
        gb = -float(yv.sum()) / rows.shape[0]
    return gw, gb


def monotone_descent(
    x0: np.ndarray,
    objective_fn: Callable[[np.ndarray], np.ndarray],
    subgradient_fn: Callable[[np.ndarray], np.ndarray],
    iterations: int,
    step_size: float,
) -> tuple[np.ndarray, list[float]]:
    """Subgradient descent whose recorded objective never increases.

    Iteration t tries the steps (step_size / (t + 1)) * 2**-j for
    j < _BACKTRACK_LIMIT in order and moves to the first candidate
    x - step * g whose objective does not exceed the current value; a
    step that cannot be made to descend is dropped.

    objective_fn takes a stack of points of shape (k, d) and returns
    their k objective values.  The first block is the full step, scored
    on its own; the later blocks hold 2, 4, ... consecutive halvings,
    one objective_fn call per block.  The first qualifying candidate of
    the first block that holds one is taken: the one-at-a-time step.

    While x has not moved, g is the same, so subgradient_fn is called
    once per iterate, not once per iteration.  A search that finds no
    step has rejected every step down to its last one, so the next
    search from the same x starts at its first halving strictly below
    that step.  This is exact for a convex objective: along the line
    phi(a) = f(x - a * g), phi(a0) > phi(0) with a0 > 0 gives phi(a) >
    phi(0) for all a >= a0 (Boyd & Vandenberghe, Convex Optimization,
    3.1).  A search settled at halving j scores at most 2j + 1
    candidates; after a full stall, the next usually scores one.

    Returns the final iterate and the objective value before the first
    step and after each iteration.
    """
    x = np.array(x0, dtype=float)
    current = float(objective_fn(x[None, :])[0])
    path = [current]
    halvings = np.ldexp(1.0, -np.arange(_BACKTRACK_LIMIT))
    g, rejected = None, np.inf
    for t in range(iterations):
        if g is None:
            g = subgradient_fn(x)
        base = step_size / (t + 1.0)
        if rejected == np.inf:
            candidate = x - base * g
            value = float(objective_fn(candidate[None])[0])
            if value <= current:
                x, current, g = candidate, value, None
                path.append(current)
                continue
        steps = base * halvings
        start, size = (1, 2) if rejected == np.inf else (np.count_nonzero(steps >= rejected), 1)
        while start < _BACKTRACK_LIMIT:
            candidates = x - steps[start : start + size, None] * g
            values = objective_fn(candidates)
            descends = values <= current
            if descends.any():
                j = int(descends.argmax())
                x, current, g, rejected = candidates[j], float(values[j]), None, np.inf
                path.append(current)
                break
            start += size
            size *= 2
        else:
            path.append(current)
            rejected = min(rejected, steps[-1])
    return x, path


def _score_quantile(scores: np.ndarray, nu: float) -> float:
    """Largest training score with at least a (1 - nu) fraction at or above it.

    The returned value sits a hair below the empirical quantile so an
    exact copy of a training row, rescored later, cannot fall on the
    wrong side of the cut through float roundoff alone.
    """
    ordered = np.sort(scores)
    idx = min(len(ordered) - 1, int(np.floor(nu * len(ordered))))
    q = float(ordered[idx])
    return q - 1e-9 * (1.0 + abs(q))


def train_one_class(samples: SampleSet, params: TrainParams) -> LinearModel:
    """Fit a one-class scorer to the sample rows.

    The returned model has b = 0; its threshold is the nu-quantile of
    the training scores, so detection keeps roughly the strongest
    (1 - nu) fraction of rows like the training data.
    """
    rows = samples.rows.values
    w0 = np.zeros(samples.rows.dim)
    w, _ = monotone_descent(
        w0,
        lambda w: one_class_objective(w, rows, params.regularization),
        lambda w: one_class_subgradient(w, rows, params.regularization),
        params.iterations,
        params.step_size,
    )
    threshold = _score_quantile(rows @ w, params.nu)
    return LinearModel(w=w, b=0.0, threshold=threshold)


def train_binary(positives: SampleSet, negatives: SampleSet, params: TrainParams) -> LinearModel:
    """Fit a labeled hinge separator; positives score above negatives."""
    if positives.rows.dim != negatives.rows.dim:
        raise ValueError(
            f"dimension mismatch: {positives.rows.dim} vs {negatives.rows.dim}"
        )
    rows = np.vstack([positives.rows.values, negatives.rows.values])
    labels = np.concatenate(
        [np.ones(positives.rows.rows), -np.ones(negatives.rows.rows)]
    )
    d = positives.rows.dim
    packed0 = np.zeros(d + 1)

    def unpack(v: np.ndarray) -> tuple[np.ndarray, float]:
        return v[:d], float(v[d])

    def obj(stack: np.ndarray) -> np.ndarray:
        return binary_objective(stack[:, :d], stack[:, d], rows, labels, params.regularization)

    def grad(v: np.ndarray) -> np.ndarray:
        w, b = unpack(v)
        gw, gb = binary_subgradient(w, b, rows, labels, params.regularization)
        return np.concatenate([gw, [gb]])

    packed, _ = monotone_descent(packed0, obj, grad, params.iterations, params.step_size)
    w, b = unpack(packed)
    return LinearModel(w=w, b=b, threshold=0.0)
