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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import SampleSet

# A step is halved at most this many times before being rejected.
_BACKTRACK_LIMIT = 30


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Affine scorer: decision(x) = w . x + b, compared against threshold."""

    w: np.ndarray
    b: float
    threshold: float

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"weights must be a vector, got ndim={w.ndim}")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.b) and np.isfinite(self.threshold)):
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
        if not (np.isfinite(self.regularization) and self.regularization > 0):
            raise ValueError(f"regularization must be > 0, got {self.regularization}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must be in (0, 1], got {self.nu}")


def decision(model: LinearModel, x: np.ndarray) -> float:
    """Score one feature vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected a vector of shape ({model.dim},), got {x.shape}")
    return float(model.w @ x + model.b)


def decisions(model: LinearModel, rows: np.ndarray) -> np.ndarray:
    """Score a stack of feature vectors at once."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise ValueError(f"expected rows of width {model.dim}, got shape {rows.shape}")
    return rows @ model.w + model.b


def one_class_objective(w: np.ndarray, rows: np.ndarray, reg: float) -> float:
    """0.5 * reg * |w|^2 plus the mean origin-separating hinge at margin 1."""
    margins = 1.0 - rows @ w
    return 0.5 * reg * float(w @ w) + float(np.mean(np.maximum(margins, 0.0)))


def one_class_subgradient(w: np.ndarray, rows: np.ndarray, reg: float) -> np.ndarray:
    """Subgradient of one_class_objective at w."""
    violators = rows @ w < 1.0
    g = reg * w.copy()
    if np.any(violators):
        g -= rows[violators].sum(axis=0) / rows.shape[0]
    return g


def binary_objective(
    w: np.ndarray, b: float, rows: np.ndarray, labels: np.ndarray, reg: float
) -> float:
    """0.5 * reg * |w|^2 plus the mean labeled hinge; b is unpenalized."""
    margins = 1.0 - labels * (rows @ w + b)
    return 0.5 * reg * float(w @ w) + float(np.mean(np.maximum(margins, 0.0)))


def binary_subgradient(
    w: np.ndarray, b: float, rows: np.ndarray, labels: np.ndarray, reg: float
) -> tuple[np.ndarray, float]:
    """Subgradient of binary_objective at (w, b)."""
    violators = labels * (rows @ w + b) < 1.0
    gw = reg * w.copy()
    gb = 0.0
    if np.any(violators):
        yv = labels[violators]
        gw -= (yv[:, None] * rows[violators]).sum(axis=0) / rows.shape[0]
        gb = -float(yv.sum()) / rows.shape[0]
    return gw, gb


def monotone_descent(
    x0: np.ndarray,
    objective_fn: Callable[[np.ndarray], float],
    subgradient_fn: Callable[[np.ndarray], np.ndarray],
    iterations: int,
    step_size: float,
) -> tuple[np.ndarray, list[float]]:
    """Subgradient descent whose recorded objective never increases.

    Iteration t proposes x - (step_size / (t + 1)) * g and halves the
    step until the objective stops rising; a step that cannot be made
    to descend is dropped.  Returns the final iterate and the objective
    value before the first step and after each iteration.
    """
    x = np.array(x0, dtype=float)
    path = [objective_fn(x)]
    for t in range(iterations):
        g = subgradient_fn(x)
        step = step_size / (t + 1.0)
        accepted = False
        for _ in range(_BACKTRACK_LIMIT):
            candidate = x - step * g
            value = objective_fn(candidate)
            if value <= path[-1]:
                x = candidate
                path.append(value)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            path.append(path[-1])
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

    def obj(v: np.ndarray) -> float:
        w, b = unpack(v)
        return binary_objective(w, b, rows, labels, params.regularization)

    def grad(v: np.ndarray) -> np.ndarray:
        w, b = unpack(v)
        gw, gb = binary_subgradient(w, b, rows, labels, params.regularization)
        return np.concatenate([gw, [gb]])

    packed, _ = monotone_descent(packed0, obj, grad, params.iterations, params.step_size)
    w, b = unpack(packed)
    return LinearModel(w=w, b=b, threshold=0.0)
