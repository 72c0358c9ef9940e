"""Constant-velocity Kalman filtering with noise fitted by EM.

State is (px, py, vx, vy); observations are 2-d centers.  The motion
model is

    x[t+1] = F x[t] + w,       w ~ N(0, Q)
    z[t]   = H x[t] + v,       v ~ N(0, R)

with F the constant-velocity transition and H reading out position.
em_fit learns Q and R from an observed center sequence by expectation
maximization.  The E-step runs the Kalman filter and RTS smoother as
parallel-prefix scans in ceil(log2 T) batched levels (Sarkka & Garcia-
Fernandez, IEEE TAC 2021); the M-step re-estimates both covariances in
closed form.  The observed-data log-likelihood never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import _finite, _wrap

STATE_DIM = 4
OBS_DIM = 2

# Covariance diagonals never drop below this, so degenerate inputs
# (for example identical centers) cannot produce singular innovations.
COV_FLOOR = 1e-9

_SYM_TOL = 1e-9
_I4 = np.eye(STATE_DIM)
# One unit step adds the velocity (vx, vy) to the position (px, py).
_F = _I4 + np.eye(STATE_DIM, k=OBS_DIM)
_H = _I4[:OBS_DIM].copy()


def _check_covariance(m: np.ndarray, size: int, name: str) -> np.ndarray:
    """A read-only copy of m, checked to be a finite symmetric PSD size x size matrix."""
    m = np.array(m, dtype=float)
    if m.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got {m.shape}")
    if not _finite(m):
        raise ValueError(f"{name} entries must be finite")
    # Halving first keeps entries near the float limit from overflowing.
    half = m / 2.0
    if float(np.max(np.abs(half - half.T))) > _SYM_TOL / 2.0:
        raise ValueError(f"{name} must be symmetric within {_SYM_TOL}")
    _check_psd(half + half.T, name)
    m.setflags(write=False)
    return m


def _check_psd(m: np.ndarray, name: str) -> None:
    eigs = np.linalg.eigvalsh(m)
    if float(eigs[0]) < -_SYM_TOL:
        raise ValueError(f"{name} must be positive semidefinite, min eig {eigs[0]:.3e}")


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Filter state: mean x = (px, py, vx, vy) and covariance P.

    The constructor checks and copies its input.  The filter's own
    states come from _trusted, which keeps the finite and PSD checks
    but skips the copy and the symmetry check that _sym makes exact.
    """

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"state mean must have shape ({STATE_DIM},), got {x.shape}")
        if not _finite(x):
            raise ValueError("state mean must be finite")
        p = _check_covariance(self.P, STATE_DIM, "state covariance")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", p)

    @classmethod
    def _trusted(cls, x: np.ndarray, p: np.ndarray) -> "KalmanState":
        """Wrap a fresh mean and an exactly symmetric covariance."""
        if not (_finite(x) and _finite(p)):
            raise ValueError("state mean and covariance must be finite")
        _check_psd(p, "state covariance")
        x.setflags(write=False)
        p.setflags(write=False)
        return _wrap(cls, x=x, P=p)

    @property
    def position(self) -> np.ndarray:
        return self.x[:OBS_DIM]


@dataclass(frozen=True, eq=False)
class NoiseParams:
    """Process covariance Q (4x4) and measurement covariance R (2x2)."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        q = _check_covariance(self.Q, STATE_DIM, "process covariance")
        r = _check_covariance(self.R, OBS_DIM, "measurement covariance")
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)

    @staticmethod
    def default() -> "NoiseParams":
        """Mild defaults used until enough centers exist to fit EM."""
        return NoiseParams(Q=0.01 * np.eye(STATE_DIM), R=np.eye(OBS_DIM))


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.swapaxes(-1, -2)) / 2.0


def kalman_predict(state: KalmanState, noise: NoiseParams) -> KalmanState:
    """Advance the state one step without an observation."""
    x = _F @ state.x
    p = _sym(_F @ state.P @ _F.T + noise.Q)
    return KalmanState._trusted(x, p)


def kalman_update(state: KalmanState, z: np.ndarray, noise: NoiseParams) -> KalmanState:
    """Fold one observed center into a predicted state.

    Uses the Joseph-form update, which stays symmetric PSD under roundoff.
    H x, H P H^T and H P^T are slices, exactly equal since H selects the
    position.  As R shrinks toward zero the position approaches z.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (OBS_DIM,):
        raise ValueError(f"observation must have shape ({OBS_DIM},), got {z.shape}")
    if not _finite(z):
        raise ValueError("observation must be finite")
    s = state.P[:OBS_DIM, :OBS_DIM] + noise.R
    gain = np.linalg.solve(s.T, state.P.T[:OBS_DIM]).T
    x = state.x + gain @ (z - state.x[:OBS_DIM])
    ikh = _I4 - gain @ _H
    p = _sym(ikh @ state.P @ ikh.T + gain @ noise.R @ gain.T)
    return KalmanState._trusted(x, p)


def _scan(elements: list[np.ndarray], combine, reverse: bool = False) -> None:
    """Hillis-Steele scan in place, in ceil(log2 T) batched levels: element t
    becomes the combination of elements 0..t, or of t..T-1 when reverse is set."""
    d = 1
    while d < len(elements[0]):
        combined = combine([e[:-d] for e in elements], [e[d:] for e in elements])
        for e, c in zip(elements, combined):
            e[slice(None, -d) if reverse else slice(d, None)] = c
        d *= 2


def _combine_filtering(earlier, later):
    """Associative operator on filtering elements (A, b, C, eta, J)."""
    (a1, b1, c1, eta1, j1), (a2, b2, c2, eta2, j2) = earlier, later
    # C and J are symmetric, so (I + J2 C1)^-1 = m^T: one inverse serves both.
    m = np.linalg.inv(_I4 + c1 @ j2)
    a2m, a1mt = a2 @ m, (m @ a1).transpose(0, 2, 1)
    b = a2m @ (b1 + c1 @ eta2) + b2
    eta = a1mt @ (eta2 - j2 @ b1) + eta1
    return a2m @ a1, b, a2m @ c1 @ a2.transpose(0, 2, 1) + c2, eta, a1mt @ j2 @ a1 + j1


def _combine_smoothing(earlier, later):
    """Associative operator on smoothing elements (E, g, L)."""
    (e1, g1, l1), (e2, g2, l2) = earlier, later
    return e1 @ e2, e1 @ g2 + g1, e1 @ l2 @ e1.transpose(0, 2, 1) + l1


def _e_step(
    zs: np.ndarray, q: np.ndarray, r: np.ndarray, mu0: np.ndarray, p0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Kalman filter and RTS smoother as scans: smoothed means and covariances,
    lag[t] = Cov(x[t], x[t-1] | all observations) for t >= 1 and the
    log-likelihood, with the prior (mu0, p0) at t = 0."""
    hf, later = _F[:OBS_DIM], (np.arange(zs.shape[0]) > 0)[:, None, None]
    # Filtering element 0 conditions the prior on z[0]; element t > 0 conditions
    # the noise N(0, Q) of x[t] = F x[t-1] + w on z[t], so Q is never inverted.
    priors = np.stack([p0, q])
    s_inv = np.linalg.inv(priors[:, :OBS_DIM, :OBS_DIM] + r)
    gain = priors[:, :, :OBS_DIM] @ s_inv
    ikh = _I4 - gain @ _H
    posts = _sym(ikh @ priors @ ikh.transpose(0, 2, 1) + gain @ r @ gain.transpose(0, 2, 1))
    b = zs @ gain[1].T
    b[0] = mu0 + gain[0] @ (zs[0] - mu0[:OBS_DIM])
    c, sh = np.where(later, posts[1], posts[0]), s_inv[1] @ hf
    eta, j = later * (sh.T @ zs[..., None]), later * (hf.T @ sh)
    _scan([later * (ikh[1] @ _F), b[..., None], c, eta, j], _combine_filtering)
    filt_p = _sym(c)
    # Cholesky raises LinAlgError, before any log, unless every innovation covariance is PD.
    pred_p = np.concatenate([p0[None], _sym(_F @ filt_p[:-1] @ _F.T + q)])
    chol = np.linalg.cholesky(pred_p[:, :OBS_DIM, :OBS_DIM] + r)
    innovation = zs - np.concatenate([mu0[None], b[:-1] @ _F.T])[:, :OBS_DIM]
    white = np.linalg.solve(chol, innovation[..., None])
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2))
    loglik = -0.5 * (zs.size * np.log(2.0 * np.pi) + float(np.sum(logdet) + np.sum(white**2)))
    # Smoothing element t is (E, (I - E F) m, (I - E F) P) for the filtered
    # (m, P) and gain E = P F^T pred_p[t+1]^-1, with E = 0 at the end.
    gains_t = np.linalg.solve(pred_p[1:], _F @ filt_p[:-1])
    e = np.concatenate([gains_t.transpose(0, 2, 1), np.zeros((1, STATE_DIM, STATE_DIM))])
    ief = _I4 - e @ _F
    g, l = ief @ b[..., None], ief @ filt_p
    _scan([e, g, l], _combine_smoothing, reverse=True)
    sp = _sym(l)
    lag = np.concatenate([np.zeros((1, STATE_DIM, STATE_DIM)), sp[1:] @ gains_t])
    return g[..., 0], sp, lag, loglik


def _initial_guesses(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic starting point: state from the first two centers,
    noise scales from second differences of the track."""
    mu0 = np.concatenate([zs[0], zs[1] - zs[0]])
    p0 = np.eye(STATE_DIM)
    accel = zs[2:] - 2.0 * zs[1:-1] + zs[:-2]
    # Under a locally linear track the second difference is dominated
    # by measurement noise with variance 6 R per axis, so R starts at
    # that scale while Q starts two orders smaller; EM only has to
    # grow Q when the motion really is rough, which converges much
    # faster than draining an oversized Q.
    scale = max(float(np.mean(accel**2)) / 6.0, 1e-4)
    return mu0, p0, (scale / 100.0) * np.eye(STATE_DIM), scale * np.eye(OBS_DIM)


def _em_once(
    zs: np.ndarray, q: np.ndarray, r: np.ndarray, mu0: np.ndarray, p0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """One EM sweep, its E-step two parallel-prefix scans (_e_step): returns
    updated (Q, R) and the log-likelihood of the parameters that produced
    them."""
    t_len = zs.shape[0]
    sm, sp, lag, loglik = _e_step(zs, q, r, mu0, p0)

    # Q's sufficient statistic sum_t E[(x[t+1] - F x[t])(x[t+1] - F x[t])^T]
    # as array reductions over t; the mean part is the outer product of
    # the smoothed one-step residuals, which avoids cancelling the large
    # second moments of the positions against each other.
    step = sm[1:] - sm[:-1] @ _F.T
    lag_sum = lag[1:].sum(axis=0)
    q_sum = (
        step.T @ step
        + sp[1:].sum(axis=0)
        - lag_sum @ _F.T
        - _F @ lag_sum.T
        + _F @ sp[:-1].sum(axis=0) @ _F.T
    )
    q_new = _sym(q_sum / (t_len - 1))

    resid = zs - sm[:, :OBS_DIM]
    r_sum = resid.T @ resid + sp[:, :OBS_DIM, :OBS_DIM].sum(axis=0)
    r_new = _sym(r_sum / t_len)

    for m in (q_new, r_new):
        np.fill_diagonal(m, np.maximum(np.diag(m), COV_FLOOR))
    return q_new, r_new, loglik


def em_fit(centers: np.ndarray, iterations: int = 20) -> tuple[NoiseParams, list[float]]:
    """Fit process and measurement covariances to a center sequence.

    Returns the fit and the log-likelihood before each sweep: one entry
    per iteration, non-decreasing up to the covariance floor.
    """
    zs = np.asarray(centers, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != OBS_DIM:
        raise ValueError(f"centers must be shaped (t, {OBS_DIM}), got {zs.shape}")
    if zs.shape[0] < 4:
        raise ValueError(f"need at least 4 centers, got {zs.shape[0]}")
    if not _finite(zs):
        raise ValueError("centers must be finite")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    mu0, p0, q, r = _initial_guesses(zs)
    history: list[float] = []
    for _ in range(iterations):
        q, r, loglik = _em_once(zs, q, r, mu0, p0)
        history.append(loglik)
    return NoiseParams(Q=q, R=r), history
