"""Constant-velocity Kalman filtering with noise fitted by EM.

State is (px, py, vx, vy); observations are 2-d centers.  The motion
model is

    x[t+1] = F(dt) x[t] + w,   w ~ N(0, Q)
    z[t]   = H x[t] + v,       v ~ N(0, R)

with F the constant-velocity transition and H reading out position.
em_fit learns Q and R from an observed center sequence by expectation
maximization: the E-step runs a Kalman smoother under the current
noise, the M-step re-estimates both covariances in closed form.  The
observed-data log-likelihood never decreases across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATE_DIM = 4
OBS_DIM = 2

# Covariance diagonals never drop below this, so degenerate inputs
# (for example identical centers) cannot produce singular innovations.
COV_FLOOR = 1e-9

_H = np.zeros((OBS_DIM, STATE_DIM))
_H[0, 0] = 1.0
_H[1, 1] = 1.0

_SYM_TOL = 1e-9


def transition_matrix(dt: float = 1.0) -> np.ndarray:
    """Constant-velocity transition over one step of length dt."""
    f = np.eye(STATE_DIM)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def observation_matrix() -> np.ndarray:
    """Position read-out matrix."""
    return _H.copy()


def _check_covariance(m: np.ndarray, size: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} entries must be finite")
    if float(np.max(np.abs(m - m.T))) > _SYM_TOL:
        raise ValueError(f"{name} must be symmetric within {_SYM_TOL}")
    _check_psd((m + m.T) / 2.0, name)
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
        x = np.asarray(self.x, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"state mean must have shape ({STATE_DIM},), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("state mean must be finite")
        p = _check_covariance(self.P, STATE_DIM, "state covariance")
        x.setflags(write=False)
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", p)

    @classmethod
    def _trusted(cls, x: np.ndarray, p: np.ndarray) -> "KalmanState":
        """Wrap a fresh mean and an exactly symmetric covariance."""
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("state mean and covariance must be finite")
        _check_psd(p, "state covariance")
        x.setflags(write=False)
        p.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "x", x)
        object.__setattr__(state, "P", p)
        return state

    @property
    def position(self) -> np.ndarray:
        return self.x[:OBS_DIM]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[OBS_DIM:]


@dataclass(frozen=True, eq=False)
class NoiseParams:
    """Process covariance Q (4x4) and measurement covariance R (2x2)."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        q = _check_covariance(self.Q, STATE_DIM, "process covariance").copy()
        r = _check_covariance(self.R, OBS_DIM, "measurement covariance").copy()
        q.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)

    @staticmethod
    def default() -> "NoiseParams":
        """Mild defaults used until enough centers exist to fit EM."""
        return NoiseParams(Q=0.01 * np.eye(STATE_DIM), R=np.eye(OBS_DIM))


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def kalman_predict(state: KalmanState, noise: NoiseParams, dt: float = 1.0) -> KalmanState:
    """Advance the state one step without an observation."""
    f = transition_matrix(dt)
    x = f @ state.x
    p = _sym(f @ state.P @ f.T + noise.Q)
    return KalmanState._trusted(x, p)


def kalman_update(state: KalmanState, z: np.ndarray, noise: NoiseParams) -> KalmanState:
    """Fold one observed center into a predicted state.

    Uses the Joseph-form covariance update, which stays symmetric
    positive semidefinite under roundoff.  As R shrinks toward zero the
    updated position approaches the measurement.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (OBS_DIM,):
        raise ValueError(f"observation must have shape ({OBS_DIM},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("observation must be finite")
    innovation = z - _H @ state.x
    s = _H @ state.P @ _H.T + noise.R
    gain = np.linalg.solve(s.T, (_H @ state.P.T)).T
    x = state.x + gain @ innovation
    ikh = np.eye(STATE_DIM) - gain @ _H
    p = _sym(ikh @ state.P @ ikh.T + gain @ noise.R @ gain.T)
    return KalmanState._trusted(x, p)


def _forward_pass(
    zs: np.ndarray, q: np.ndarray, r: np.ndarray, mu0: np.ndarray, p0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Kalman filter over the whole sequence.

    Returns predicted means/covariances, filtered means/covariances and
    the observed-data log-likelihood.
    """
    t_len = zs.shape[0]
    f = transition_matrix(1.0)
    pred_m = np.zeros((t_len, STATE_DIM))
    pred_p = np.zeros((t_len, STATE_DIM, STATE_DIM))
    filt_m = np.zeros((t_len, STATE_DIM))
    filt_p = np.zeros((t_len, STATE_DIM, STATE_DIM))
    loglik = 0.0
    log_2pi = OBS_DIM * np.log(2.0 * np.pi)
    m, p = mu0, p0
    for t in range(t_len):
        if t > 0:
            m = f @ m
            p = _sym(f @ p @ f.T + q)
        pred_m[t] = m
        pred_p[t] = p
        # H reads out position, so H m and H P H^T are leading slices
        # and the 2x2 innovation covariance inverts in closed form.
        innovation = zs[t] - m[:OBS_DIM]
        (s00, s01), (s10, s11) = _sym(p[:OBS_DIM, :OBS_DIM] + r).tolist()
        det = s00 * s11 - s01 * s10
        if not det > 0:
            raise np.linalg.LinAlgError("innovation covariance not positive definite")
        s_inv = np.array([[s11, -s01], [-s10, s00]]) / det
        loglik += -0.5 * (log_2pi + np.log(det) + innovation @ s_inv @ innovation)
        gain = p[:, :OBS_DIM] @ s_inv
        m = m + gain @ innovation
        ikh = np.eye(STATE_DIM)
        ikh[:, :OBS_DIM] -= gain
        p = _sym(ikh @ p @ ikh.T + gain @ r @ gain.T)
        filt_m[t] = m
        filt_p[t] = p
    return pred_m, pred_p, filt_m, filt_p, float(loglik)


def _smooth_pass(
    pred_m: np.ndarray,
    pred_p: np.ndarray,
    filt_m: np.ndarray,
    filt_p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rauch-Tung-Striebel smoother plus lag-one covariances.

    Returns smoothed means, smoothed covariances and lag[t] =
    Cov(x[t], x[t-1] | all observations) for t >= 1.
    """
    t_len = pred_m.shape[0]
    f = transition_matrix(1.0)
    sm = filt_m.copy()
    sp = filt_p.copy()
    # The gains J[t] = filt_p[t] F^T pred_p[t+1]^-1 depend on the
    # covariances only, so one batched solve of
    # pred_p[t+1]^T J[t]^T = F filt_p[t]^T yields all of them.
    gains_t = np.linalg.solve(np.swapaxes(pred_p[1:], 1, 2), f @ np.swapaxes(filt_p[:-1], 1, 2))
    gains = np.swapaxes(gains_t, 1, 2)
    for t in range(t_len - 2, -1, -1):
        j = gains[t]
        sm[t] = filt_m[t] + j @ (sm[t + 1] - pred_m[t + 1])
        sp[t] = _sym(filt_p[t] + j @ (sp[t + 1] - pred_p[t + 1]) @ j.T)
    lag = np.zeros((t_len, STATE_DIM, STATE_DIM))
    lag[1:] = sp[1:] @ np.swapaxes(gains, 1, 2)
    return sm, sp, lag


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
    """One EM sweep: returns updated (Q, R) and the log-likelihood of
    the parameters that produced them."""
    t_len = zs.shape[0]
    f = transition_matrix(1.0)
    pred_m, pred_p, filt_m, filt_p, loglik = _forward_pass(zs, q, r, mu0, p0)
    sm, sp, lag = _smooth_pass(pred_m, pred_p, filt_m, filt_p)

    # Q's sufficient statistic sum_t E[(x[t+1] - F x[t])(x[t+1] - F x[t])^T]
    # as array reductions over t; the mean part is the outer product of
    # the smoothed one-step residuals, which avoids cancelling the large
    # second moments of the positions against each other.
    step = sm[1:] - sm[:-1] @ f.T
    lag_sum = lag[1:].sum(axis=0)
    q_sum = (
        step.T @ step
        + sp[1:].sum(axis=0)
        - lag_sum @ f.T
        - f @ lag_sum.T
        + f @ sp[:-1].sum(axis=0) @ f.T
    )
    q_new = _sym(q_sum / (t_len - 1))

    resid = zs - sm[:, :OBS_DIM]
    r_sum = resid.T @ resid + sp[:, :OBS_DIM, :OBS_DIM].sum(axis=0)
    r_new = _sym(r_sum / t_len)

    for m in (q_new, r_new):
        np.fill_diagonal(m, np.maximum(np.diag(m), COV_FLOOR))
    return q_new, r_new, loglik


def em_fit_detailed(centers: np.ndarray, iterations: int) -> tuple[NoiseParams, list[float]]:
    """EM fit that also reports the log-likelihood before each sweep.

    The returned list has one entry per iteration and is non-decreasing
    up to the covariance floor.
    """
    zs = np.asarray(centers, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != OBS_DIM:
        raise ValueError(f"centers must be shaped (t, {OBS_DIM}), got {zs.shape}")
    if zs.shape[0] < 4:
        raise ValueError(f"need at least 4 centers, got {zs.shape[0]}")
    if not np.all(np.isfinite(zs)):
        raise ValueError("centers must be finite")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    mu0, p0, q, r = _initial_guesses(zs)
    history: list[float] = []
    for _ in range(iterations):
        q, r, loglik = _em_once(zs, q, r, mu0, p0)
        history.append(loglik)
    return NoiseParams(Q=q, R=r), history


def em_fit(centers: np.ndarray, iterations: int = 20) -> NoiseParams:
    """Fit process and measurement covariances to a center sequence."""
    fitted, _ = em_fit_detailed(centers, iterations)
    return fitted
