"""Constant-velocity Kalman filtering with noise fitted by EM.

State is (px, py, vx, vy); observations are 2-d centers.  The motion
model is

    x[t+1] = F x[t] + w,       w ~ N(0, Q)
    z[t]   = H x[t] + v,       v ~ N(0, R)

with F the constant-velocity transition and H reading out position.
The filter steps _predict and _update run on Python floats: the 4 mean
and 16 covariance entries, row by row, in and out.  Each is a kernel
followed by the finite and PSD checks of _checked.  Predict equals the
matrix form bit for bit, and update inverts the 2x2 innovation
covariance in closed form.  KalmanState._trusted only wraps a checked
state.  The tracking loop carries these floats from frame to frame;
kalman_predict and kalman_update wrap the same steps.  em_fit learns Q
and R from an observed center sequence by expectation maximization.
Its E-step runs the same kernels forward, then one RTS pass back in
matrix form (Shumway & Stoffer, J. Time Series Analysis 1982); the
M-step re-estimates both covariances in closed form.  The
observed-data log-likelihood never decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import _array, _wrap

STATE_DIM = 4
OBS_DIM = 2

# Covariance diagonals never drop below this, so degenerate inputs
# (for example identical centers) cannot produce singular innovations.
COV_FLOOR = 1e-9

_SYM_TOL = 1e-9
# A filter state: the 4 mean and 16 covariance floats, row by row.
_Floats = tuple[list[float], list[float]]
# One unit step adds the velocity (vx, vy) to the position (px, py).
_F = np.eye(STATE_DIM) + np.eye(STATE_DIM, k=OBS_DIM)


def _check_covariance(m: np.ndarray, size: int, name: str) -> np.ndarray:
    """A read-only copy of m, checked to be a finite symmetric PSD size x size matrix."""
    m = _array(m, (size, size), f"{name} entries", copy=True)
    # Halving first keeps entries near the float limit from overflowing.
    half = m / 2.0
    if float(np.max(np.abs(half - half.T))) > _SYM_TOL / 2.0:
        raise ValueError(f"{name} must be symmetric within {_SYM_TOL}")
    _check_psd(half + half.T, name)
    return m


def _ldl_accepts(m: list[float]) -> bool:
    """Whether the symmetric 4x4 m (16 entries, row by row) has no diagonal entry
    above 2^13 and m + (_SYM_TOL / 2) I positive LDL^T pivots; reads the lower triangle.
    There the LDL^T errs by at most about 2e-11, so eigvalsh accepts such an m too."""
    t = _SYM_TOL / 2.0
    a, _, _, _, b, c, _, _, d, e, f, _, g, h, i, j = m
    if max(a, c, f, j) > 2.0**13 or not (a := a + t) > 0.0:
        return False
    lb, ld, lg = b / a, d / a, g / a
    if not (c := c + t - lb * b) > 0.0:
        return False
    e, h = e - ld * b, h - lg * b
    if not (f := f + t - ld * d - e / c * e) > 0.0:
        return False
    i -= lg * d + h / c * e
    return j + t - lg * g - h / c * h - i / f * i > 0.0


def _check_psd(m: np.ndarray, name: str) -> None:
    eigs = np.linalg.eigvalsh(m)
    if float(eigs[0]) < -_SYM_TOL:
        raise ValueError(f"{name} must be positive semidefinite, min eig {eigs[0]:.3e}")


def _symmetrized(m: list[float]) -> list[float]:
    """The 16 entries of _sym(M), row by row, for the 4x4 matrix M whose
    entries m lists row by row."""
    m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = m
    s01, s02, s03 = (m01 + m10) / 2.0, (m02 + m20) / 2.0, (m03 + m30) / 2.0
    s12, s13, s23 = (m12 + m21) / 2.0, (m13 + m31) / 2.0, (m23 + m32) / 2.0
    d0, d1, d2, d3 = (m00 + m00) / 2.0, (m11 + m11) / 2.0, (m22 + m22) / 2.0, (m33 + m33) / 2.0
    return [d0, s01, s02, s03, s01, d1, s12, s13, s02, s12, d2, s23, s03, s13, s23, d3]


def _checked(x: list[float], m: list[float]) -> _Floats:
    """Mean x and _symmetrized(m); ValueError unless both are finite and
    the covariance is PSD: _ldl_accepts it, or eigvalsh words the verdict."""
    p = _symmetrized(m)
    if not all(map(math.isfinite, x + p)):
        raise ValueError("state mean and covariance must be finite")
    if not _ldl_accepts(p):
        _check_psd(np.array(p).reshape(STATE_DIM, STATE_DIM), "state covariance")
    return x, p


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Filter state: mean x = (px, py, vx, vy) and covariance P.

    The constructor checks and copies its input, with eigvalsh for the
    PSD check.  The filter's own states pass _checked instead, and
    _trusted only wraps what it returns.
    """

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _array(self.x, (STATE_DIM,), "state mean", copy=True))
        object.__setattr__(self, "P", _check_covariance(self.P, STATE_DIM, "state covariance"))

    @classmethod
    def _trusted(cls, x: list[float], p: list[float]) -> "KalmanState":
        """Wrap a mean and covariance that _checked returned."""
        mean, cov = np.array(x), np.array(p).reshape(STATE_DIM, STATE_DIM)
        mean.setflags(write=False)
        cov.setflags(write=False)
        return _wrap(cls, x=mean, P=cov)

    @property
    def position(self) -> np.ndarray:
        return self.x[:OBS_DIM]


@dataclass(frozen=True, eq=False)
class NoiseParams:
    """Process covariance Q (4x4) and measurement covariance R (2x2)."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "Q", _check_covariance(self.Q, STATE_DIM, "process covariance"))
        object.__setattr__(self, "R", _check_covariance(self.R, OBS_DIM, "measurement covariance"))

    @staticmethod
    def default() -> "NoiseParams":
        """Mild defaults used until enough centers exist to fit EM."""
        return NoiseParams(Q=0.01 * np.eye(STATE_DIM), R=np.eye(OBS_DIM))


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.swapaxes(-1, -2)) / 2.0


def _predict_kernel(x: list[float], p: list[float], q: list[float]) -> _Floats:
    """The predict step on the 4 mean floats, the 16 covariance floats and
    the 16 entries of Q, all row by row; returns F x and F P F^T + Q
    unchecked and unsymmetrized.

    F adds the velocity to the position, so each entry of F x and F P F^T
    is one or two exact sums.  Written out in the order the matrix products
    take them, _symmetrized makes the state F x and _sym(F P F^T + Q) bit
    for bit.
    """
    px, py, vx, vy = x
    p00, p01, p02, p03, p10, p11, p12, p13, p20, p21, p22, p23, p30, p31, p32, p33 = p
    # Rows 0 and 1 of F P; (F P) F^T then adds columns 2 and 3 to columns 0 and 1.
    a0, a1, a2, a3 = p00 + p20, p01 + p21, p02 + p22, p03 + p23
    b0, b1, b2, b3 = p10 + p30, p11 + p31, p12 + p32, p13 + p33
    m = [
        *(a0 + a2 + q[0], a1 + a3 + q[1], a2 + q[2], a3 + q[3]),
        *(b0 + b2 + q[4], b1 + b3 + q[5], b2 + q[6], b3 + q[7]),
        *(p20 + p22 + q[8], p21 + p23 + q[9], p22 + q[10], p23 + q[11]),
        *(p30 + p32 + q[12], p31 + p33 + q[13], p32 + q[14], p33 + q[15]),
    ]
    return [px + vx, py + vy, vx, vy], m


def _predict(x: list[float], p: list[float], q: list[float]) -> _Floats:
    """The checked (x, P) one step ahead: _predict_kernel, then _checked."""
    return _checked(*_predict_kernel(x, p, q))


def _update_kernel(x: list[float], p: list[float], z: list[float], r: list[float]) -> _Floats:
    """The update step on the 4 mean floats, the 16 covariance floats, the
    2 floats of the observed center z and the 4 entries of R, all row by
    row; returns the new mean and covariance unchecked and unsymmetrized.

    Uses that H selects the position.  The gain is P[:, :2] S^-1, with
    the closed-form inverse of S = P[:2, :2] + R taken as given; a
    singular S raises LinAlgError, and a det S outside [1e-300, 1e300] is
    first scaled by an exact power of two.  The covariance is the Joseph
    form (I - K H) P (I - K H)^T + K R K^T, which stays symmetric PSD
    under roundoff.
    """
    p00, p01, p02, p03, p10, p11, p12, p13, p20, p21, p22, p23, p30, p31, p32, p33 = p
    r00, r01, r10, r11 = r
    a, b, c, d = p00 + r00, p01 + r01, p10 + r10, p11 + r11
    det, scale = a * d - b * c, 1.0
    if not 1e-300 < abs(det) < 1e300:
        scale = 2.0 ** -max(math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1], -1023)
        a, b, c, d = a * scale, b * scale, c * scale, d * scale
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):  # singular, or S beyond the float limit
            raise np.linalg.LinAlgError("Singular matrix")
    w = scale / det
    # Row i of the gain is (P[i, 0], P[i, 1]) times adj(S) / det S.
    k00, k01 = (p00 * d - p01 * c) * w, (p01 * a - p00 * b) * w
    k10, k11 = (p10 * d - p11 * c) * w, (p11 * a - p10 * b) * w
    k20, k21 = (p20 * d - p21 * c) * w, (p21 * a - p20 * b) * w
    k30, k31 = (p30 * d - p31 * c) * w, (p31 * a - p30 * b) * w
    dz0, dz1 = z[0] - x[0], z[1] - x[1]
    px, py, vx, vy = x
    x = [px + (k00 * dz0 + k01 * dz1), py + (k10 * dz0 + k11 * dz1),
         vx + (k20 * dz0 + k21 * dz1), vy + (k30 * dz0 + k31 * dz1)]
    m = []
    rows = (p[:4], k00, k01), (p[4:8], k10, k11), (p[8:12], k20, k21), (p[12:], k30, k31)
    for (w0, w1, w2, w3), g0, g1 in rows:
        # Row i of A = (I - K H) P, of V = A H^T - K R, and of the Joseph form A - V K^T.
        a0, a1 = w0 - g0 * p00 - g1 * p10, w1 - g0 * p01 - g1 * p11
        a2, a3 = w2 - g0 * p02 - g1 * p12, w3 - g0 * p03 - g1 * p13
        v0, v1 = a0 - (g0 * r00 + g1 * r10), a1 - (g0 * r01 + g1 * r11)
        m += (a0 - v0 * k00 - v1 * k01, a1 - v0 * k10 - v1 * k11)
        m += (a2 - v0 * k20 - v1 * k21, a3 - v0 * k30 - v1 * k31)
    return x, m


def _update(x: list[float], p: list[float], z: np.ndarray, r: list[float]) -> _Floats:
    """The checked (x, P) with the observed center z, which it checks,
    folded in: _update_kernel, then _checked."""
    return _checked(*_update_kernel(x, p, _array(z, (OBS_DIM,), "observation").tolist(), r))


def kalman_predict(state: KalmanState, noise: NoiseParams) -> KalmanState:
    """Advance the state one step without an observation: F x and
    _sym(F P F^T + Q), equal to the matrix form bit for bit (see _predict)."""
    q = noise.Q.ravel().tolist()
    return KalmanState._trusted(*_predict(state.x.tolist(), state.P.ravel().tolist(), q))


def kalman_update(state: KalmanState, z: np.ndarray, noise: NoiseParams) -> KalmanState:
    """Fold one observed center into a predicted state (see _update).

    Agrees with the matrix form solved by LAPACK to roundoff, and raises
    LinAlgError where that solve would.  As R shrinks toward zero the
    position approaches z.
    """
    r = noise.R.ravel().tolist()
    return KalmanState._trusted(*_update(state.x.tolist(), state.P.ravel().tolist(), z, r))


def _e_step(
    zs: np.ndarray, q: np.ndarray, r: np.ndarray, mu0: np.ndarray, p0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Kalman filter and RTS smoother: smoothed means and covariances,
    lag[t] = Cov(x[t], x[t-1] | all observations) for t >= 1 and the
    log-likelihood, with the prior (mu0, p0) at t = 0.  The filter runs
    the loop's kernels and _symmetrized, so its last state is the loop's
    bit for bit, but not _checked; it raises LinAlgError, before any
    division or log, unless every innovation covariance is PD."""
    q_f, r_f = q.ravel().tolist(), r.ravel().tolist()
    r00, r01, r10, r11 = r_f
    x, p = mu0.tolist(), p0.ravel().tolist()
    pred, filt, quad = [], [], 0.0  # each state as its 16 covariance floats, then its mean
    for t, z in enumerate(zs.tolist()):
        if t:
            x, p = _predict_kernel(x, p, q_f)
            p = _symmetrized(p)
        pred.append(p + x)
        # S = P[:2, :2] + R; log det S plus the Mahalanobis term of the innovation.
        a, b, c, d = p[0] + r00, p[1] + r01, p[4] + r10, p[5] + r11
        det = a * d - b * c
        if not (a > 0.0 and det > 0.0):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        dz0, dz1 = z[0] - x[0], z[1] - x[1]
        quad += math.log(det) + (d * dz0 * dz0 - (b + c) * dz0 * dz1 + a * dz1 * dz1) / det
        x, p = _update_kernel(x, p, z, r_f)
        p = _symmetrized(p)
        filt.append(p + x)
    loglik = -0.5 * (zs.size * math.log(2.0 * math.pi) + quad)
    # The RTS pass runs on [P | m], 4 x 5 per t.  Its gains J[t], the filtered
    # P[t] F^T over the predicted P[t+1], are solved at once as J^T; each step
    # back is s[t] = filt[t] + J[t] (s[t+1] - pred[t+1]) diag(J[t]^T, 1).
    pred, filt = (
        np.concatenate([a[:, :16].reshape(-1, STATE_DIM, STATE_DIM), a[:, 16:, None]], axis=2)
        for a in map(np.array, (pred, filt))
    )
    gains_t = np.linalg.solve(pred[1:, :, :STATE_DIM], _F @ filt[:-1, :, :STATE_DIM])
    right = np.zeros((len(gains_t), STATE_DIM + 1, STATE_DIM + 1))
    right[:, :STATE_DIM, :STATE_DIM], right[:, STATE_DIM, STATE_DIM] = gains_t, 1.0
    gains, smoothed = gains_t.transpose(0, 2, 1), [filt[-1]]
    for t in range(len(gains) - 1, -1, -1):
        smoothed.append(filt[t] + gains[t] @ (smoothed[-1] - pred[t + 1]) @ right[t])
    s = np.array(smoothed[::-1])
    sm, sp = s[..., STATE_DIM], _sym(s[..., :STATE_DIM])
    lag = np.concatenate([np.zeros((1, STATE_DIM, STATE_DIM)), sp[1:] @ gains_t])
    return sm, sp, lag, loglik


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
    """One EM sweep, the filter and smoother of _e_step, then the M-step:
    returns updated (Q, R) and the log-likelihood of the parameters that
    produced them."""
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
    zs = _array(centers, (None, OBS_DIM), "centers")
    if zs.shape[0] < 4:
        raise ValueError(f"need at least 4 centers, got {zs.shape[0]}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    mu0, p0, q, r = _initial_guesses(zs)
    history: list[float] = []
    for _ in range(iterations):
        q, r, loglik = _em_once(zs, q, r, mu0, p0)
        history.append(loglik)
    return NoiseParams(Q=q, R=r), history
