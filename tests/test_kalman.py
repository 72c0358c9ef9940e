"""Tests for the constant-velocity filter and its EM noise fitter."""

import warnings

import numpy as np
import pytest

from corestream import (
    DataBlock,
    KalmanState,
    LinearModel,
    NoiseParams,
    TreeView,
    em_fit,
    kalman_predict,
    kalman_update,
)
from corestream.kalman import (
    COV_FLOOR,
    _e_step,
    _em_once,
    _initial_guesses,
    _F,
    _H,
    _sym,
)


def cv_track(t_len: int, seed: int, r_std: float = 2.0, q_vel: float = 0.05):
    """Noisy constant-velocity track; returns (truth positions, observations)."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 50.0, 2)
    vel = rng.uniform(-2.0, 2.0, 2)
    truth, zs = [], []
    for _ in range(t_len):
        truth.append(pos.copy())
        zs.append(pos + r_std * rng.standard_normal(2))
        vel = vel + q_vel * rng.standard_normal(2)
        pos = pos + vel
    return np.array(truth), np.array(zs)


def model_matrices(dtype=float):
    """Hand-built unit-step constant-velocity transition F and position
    read-out H, for the reference passes below."""
    f = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=dtype)
    h = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=dtype)
    return f, h


def test_model_matrices():
    f, h = model_matrices()
    assert _F.shape == (4, 4) and np.array_equal(_F, f)
    assert _H.shape == (2, 4) and np.array_equal(_H, h)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(_F @ x, [4.0, 6.0, 3.0, 4.0])
    assert np.array_equal(_H @ x, [1.0, 2.0])


def test_state_validation():
    with pytest.raises(ValueError):
        KalmanState(x=np.ones(3), P=np.eye(4))
    with pytest.raises(ValueError):
        KalmanState(x=np.array([1.0, 2.0, np.nan, 0.0]), P=np.eye(4))
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        KalmanState(x=np.zeros(4), P=asym)
    with pytest.raises(ValueError):
        KalmanState(x=np.zeros(4), P=-np.eye(4))
    state = KalmanState(x=np.array([1.0, 2.0, 3.0, 4.0]), P=np.eye(4))
    assert np.array_equal(state.position, [1.0, 2.0])
    assert np.array_equal(state.x[2:], [3.0, 4.0])


def test_noise_params_validation_and_default():
    with pytest.raises(ValueError):
        NoiseParams(Q=np.eye(3), R=np.eye(2))
    with pytest.raises(ValueError):
        NoiseParams(Q=np.eye(4), R=-np.eye(2))
    default = NoiseParams.default()
    assert default.Q.shape == (4, 4)
    assert default.R.shape == (2, 2)


def test_public_constructors_accept_covariances_near_the_float_limit():
    huge = 1e308 * np.eye(4)
    state = KalmanState(x=np.zeros(4), P=huge)
    assert np.array_equal(state.P, huge)
    noise = NoiseParams(Q=huge, R=1e308 * np.eye(2))
    assert np.array_equal(noise.Q, huge)
    assert np.array_equal(noise.R, 1e308 * np.eye(2))


def test_public_constructors_refuse_huge_asymmetric_matrices():
    asym = 1e308 * np.eye(4)
    asym[0, 1], asym[1, 0] = 1e308, -1e308
    with pytest.raises(ValueError, match="symmetric"):
        KalmanState(x=np.zeros(4), P=asym)
    with pytest.raises(ValueError, match="symmetric"):
        NoiseParams(Q=asym, R=np.eye(2))


def test_predict_moves_at_constant_velocity_and_inflates_covariance():
    state = KalmanState(x=np.array([0.0, 0.0, 1.0, 2.0]), P=np.eye(4))
    noise = NoiseParams(Q=0.1 * np.eye(4), R=np.eye(2))
    ahead = kalman_predict(state, noise)
    assert np.allclose(ahead.position, [1.0, 2.0])
    assert np.allclose(ahead.x[2:], [1.0, 2.0])
    assert np.trace(ahead.P) > np.trace(state.P)


def test_update_with_tiny_measurement_noise_pins_to_observation():
    state = KalmanState(x=np.array([0.0, 0.0, 0.0, 0.0]), P=np.eye(4))
    noise = NoiseParams(Q=np.eye(4), R=1e-12 * np.eye(2))
    z = np.array([5.0, -3.0])
    updated = kalman_update(state, z, noise)
    assert np.allclose(updated.position, z, atol=1e-6)


def test_update_shrinks_uncertainty_and_stays_psd():
    state = KalmanState(x=np.zeros(4), P=10.0 * np.eye(4))
    noise = NoiseParams(Q=np.eye(4), R=0.5 * np.eye(2))
    updated = kalman_update(state, np.array([1.0, 1.0]), noise)
    assert np.trace(updated.P) < np.trace(state.P)
    eigs = np.linalg.eigvalsh(updated.P)
    assert eigs[0] >= -1e-12
    assert np.max(np.abs(updated.P - updated.P.T)) < 1e-12


def test_update_input_validation():
    state = KalmanState(x=np.zeros(4), P=np.eye(4))
    noise = NoiseParams.default()
    with pytest.raises(ValueError):
        kalman_update(state, np.ones(3), noise)
    with pytest.raises(ValueError):
        kalman_update(state, np.array([1.0, np.inf]), noise)


@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_first_or_last_entry_is_refused(value, where):
    state = KalmanState(x=np.zeros(4), P=np.eye(4))
    z = np.ones(2)
    z[where] = value
    with pytest.raises(ValueError, match="^observation must be finite$"):
        kalman_update(state, z, NoiseParams.default())
    x = np.zeros(4)
    x[where] = value
    with pytest.raises(ValueError, match="^state mean must be finite$"):
        KalmanState(x=x, P=np.eye(4))
    p = np.eye(4)
    p[where, where] = value
    with pytest.raises(ValueError, match="^state covariance entries must be finite$"):
        KalmanState(x=np.zeros(4), P=p)


def test_entries_near_the_float_limit_are_accepted_without_a_warning():
    big = np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308])
    state = KalmanState(x=big, P=np.eye(4))
    updated = kalman_update(state, big[:2], NoiseParams.default())
    assert np.array_equal(updated.x[:2], big[:2])


def test_filter_states_keep_the_finite_and_psd_checks():
    with pytest.raises(ValueError, match="finite"):
        KalmanState._trusted(np.array([0.0, np.nan, 0.0, 0.0]), np.eye(4))
    with pytest.raises(ValueError, match="positive semidefinite"):
        KalmanState._trusted(np.zeros(4), -np.eye(4))
    # 1e308 * I is a valid covariance; here the filter's own constructor
    # builds it, and 8e307 with position-velocity correlation goes
    # through the public checks.  Either way predict's f P f^T overflows.
    corr = np.eye(4) + 0.5 * (np.eye(4, k=2) + np.eye(4, k=-2))
    states = [
        KalmanState._trusted(np.zeros(4), 1e308 * np.eye(4)),
        KalmanState(x=np.zeros(4), P=8e307 * corr),
    ]
    for state in states:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                kalman_predict(state, NoiseParams.default())


def test_filter_states_are_read_only():
    state = KalmanState(x=np.array([1.0, 2.0, 0.5, -0.5]), P=np.eye(4))
    noise = NoiseParams.default()
    ahead = kalman_predict(state, noise)
    updated = kalman_update(ahead, np.array([1.4, 1.6]), noise)
    for built in (ahead, updated):
        for array in (built.x, built.P):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 9.0


@pytest.mark.parametrize(
    "build, field, given",
    [
        pytest.param(DataBlock, "values", np.ones((2, 3)), id="DataBlock-values"),
        pytest.param(
            lambda a: TreeView(n=4, dim=3, nodes=(), pending=a, leaves_seen=0),
            "pending",
            np.ones((2, 3)),
            id="TreeView-pending",
        ),
        pytest.param(
            lambda a: LinearModel(w=a, b=0.0, threshold=0.0), "w", np.ones(3), id="LinearModel-w"
        ),
        pytest.param(lambda a: NoiseParams(Q=a, R=np.eye(2)), "Q", np.eye(4), id="NoiseParams-Q"),
        pytest.param(lambda a: NoiseParams(Q=np.eye(4), R=a), "R", np.eye(2), id="NoiseParams-R"),
        pytest.param(lambda a: KalmanState(x=a, P=np.eye(4)), "x", np.zeros(4), id="KalmanState-x"),
        pytest.param(lambda a: KalmanState(x=np.zeros(4), P=a), "P", np.eye(4), id="KalmanState-P"),
    ],
)
def test_public_constructors_copy_the_callers_arrays(build, field, given):
    # The caller's array stays theirs: still writeable, and writing to
    # it leaves what the constructor stored as it was.
    built = build(given)
    stored = getattr(built, field).copy()
    assert given.flags.writeable
    given.flat[0] += 1.0
    assert np.array_equal(getattr(built, field), stored)


def test_filter_states_match_the_validating_constructor_bit_for_bit():
    # The filter's steps as written with the public constructor, which
    # re-validates and copies every state.
    f, h = model_matrices()

    def checked_predict(state, noise):
        return KalmanState(x=f @ state.x, P=_sym(f @ state.P @ f.T + noise.Q))

    def checked_update(state, z, noise):
        s = h @ state.P @ h.T + noise.R
        gain = np.linalg.solve(s.T, (h @ state.P.T)).T
        ikh = np.eye(4) - gain @ h
        return KalmanState(
            x=state.x + gain @ (z - h @ state.x),
            P=_sym(ikh @ state.P @ ikh.T + gain @ noise.R @ gain.T),
        )

    _, zs = cv_track(21, seed=12)
    noise, _ = em_fit(zs, iterations=5)
    fast = slow = KalmanState(x=np.concatenate([zs[0], zs[1] - zs[0]]), P=np.eye(4))
    for z in zs[1:]:
        fast, slow = kalman_predict(fast, noise), checked_predict(slow, noise)
        assert np.array_equal(fast.x, slow.x) and np.array_equal(fast.P, slow.P)
        fast, slow = kalman_update(fast, z, noise), checked_update(slow, z, noise)
        assert np.array_equal(fast.x, slow.x) and np.array_equal(fast.P, slow.P)


def test_update_slices_equal_the_read_out_matrix_form_bit_for_bit():
    # H is a 0/1 selection, so H x, H P H^T and H P^T are slices of x and
    # P exactly.  Coasting steps (predict only) let P grow between updates.
    def matrix_update(state, z, noise):
        s = _H @ state.P @ _H.T + noise.R
        gain = np.linalg.solve(s.T, (_H @ state.P.T)).T
        ikh = np.eye(4) - gain @ _H
        return KalmanState._trusted(
            state.x + gain @ (z - _H @ state.x),
            _sym(ikh @ state.P @ ikh.T + gain @ noise.R @ gain.T),
        )

    _, zs = cv_track(300, seed=31)
    noise, _ = em_fit(zs[:40], iterations=5)
    coast = np.random.default_rng(31).random(300) < 0.25
    assert 50 < coast.sum() < 100
    fast = slow = KalmanState(x=np.concatenate([zs[0], zs[1] - zs[0]]), P=np.eye(4))
    for z, skip in zip(zs[1:], coast[1:]):
        fast, slow = kalman_predict(fast, noise), kalman_predict(slow, noise)
        if skip:
            continue
        fast, slow = kalman_update(fast, z, noise), matrix_update(slow, z, noise)
        assert fast.x.tobytes() == slow.x.tobytes() and fast.P.tobytes() == slow.P.tobytes()


def test_em_fit_input_validation():
    with pytest.raises(ValueError):
        em_fit(np.ones((3, 2)))
    with pytest.raises(ValueError):
        em_fit(np.ones((10, 3)))
    with pytest.raises(ValueError):
        em_fit(np.ones((10, 2)), iterations=0)
    bad = np.ones((10, 2))
    bad[5, 0] = np.nan
    with pytest.raises(ValueError):
        em_fit(bad)


def test_em_likelihood_never_decreases():
    _, zs = cv_track(60, seed=3, r_std=1.0, q_vel=0.2)
    _, history = em_fit(zs, iterations=25)
    assert len(history) == 25
    for earlier, later in zip(history, history[1:]):
        assert later >= earlier - 1e-7 * (1.0 + abs(earlier))


def test_em_recovers_measurement_noise_scale():
    _, zs = cv_track(500, seed=0, r_std=2.0, q_vel=0.05)
    fitted, _ = em_fit(zs, iterations=30)
    for v in np.diag(fitted.R):
        assert 4.0 * 0.75 <= v <= 4.0 * 1.25
    # Process noise should come out far smaller than measurement noise here.
    assert np.max(np.diag(fitted.Q)) < 1.0


def test_em_fit_deterministic():
    _, zs = cv_track(50, seed=9)
    a, _ = em_fit(zs, iterations=10)
    b, _ = em_fit(zs, iterations=10)
    assert np.array_equal(a.Q, b.Q)
    assert np.array_equal(a.R, b.R)


def test_filter_beats_raw_measurements():
    truth, zs = cv_track(120, seed=101, r_std=2.0, q_vel=0.05)
    noise, _ = em_fit(zs[:40], iterations=15)
    state = KalmanState(x=np.concatenate([zs[0], zs[1] - zs[0]]), P=np.eye(4))
    estimates = [state.position.copy()]
    for z in zs[1:]:
        state = kalman_predict(state, noise)
        state = kalman_update(state, z, noise)
        estimates.append(state.position.copy())
    estimates = np.array(estimates)
    rmse_filtered = np.sqrt(np.mean(np.sum((estimates - truth) ** 2, axis=1)))
    rmse_measured = np.sqrt(np.mean(np.sum((zs - truth) ** 2, axis=1)))
    assert rmse_filtered < rmse_measured


def test_em_handles_identical_centers():
    # Degenerate input: every observation the same point. The covariance
    # floor must keep the innovation invertible instead of blowing up.
    zs = np.tile(np.array([3.0, 4.0]), (12, 1))
    fitted, _ = em_fit(zs, iterations=5)
    assert np.all(np.isfinite(fitted.Q))
    assert np.all(np.isfinite(fitted.R))
    assert np.all(np.diag(fitted.Q) >= 1e-9)


def general_forward_pass(zs, q, r, mu0, p0):
    """Reference filter: one step per observation, with the general
    inverse and log-determinant of the innovation covariance and H
    applied as a matrix.  Returns predicted and filtered moments and
    the log-likelihood."""
    f, h = model_matrices()
    m, p = mu0, p0
    pred_m, pred_p, filt_m, filt_p, loglik = [], [], [], [], 0.0
    for t in range(zs.shape[0]):
        if t > 0:
            m = f @ m
            p = _sym(f @ p @ f.T + q)
        pred_m.append(m)
        pred_p.append(p)
        innovation = zs[t] - h @ m
        s = _sym(h @ p @ h.T + r)
        s_inv = np.linalg.inv(s)
        logdet = np.linalg.slogdet(s)[1]
        loglik += -0.5 * (2 * np.log(2 * np.pi) + logdet + innovation @ s_inv @ innovation)
        gain = p @ h.T @ s_inv
        m = m + gain @ innovation
        ikh = np.eye(4) - gain @ h
        p = _sym(ikh @ p @ ikh.T + gain @ r @ gain.T)
        filt_m.append(m)
        filt_p.append(p)
    return (*map(np.array, (pred_m, pred_p, filt_m, filt_p)), loglik)


def looped_smooth_pass(pred_m, pred_p, filt_m, filt_p):
    """Reference RTS smoother: one gain solve per step."""
    f, _ = model_matrices()
    t_len = pred_m.shape[0]
    sm, sp = filt_m.copy(), filt_p.copy()
    gains = np.zeros((t_len, 4, 4))
    for t in range(t_len - 2, -1, -1):
        j = np.linalg.solve(pred_p[t + 1].T, f @ filt_p[t].T).T
        gains[t] = j
        sm[t] = filt_m[t] + j @ (sm[t + 1] - pred_m[t + 1])
        sp[t] = _sym(filt_p[t] + j @ (sp[t + 1] - pred_p[t + 1]) @ j.T)
    lag = np.zeros((t_len, 4, 4))
    for t in range(1, t_len):
        lag[t] = sp[t] @ gains[t - 1].T
    return sm, sp, lag


def looped_e_step(zs, q, r, mu0, p0):
    """Reference E-step: the looped filter, then the looped smoother."""
    *filtered, loglik = general_forward_pass(zs, q, r, mu0, p0)
    return (*looped_smooth_pass(*filtered), loglik)


def looped_m_step(zs, sm, sp, lag):
    """Reference M-step: per-t expected second moments, summed in a
    loop, computed in the dtype of the smoothed moments."""
    f, h = model_matrices(sm.dtype)
    t_len = zs.shape[0]
    q_sum = np.zeros((4, 4), dtype=sm.dtype)
    for t in range(t_len - 1):
        ex_next = sp[t + 1] + np.outer(sm[t + 1], sm[t + 1])
        ex_cross = lag[t + 1] + np.outer(sm[t + 1], sm[t])
        ex_cur = sp[t] + np.outer(sm[t], sm[t])
        q_sum += ex_next - ex_cross @ f.T - f @ ex_cross.T + f @ ex_cur @ f.T
    r_sum = np.zeros((2, 2), dtype=sm.dtype)
    for t in range(t_len):
        resid = zs[t] - h @ sm[t]
        r_sum += np.outer(resid, resid) + h @ sp[t] @ h.T
    out = []
    for m in (_sym(q_sum / (t_len - 1)), _sym(r_sum / t_len)):
        np.fill_diagonal(m, np.maximum(np.diag(m), COV_FLOOR))
        out.append(m)
    return out


def em_sweeps(seeds, t_len, sweeps):
    """Inputs (zs, q, r, mu0, p0) of the first `sweeps` EM sweeps on
    each criterion-11-style track."""
    for seed in seeds:
        _, zs = cv_track(t_len, seed)
        mu0, p0, q, r = _initial_guesses(zs)
        for _ in range(sweeps):
            yield zs, q, r, mu0, p0
            q, r, _ = _em_once(zs, q, r, mu0, p0)


@pytest.mark.parametrize("t_len", [4, 5, 16, 20, 64, 256])
def test_e_step_matches_the_looped_filter_and_smoother(t_len):
    # The scans reassociate the filter and smoother recursions, so they
    # agree with the loops to roundoff, not bit for bit.
    for zs, q, r, mu0, p0 in em_sweeps(range(5), t_len, 5):
        sm, sp, lag, loglik = _e_step(zs, q, r, mu0, p0)
        ref_sm, ref_sp, ref_lag, ref_loglik = looped_e_step(zs, q, r, mu0, p0)
        assert np.allclose(sm, ref_sm, rtol=1e-12, atol=1e-9)
        assert np.allclose(sp, ref_sp, rtol=1e-12, atol=1e-12)
        assert np.allclose(lag, ref_lag, rtol=1e-12, atol=1e-12)
        assert abs(loglik - ref_loglik) <= 1e-12 * abs(ref_loglik)


def test_e_step_rejects_a_singular_innovation():
    # With P0 = Q = I the first innovation covariance is (1 + s) I:
    # singular at s = -1, and at s = -3 negative definite with a
    # positive determinant.  Both must raise before any log is taken.
    zs = np.zeros((5, 2))
    for s in (-1.0, -3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError):
                _e_step(zs, np.eye(4), s * np.eye(2), np.zeros(4), np.eye(4))


def test_em_once_matches_the_looped_m_step():
    # The loop cancels position second moments of order |x|^2 ~ 1e4
    # against each other at every t, which costs it about 1e-12 of
    # absolute error in Q; the loop-free sweep forms Q from one-step
    # residuals and does not.  The looped reference therefore runs in
    # extended precision, from the same smoothed moments.
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("needs a long double wider than float64")
    worst_q = worst_r = worst_loop = 0.0
    for zs, q, r, mu0, p0 in em_sweeps(range(20), 80, 10):
        q_new, r_new, _ = _em_once(zs, q, r, mu0, p0)
        sm, sp, lag, _ = _e_step(zs, q, r, mu0, p0)
        wide = [a.astype(np.longdouble) for a in (zs, sm, sp, lag)]
        q_ref, r_ref = looped_m_step(*wide)
        q_loop, _ = looped_m_step(zs, sm, sp, lag)
        worst_q = max(worst_q, float(np.max(np.abs(q_new - q_ref))))
        worst_r = max(worst_r, float(np.max(np.abs(r_new - r_ref))))
        worst_loop = max(worst_loop, float(np.max(np.abs(q_loop - q_ref))))
    assert worst_q <= 1e-12
    assert worst_r <= 1e-12
    assert worst_q <= worst_loop
