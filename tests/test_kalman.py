"""Tests for the constant-velocity filter and its EM noise fitter."""

import ast
import inspect
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
from corestream import kalman
from corestream.blocks import _wrap
from corestream.kalman import (
    _SYM_TOL,
    COV_FLOOR,
    _e_step,
    _em_once,
    _initial_guesses,
    _F,
    _H,
    _ldl_accepts,
    _predict,
    _sym,
    _update,
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
        KalmanState._trusted([0.0, np.nan, 0.0, 0.0], np.eye(4).ravel().tolist())
    with pytest.raises(ValueError, match="positive semidefinite"):
        KalmanState._trusted(np.zeros(4).tolist(), (-np.eye(4)).ravel().tolist())
    # 1e308 * I and 8e307 with position-velocity correlation are valid
    # covariances, and the public checks accept both.  Either way
    # predict's f P f^T overflows.
    corr = np.eye(4) + 0.5 * (np.eye(4, k=2) + np.eye(4, k=-2))
    states = [
        KalmanState(x=np.zeros(4), P=1e308 * np.eye(4)),
        KalmanState(x=np.zeros(4), P=8e307 * corr),
    ]
    for state in states:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                kalman_predict(state, NoiseParams.default())


@pytest.mark.parametrize("scale", [1.0, 1e5])  # the LDL^T accept, then eigvalsh
def test_filter_states_store_the_symmetrized_covariance_bit_for_bit(scale):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((4, 4))
    m = scale * (a @ a.T + np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
    assert not np.array_equal(m, m.T)
    state = KalmanState._trusted(np.zeros(4).tolist(), m.ravel().tolist())
    assert state.P.tobytes() == _sym(np.reshape(m, (4, 4))).tobytes()


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


def matrix_predict(state, noise):
    """The predict step as written with F as a matrix and the public
    constructor, which re-validates and copies every state."""
    f, _ = model_matrices()
    return KalmanState(x=f @ state.x, P=_sym(f @ state.P @ f.T + noise.Q))


def matrix_update(state, z, noise):
    """The Joseph-form update with H as a matrix and the gain from a
    LAPACK solve, through the public constructor."""
    _, h = model_matrices()
    s = h @ state.P @ h.T + noise.R
    gain = np.linalg.solve(s.T, (h @ state.P.T)).T
    ikh = np.eye(4) - gain @ h
    return KalmanState(
        x=state.x + gain @ (z - h @ state.x),
        P=_sym(ikh @ state.P @ ikh.T + gain @ noise.R @ gain.T),
    )


def test_filter_states_match_the_validating_constructor_bit_for_bit():
    # Every entry of F x and F P F^T is one or two exact sums, so predict
    # on Python floats equals the matrix form bit for bit, from the same
    # input state at every step of a filtered track.
    _, zs = cv_track(21, seed=12)
    noise, _ = em_fit(zs, iterations=5)
    state = KalmanState(x=np.concatenate([zs[0], zs[1] - zs[0]]), P=np.eye(4))
    for z in zs[1:]:
        fast, slow = kalman_predict(state, noise), matrix_predict(state, noise)
        assert fast.x.tobytes() == slow.x.tobytes() and fast.P.tobytes() == slow.P.tobytes()
        state = kalman_update(fast, z, noise)


def test_update_slices_equal_the_read_out_matrix_form_bit_for_bit():
    # The closed-form 2x2 gain rounds differently from LAPACK's solve, so
    # the update agrees with the matrix form to roundoff, from the same
    # predicted state.  Every filter state is one the public constructor
    # accepts and stores bit for bit.  Coasting steps (predict only) let P
    # grow between updates.
    _, zs = cv_track(300, seed=31)
    noise, _ = em_fit(zs[:40], iterations=5)
    coast = np.random.default_rng(31).random(300) < 0.25
    assert 50 < coast.sum() < 100
    state = KalmanState(x=np.concatenate([zs[0], zs[1] - zs[0]]), P=np.eye(4))
    for z, skip in zip(zs[1:], coast[1:]):
        state = kalman_predict(state, noise)
        if skip:
            continue
        fast, slow = kalman_update(state, z, noise), matrix_update(state, z, noise)
        scale = float(np.max(np.abs(slow.P)))
        assert np.max(np.abs(fast.P - slow.P)) <= 1e-12 * scale
        assert np.max(np.abs(fast.x - slow.x)) <= 1e-12 * max(scale, np.max(np.abs(slow.x)))
        state = fast
        public = KalmanState(x=state.x, P=state.P)
        assert public.x.tobytes() == state.x.tobytes() and public.P.tobytes() == state.P.tobytes()


def test_update_refuses_a_singular_innovation_covariance_as_lapack_does():
    # P[:2, :2] + R = 0: the solve raises LinAlgError, and so must the
    # closed form, with no ZeroDivisionError and no inf or NaN reaching
    # the finite check (pytest turns a RuntimeWarning into an error).
    state = KalmanState(x=np.ones(4), P=np.diag([0.0, 0.0, 1.0, 1.0]))
    noise = NoiseParams(Q=np.eye(4), R=np.zeros((2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        matrix_update(state, np.zeros(2), noise)
    with pytest.raises(np.linalg.LinAlgError):
        kalman_update(state, np.zeros(2), noise)
    # P[:2, :2] + R past the float limit has no finite inverse either.
    huge = KalmanState(x=np.ones(4), P=1e308 * np.eye(4))
    with pytest.raises(np.linalg.LinAlgError):
        kalman_update(huge, np.zeros(2), NoiseParams(Q=np.eye(4), R=1e308 * np.eye(2)))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_update_at_extreme_scales_equals_the_matrix_form(scale):
    # det S over- or underflows past about 1e154 or below 1e-154; an exact
    # power-of-two rescale of S keeps the closed form at roundoff there.
    rng = np.random.default_rng(int(np.log10(scale)) % 97)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((2, 2))
        state = KalmanState(x=rng.standard_normal(4), P=_sym(scale * (a @ a.T)))
        noise = NoiseParams(Q=np.eye(4), R=_sym(scale * (b @ b.T)))
        z = rng.standard_normal(2)
        fast, slow = kalman_update(state, z, noise), matrix_update(state, z, noise)
        assert np.max(np.abs(fast.P - slow.P)) <= 1e-12 * np.max(np.abs(slow.P))
        assert np.allclose(fast.x, slow.x, rtol=1e-9, atol=1e-12)


def psd_probes(seed, count):
    """Seeded symmetric 4x4 matrices with a chosen smallest eigenvalue
    near the PSD tolerance, of scales on both sides of the fast accept's
    2^13 diagonal bound: full rank, rank-deficient and indefinite."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        for scale in (1e-6, 1e-3, 1.0, 1e3, 4e3, 8e3, 1.2e4, 1e6, 1e8):
            basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            for low in (-10.0, -2.0, -1.001, -1.0, -0.999, -0.5, 0.0, 1.0):
                rest = scale * rng.random(3)
                for kind in ("full", "rank-deficient", "indefinite"):
                    if kind == "rank-deficient":
                        rest[0] = 0.0
                    elif kind == "indefinite":
                        rest[0] = -scale * rng.random()
                    eigs = np.concatenate([[low * _SYM_TOL], rest])
                    yield _sym(basis @ np.diag(eigs) @ basis.T)


def test_the_filter_psd_check_gives_the_verdict_of_eigvalsh():
    verdicts = {"refused": 0, "LDL^T": 0, "eigvalsh": 0}
    for p in psd_probes(seed=44, count=20):
        low = np.linalg.eigvalsh(p)[0]
        if low < -_SYM_TOL:
            verdicts["refused"] += 1
            message = f"state covariance must be positive semidefinite, min eig {low:.3e}"
            with pytest.raises(ValueError) as caught:
                KalmanState._trusted(np.zeros(4).tolist(), p.ravel().tolist())
            assert str(caught.value) == message
        else:
            KalmanState._trusted(np.zeros(4).tolist(), p.ravel().tolist())
            verdicts["LDL^T" if _ldl_accepts(p.ravel().tolist()) else "eigvalsh"] += 1
    # Refusals, fast accepts and accepts left to eigvalsh all occur.
    assert min(verdicts.values()) > 500, verdicts


def test_the_per_frame_steps_call_no_lapack():
    # The filter's steps, which the tracking loop calls every frame, stay
    # on Python floats; only LinAlgError, for a singular innovation
    # covariance, is taken from np.linalg.
    tree = ast.parse(inspect.getsource(kalman))
    used = {
        node.name: {
            sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and ast.unparse(sub.value) in ("np.linalg", "numpy.linalg")
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_predict", "_update")
    }
    assert used == {"_predict": set(), "_update": {"LinAlgError"}}


def step_outcome(step):
    """The bytes of the mean and covariance of the state step() returns, or
    the type and message of its refusal."""
    try:
        state = step()
    except (ValueError, np.linalg.LinAlgError) as caught:
        return type(caught), str(caught)
    return state.x.tobytes(), state.P.tobytes()


STEP_CASES = ("LDL^T", "eigvalsh", "NaN", "non-PSD")


@pytest.mark.parametrize("case", STEP_CASES)
def test_the_float_steps_wrapped_give_the_public_steps_bit_for_bit(case):
    # The tracking loop calls _predict and _update on floats; the public
    # functions wrap the same steps.  Both must give the same state, or
    # the same refusal with the same message, on every path of the check.
    rng = np.random.default_rng(STEP_CASES.index(case))
    noise = NoiseParams(Q=0.1 * np.eye(4), R=0.5 * np.eye(2))
    q, r = noise.Q.ravel().tolist(), noise.R.ravel().tolist()

    def wrapped(x, p):
        return KalmanState(x=np.array(x), P=np.reshape(p, (4, 4)))

    for draw in range(10):
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        eigs = rng.uniform(0.1, 10.0, 4) * (1e5 if case == "eigvalsh" else 1.0)
        x, cov = rng.standard_normal(4), _sym(basis @ np.diag(eigs) @ basis.T)
        if case == "non-PSD":
            cov[3, 3] -= 100.0
        elif case == "NaN":  # in the mean or in the covariance, by turns
            (x if draw % 2 else cov[3])[3] = np.nan
        state = _wrap(KalmanState, x=x, P=cov)
        z = rng.standard_normal(2)
        floats = state.x.tolist(), state.P.ravel().tolist()
        pairs = [
            (lambda: kalman_predict(state, noise), lambda: wrapped(*_predict(*floats, q))),
            (
                lambda: kalman_update(state, z, noise),
                lambda: wrapped(*_update(*floats, z.tolist(), r)),
            ),
        ]
        for public, step in pairs:
            got = step_outcome(step)
            assert got == step_outcome(public)
            if case == "NaN":
                assert got == (ValueError, "state mean and covariance must be finite")
            elif case == "non-PSD":
                assert got[0] is ValueError
                assert got[1].startswith("state covariance must be positive semidefinite, min eig")
            else:
                p = np.frombuffer(got[1]).tolist()
                assert _ldl_accepts(p) == (case == "LDL^T")


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
