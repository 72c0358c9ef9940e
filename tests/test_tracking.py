"""Tests for the synthetic stream generator and the full tracking loop."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from test_kalman import looped_e_step, looped_m_step, matrix_predict, matrix_update

from corestream import (
    CoresetTree,
    DataBlock,
    DetectParams,
    Frame,
    FrameRecord,
    KalmanState,
    LinearModel,
    NoiseParams,
    SyntheticStreamConfig,
    TrackRun,
    TrackerParams,
    TrainParams,
    detect,
    generate_stream,
    kalman_predict,
    kalman_update,
    track_stream,
)
from corestream import io, svm, tracking
from corestream.kalman import _initial_guesses
from corestream.tracking import config_from_dict, draw_sample


def small_config(**overrides) -> SyntheticStreamConfig:
    base = dict(
        dim=8,
        frames=60,
        drift_rate=0.01,
        noise_scale=0.01,
        distractor_count=4,
        distractor_similarity=0.2,
        seed=0,
    )
    base.update(overrides)
    return SyntheticStreamConfig(**base)


def test_config_validation():
    for bad in (
        dict(dim=0),
        dict(frames=0),
        dict(drift_rate=-0.1),
        dict(noise_scale=-0.1),
        dict(distractor_count=-1),
        dict(distractor_similarity=1.0),
        dict(arena=0.0),
        dict(spacing=0.0),
        dict(arena=8.0, spacing=4.0),
        dict(jitter_copies=-1),
        dict(seed=-1),
    ):
        with pytest.raises(ValueError):
            SyntheticStreamConfig(**bad)


def test_config_from_dict_rejects_unknown_keys():
    assert config_from_dict({"dim": 4, "frames": 10}).dim == 4
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"dim": 4, "frames": 10, "wat": 1})


@pytest.mark.parametrize(
    "params, message",
    [
        (dict(threshold=math.nan), "threshold must be finite"),
        (dict(threshold=-math.inf), "threshold must be finite"),
    ],
)
def test_detect_params_refuse_nonfinite_threshold_and_bad_radius(params, message):
    # A NaN threshold passes every candidate.
    with pytest.raises(ValueError, match=message):
        DetectParams(**params)
    assert DetectParams(threshold=-2.5).threshold == -2.5


def test_stream_shape_and_truth_bookkeeping():
    config = small_config()
    frames = generate_stream(config)
    assert len(frames) == config.frames
    for frame in frames:
        m = 1 + config.distractor_count
        assert frame.positions.shape == (m, 2)
        assert frame.features.shape == (m, config.dim)
        assert 0 <= frame.truth_index < m
        assert np.array_equal(frame.positions[frame.truth_index], frame.truth_position)
        assert np.linalg.norm(frame.truth_feature) == pytest.approx(1.0)
        assert np.all(frame.truth_feature >= 0.0)


def test_distractors_keep_their_distance():
    config = small_config(frames=30)
    for frame in generate_stream(config):
        for j in range(frame.positions.shape[0]):
            if j == frame.truth_index:
                continue
            gap = float(np.linalg.norm(frame.positions[j] - frame.truth_position))
            assert gap >= config.spacing


def test_stream_frozen_without_drift_or_noise():
    config = small_config(drift_rate=0.0, noise_scale=0.0)
    frames = generate_stream(config)
    first = frames[0].truth_feature
    for frame in frames[1:]:
        assert np.array_equal(frame.truth_feature, first)
        truth_row = frame.features[frame.truth_index]
        assert np.array_equal(truth_row, first)


def test_stream_deterministic_per_seed():
    config = small_config()
    a = generate_stream(config)
    b = generate_stream(config)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.positions, fb.positions)
        assert np.array_equal(fa.features, fb.features)
        assert fa.truth_index == fb.truth_index
    other = generate_stream(small_config(seed=1))
    assert not np.array_equal(a[0].features, other[0].features)


# The per-candidate generator that generate_stream replaced, kept as the
# oracle of its draw order and arithmetic.
def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def _unit_nonneg(v: np.ndarray) -> np.ndarray:
    return _unit(np.abs(v))


def _reference_stream(config: SyntheticStreamConfig) -> list[Frame]:
    rng = np.random.default_rng(config.seed)
    d = config.dim
    feature = _unit_nonneg(rng.standard_normal(d))
    margin = config.spacing
    low, high = margin, config.arena - margin
    pos = rng.uniform(low, high, size=2)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    vel = config.speed * np.array([math.cos(heading), math.sin(heading)])
    frames: list[Frame] = []
    for t in range(config.frames):
        m = 1 + config.distractor_count
        positions = np.zeros((m, 2))
        features = np.zeros((m, d))
        positions[0] = pos
        features[0] = feature + config.noise_scale * rng.standard_normal(d)
        for j in range(1, m):
            while True:
                p = rng.uniform(0.0, config.arena, size=2)
                if float(np.linalg.norm(p - pos)) >= config.spacing:
                    break
            positions[j] = p
            blend = config.distractor_similarity
            raw = blend * feature + (1.0 - blend) * _unit_nonneg(rng.standard_normal(d))
            features[j] = _unit(raw) + config.noise_scale * rng.standard_normal(d)
        order = rng.permutation(m)
        truth_index = int(np.where(order == 0)[0][0])
        frames.append(
            Frame(
                index=t,
                positions=positions[order],
                features=features[order],
                truth_index=truth_index,
                truth_position=pos.copy(),
                truth_feature=feature.copy(),
            )
        )
        # Advance the target: feature drift on the unit sphere, then
        # noisy constant-velocity motion reflected at the walls.
        if config.drift_rate > 0:
            step = config.drift_rate * _unit(rng.standard_normal(d))
            feature = _unit_nonneg(feature + step)
        vel = vel + config.process_noise * rng.standard_normal(2)
        pos = pos + vel
        for axis in range(2):
            if pos[axis] < low:
                pos[axis] = 2 * low - pos[axis]
                vel[axis] = -vel[axis]
            elif pos[axis] > high:
                pos[axis] = 2 * high - pos[axis]
                vel[axis] = -vel[axis]
            pos[axis] = min(max(pos[axis], low), high)
    return frames


def test_norm_and_unit_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for d in range(1, 41):
        v = rng.standard_normal(d)
        assert tracking._norm(v) == float(np.linalg.norm(v))
    # Zero rows, signed zeros included, stay exactly as they are.
    rows = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [3.0, 0.0, 4.0], [1e-3, 2.0, -7.5]])
    got = tracking._unit(rows)
    assert got.shape == rows.shape
    for row, want in zip(got, rows):
        assert row.tobytes() == _unit(want).tobytes()
        assert tracking._unit(want).tobytes() == _unit(want).tobytes()
    assert tracking._unit(np.zeros((0, 3))).shape == (0, 3)


def _oracle_configs():
    for name in ("drift_stream", "easy_stream"):
        for seed in range(5):
            config = replace(io.read_stream_config(name), seed=seed)
            yield pytest.param(config, id=f"{name}-seed{seed}")
    edges = dict(
        no_distractors=dict(distractor_count=0),
        one_distractor=dict(distractor_count=1),
        dim_1=dict(dim=1),
        frozen=dict(drift_rate=0.0, noise_scale=0.0),
        unblended=dict(distractor_similarity=0.0),
    )
    for label, overrides in edges.items():
        yield pytest.param(small_config(seed=3, **overrides), id=label)


@pytest.mark.parametrize("config", list(_oracle_configs()))
def test_stream_matches_the_per_candidate_reference_bit_for_bit(config):
    # Compared within one process: a stored digest would also pin this
    # machine's BLAS dot kernel.
    got, want = generate_stream(config), _reference_stream(config)
    assert len(got) == len(want) == config.frames
    for a, b in zip(got, want):
        assert (a.index, a.truth_index) == (b.index, b.truth_index)
        for name in ("positions", "features", "truth_position", "truth_feature"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.shape, x.dtype) == (y.shape, y.dtype), (a.index, name)
            assert x.tobytes() == y.tobytes(), (a.index, name)


def test_sustained_drift_moves_the_appearance():
    config = SyntheticStreamConfig(dim=16, frames=401, drift_rate=0.05, seed=0)
    frames = generate_stream(config)
    cos = float(frames[0].truth_feature @ frames[400].truth_feature)
    assert cos < 0.9


def test_detect_returns_top_candidate_or_none():
    model = LinearModel(w=np.array([1.0, 0.0]), b=0.0, threshold=0.0)
    frame = generate_stream(small_config(dim=2, frames=1))[0]
    scores = frame.features @ model.w
    found = detect(model, frame, threshold=float(scores.min()) - 1.0)
    assert found is not None
    index, score = found
    assert index == int(np.argmax(scores))
    assert score == pytest.approx(float(scores.max()))
    assert detect(model, frame, threshold=float(scores.max()) + 1.0) is None
    # Tied top scores go to the lowest index, and a top score equal to
    # the threshold is kept.
    features = np.array([[0.0, 1.0], [2.0, 0.0], [2.0, 5.0], [1.0, 0.0], [-1.0, 0.0]])
    assert detect(model, replace(frame, features=features), threshold=2.0) == (1, 2.0)


def test_detect_choice_invariant_to_positive_feature_scaling():
    model = LinearModel(w=np.array([0.3, -0.2, 0.5]), b=0.0, threshold=0.0)
    rng = np.random.default_rng(8)
    from corestream.tracking import Frame

    features = rng.standard_normal((5, 3))
    positions = rng.uniform(0, 100, (5, 2))
    base = Frame(
        index=0,
        positions=positions,
        features=features,
        truth_index=0,
        truth_position=positions[0],
        truth_feature=features[0],
    )
    scaled = Frame(
        index=0,
        positions=positions,
        features=7.5 * features,
        truth_index=0,
        truth_position=positions[0],
        truth_feature=features[0],
    )
    low = -1e9
    a = detect(model, base, threshold=low)
    b = detect(model, scaled, threshold=low)
    assert a[0] == b[0]


def test_tracker_params_validation():
    with pytest.raises(ValueError):
        TrackerParams(n=1)
    with pytest.raises(ValueError):
        TrackerParams(sampler="nope")
    with pytest.raises(ValueError):
        TrackerParams(em_every=0)


def test_loop_perfect_on_stationary_target():
    config = small_config(drift_rate=0.0, noise_scale=0.0, distractor_similarity=0.0)
    run = track_stream(generate_stream(config), config, tracker=TrackerParams(n=8))
    assert run.success_rate == 1.0
    assert run.bootstrap_frames == 8
    assert len(run.records) == config.frames


def test_loop_bootstrap_shortens_with_jitter_copies():
    config = small_config(jitter_copies=1)
    run = track_stream(generate_stream(config), config, tracker=TrackerParams(n=8))
    # Each bootstrap frame pushes the truth row plus one jittered copy,
    # so the first leaf completes after n / 2 frames.
    assert run.bootstrap_frames == 4


def test_loop_never_scores_with_a_future_model():
    config = small_config(frames=80)
    run = track_stream(generate_stream(config), config, tracker=TrackerParams(n=8))
    for record in run.records:
        if record.index < run.bootstrap_frames:
            assert record.model_points == -1
        else:
            assert 0 < record.model_points <= record.index


def test_loop_deterministic_end_to_end():
    config = small_config(frames=50, drift_rate=0.02)
    frames = generate_stream(config)
    a = track_stream(frames, config, tracker=TrackerParams(n=8))
    b = track_stream(frames, config, tracker=TrackerParams(n=8))
    assert a.success_rate == b.success_rate
    for ra, rb in zip(a.records, b.records):
        assert ra.index == rb.index
        assert ra.chosen == rb.chosen
        assert ra.estimate == rb.estimate
        assert ra.correct == rb.correct
        assert (ra.score == rb.score) or (math.isnan(ra.score) and math.isnan(rb.score))


def test_a_non_finite_bootstrap_center_is_refused_where_it_enters():
    # With n = 2 and EM held off, the last bootstrap center would go
    # straight into the first filter state; it is refused before that,
    # where it enters the centers.
    config = small_config(frames=10)
    frames = list(generate_stream(config))
    frames[1] = replace(frames[1], truth_position=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="^truth position must be finite$"):
        track_stream(frames, config, tracker=TrackerParams(n=2, em_every=1000))


def test_records_of_identical_runs_compare_equal():
    # Bootstrap and missed frames share one NaN score object, and tuple
    # comparison checks identity before ==, so records of two runs of the
    # same stream compare equal, NaN scores included.
    config = small_config(frames=30)
    frames = generate_stream(config)
    for threshold in (None, 1e9):  # the second misses every frame after the bootstrap
        params = TrackerParams(n=8), TrainParams(), DetectParams(threshold=threshold)
        a, b = (track_stream(frames, config, *params) for _ in range(2))
        assert math.isnan(a.records[-1].score) == (threshold == 1e9)
        assert a.records == b.records


@pytest.mark.parametrize("bad", [0, 1], ids=["all-3d", "2d-then-3d"])
def test_a_misshaped_bootstrap_center_is_refused_where_it_enters(bad):
    # A bootstrap frame's truth position becomes a filter center; one of
    # the wrong shape is refused there, whether every center has it or
    # only a later one does.
    config = small_config(frames=10)
    frames = list(generate_stream(config))
    for i in range(bad, 2):
        frames[i] = replace(frames[i], truth_position=np.append(frames[i].truth_position, 0.0))
    with pytest.raises(ValueError, match=r"^truth position must be shaped \(2,\), got \(3,\)$"):
        track_stream(frames, config, tracker=TrackerParams(n=2))


def test_loop_coasts_when_nothing_clears_the_threshold():
    config = small_config(frames=20)
    frames = generate_stream(config)
    run = track_stream(
        frames,
        config,
        tracker=TrackerParams(n=8),
        detect_params=DetectParams(threshold=1e9),
    )
    after = [r for r in run.records if r.index >= run.bootstrap_frames]
    assert after
    for record in after:
        assert record.chosen == -1
        assert math.isnan(record.score)
        assert not record.correct
        assert all(math.isfinite(v) for v in record.estimate)
    assert run.success_rate == 0.0


def test_all_sampler_modes_run():
    config = small_config(frames=40)
    frames = generate_stream(config)
    for mode in ("hierarchical", "root", "random", "subsample"):
        run = track_stream(
            frames,
            config,
            tracker=TrackerParams(n=8, sampler=mode),
            train_params=TrainParams(iterations=80),
        )
        assert len(run.records) == 40


@pytest.mark.parametrize("mode", ["hierarchical", "random", "subsample"])
def test_loop_keeps_no_views_of_the_callers_frames(mode):
    # The caller may reuse a frame's buffers once the loop asks for the
    # next frame, so zeroing them then must change no later decision.
    config = small_config(frames=60)
    frames = generate_stream(config)

    def scribbled():
        for frame in frames:
            own = replace(frame, features=frame.features.copy(), positions=frame.positions.copy())
            yield own
            own.features[:] = 0.0
            own.positions[:] = 0.0

    def outcome(stream):
        run = track_stream(stream, config, tracker=TrackerParams(n=8, sampler=mode))
        return [
            (r.index, r.chosen, repr(r.score), r.estimate, r.correct, r.model_points)
            for r in run.records
        ]

    want = outcome(frames)
    assert sum(chosen >= 0 for _, chosen, *_ in want[8:]) > 10
    assert outcome(scribbled()) == want


def test_success_rate_counts_post_bootstrap_correctness():
    def record(i, correct):
        return FrameRecord(
            index=i, chosen=0, score=1.0, estimate=(0.0, 0.0), correct=correct, model_points=0
        )

    records = tuple(record(i, i < 7) for i in range(10))
    assert TrackRun(records=records, bootstrap_frames=0).success_rate == pytest.approx(0.7)
    assert TrackRun(records=records, bootstrap_frames=10).success_rate == 0.0
    with pytest.raises(ValueError):
        TrackRun(records=(), bootstrap_frames=0)
    with pytest.raises(ValueError):
        track_stream([], small_config())


@pytest.mark.parametrize("mode", ["subsample", "random"])
def test_flat_baseline_sample_copies_only_the_rows_it_keeps(mode, monkeypatch):
    n, dim, seed = 8, 5, 3
    rng = np.random.default_rng(0)
    history = [rng.normal(size=dim) for _ in range(10 * n + 3)]
    tree = CoresetTree(n, dim)
    tree.push_rows(np.vstack(history))
    view = tree.snapshot()

    built = []
    original = DataBlock.__post_init__

    def spy(self):
        original(self)
        built.append(self.rows)

    monkeypatch.setattr(DataBlock, "__post_init__", spy)
    from_list = draw_sample(mode, view, history, seed)
    from_matrix = draw_sample(mode, view, np.vstack(history), seed)
    assert built and max(built) <= n
    kept = np.vstack([history[tag.row] for tag in from_list.tags])
    assert np.array_equal(from_list.rows.values, kept)
    assert np.array_equal(from_list.rows.values, from_matrix.rows.values)
    assert from_list.tags == from_matrix.tags
    assert from_list.rows.rows == n
    assert (from_list.n, from_list.points_seen) == (from_matrix.n, from_matrix.points_seen)
    assert (from_list.n, from_list.points_seen) == (n, len(history))


def test_draw_sample_refuses_a_flat_mode_without_its_inputs():
    tree = CoresetTree(4, 3)
    tree.push_rows(np.ones((5, 3)))
    view = tree.snapshot()
    with pytest.raises(ValueError, match="subsample sampler needs a history"):
        draw_sample("subsample", view, None, None)
    with pytest.raises(ValueError, match="random sampler needs a history and a seed"):
        draw_sample("random", view, np.ones((5, 3)), None)
    with pytest.raises(ValueError, match="unknown sampler"):
        draw_sample("nearest", view, None, None)
    assert draw_sample("root", view, None, None).points_seen == 5


def test_drift_tracks_match_a_looped_em(monkeypatch):
    # The EM E-step runs the closed-form float steps where the reference
    # takes general inverses, so fitted noise moves by roundoff only: on
    # the bundled drift streams every track decision must match an EM
    # built from the looped reference steps, and estimates must agree to
    # 1e-8.
    streams = []
    for seed in (0, 7):
        config = replace(io.read_stream_config("drift_stream"), seed=seed)
        streams.append((config, generate_stream(config)))

    def run_all():
        return [
            track_stream(
                frames,
                config,
                tracker=TrackerParams(n=16, sampler=sampler, em_every=2),
                train_params=TrainParams(iterations=120),
                detect_params=DetectParams(threshold=0.0),
            )
            for config, frames in streams
            for sampler in ("hierarchical", "root", "random", "subsample")
        ]

    fits = []

    def looped_em_fit(centers, iterations):
        zs = np.asarray(centers, dtype=float)
        mu0, p0, q, r = _initial_guesses(zs)
        for _ in range(iterations):
            q, r = looped_m_step(zs, *looped_e_step(zs, q, r, mu0, p0)[:3])
        fits.append(zs.shape[0])
        return NoiseParams(Q=q, R=r), []

    runs = run_all()
    monkeypatch.setattr(tracking, "em_fit", looped_em_fit)
    looped = run_all()
    assert fits
    for run, ref in zip(runs, looped):
        assert len(run.records) == len(ref.records)
        for got, want in zip(run.records, ref.records):
            assert (got.chosen, got.correct, got.model_points) == (
                want.chosen,
                want.correct,
                want.model_points,
            )
            assert repr(got.score) == repr(want.score)
            assert np.allclose(got.estimate, want.estimate, rtol=0.0, atol=1e-8)


def drift_runs(seeds, thresholds):
    """A function running the loop on the bundled drift stream for every
    seed and threshold, at the track-drift settings; it looks up
    tracking.track_stream at each call."""
    streams = []
    for seed in seeds:
        config = replace(io.read_stream_config("drift_stream"), seed=seed)
        streams.append((config, generate_stream(config)))

    def run_all():
        return [
            tracking.track_stream(
                frames,
                config,
                tracker=TrackerParams(n=16, em_every=2),
                train_params=TrainParams(iterations=120),
                detect_params=DetectParams(threshold=threshold),
            )
            for config, frames in streams
            for threshold in thresholds
        ]

    return run_all


def patch_the_filter_steps(monkeypatch, predict, update):
    """Replace the loop's float steps by predict(state, noise) and
    update(state, z, noise) on the KalmanState built from the floats, with
    the noise the run last fitted (the default before its first fit); each
    checks that the loop passed that noise's floats.  Returns the count of
    patched calls per step."""
    calls, fit, track, noise = Counter(), tracking.em_fit, tracking.track_stream, [None]

    def track_stream(*args, **kwargs):
        noise[0] = NoiseParams.default()
        return track(*args, **kwargs)

    def em_fit(*args):
        noise[0], history = fit(*args)
        return noise[0], history

    def floats_of(state):
        return state.x.tolist(), state.P.ravel().tolist()

    def state_of(x, p):
        return KalmanState(x=np.array(x), P=np.reshape(p, (4, 4)))

    def run_predict(x, p, q):
        calls["predict"] += 1
        assert q == noise[0].Q.ravel().tolist()
        return floats_of(predict(state_of(x, p), noise[0]))

    def run_update(x, p, z, r):
        calls["update"] += 1
        assert r == noise[0].R.ravel().tolist()
        return floats_of(update(state_of(x, p), np.array(z), noise[0]))

    monkeypatch.setattr(tracking, "track_stream", track_stream)
    monkeypatch.setattr(tracking, "em_fit", em_fit)
    monkeypatch.setattr(tracking, "_predict", run_predict)
    monkeypatch.setattr(tracking, "_update", run_update)
    return calls


def test_drift_tracks_match_the_matrix_form_filter(monkeypatch):
    # The per-frame filter steps run on Python floats with a closed-form
    # gain; with the matrix-form steps (LAPACK solve, public constructor)
    # in their place, every track decision on the bundled drift streams
    # must match and estimates agree to roundoff.
    run_all = drift_runs(range(6), (0.0, None))
    runs = run_all()
    calls = patch_the_filter_steps(monkeypatch, matrix_predict, matrix_update)
    reference = run_all()
    assert calls["predict"] > 0 and calls["update"] > 0, calls
    for run, ref in zip(runs, reference):
        assert len(run.records) == len(ref.records)
        for got, want in zip(run.records, ref.records):
            assert (got.chosen, got.correct, got.model_points) == (
                want.chosen,
                want.correct,
                want.model_points,
            )
            assert repr(got.score) == repr(want.score)
            assert np.allclose(got.estimate, want.estimate, rtol=0.0, atol=1e-9)


def test_the_loop_on_floats_equals_the_loop_through_the_public_steps(monkeypatch):
    # The loop carries the filter state as floats between frames; going
    # through a KalmanState and the public steps at every frame instead
    # must give the same records.  repr compares them, since a NaN score
    # is not == itself; float repr round-trips, so this is bit for bit.
    run_all = drift_runs(range(3), (0.0,))
    floats = run_all()
    calls = patch_the_filter_steps(monkeypatch, kalman_predict, kalman_update)
    public = run_all()
    assert calls["predict"] > 0 and calls["update"] > 0, calls
    for got, want in zip(floats, public):
        assert [repr(r) for r in got.records] == [repr(r) for r in want.records]


def test_loop_decisions_equal_those_of_the_row_mean_model(monkeypatch):
    # On the bundled streams the solver's violators (rows scoring below 1)
    # are all rows or none, so its w points along the mean of the rows it
    # trains on.  A model that is that mean, under the same nu-quantile
    # threshold, must then make every decision the solver's model makes;
    # only the score column's scale may differ.
    streams = []
    for name in ("drift_stream", "easy_stream"):
        for seed in range(3):
            config = replace(io.read_stream_config(name), seed=seed)
            streams.append((config, generate_stream(config)))
    trained = []

    def mean_model(samples, params):
        rows = samples.rows.values
        w = rows.mean(0)
        trained.append(rows.shape[0])
        return LinearModel(w=w, b=0.0, threshold=svm._score_quantile(rows @ w, params.nu))

    def run_all():
        return [
            track_stream(
                frames,
                config,
                tracker=TrackerParams(n=16, sampler=sampler, em_every=2),
                train_params=TrainParams(iterations=120),
                detect_params=DetectParams(threshold=threshold),
            )
            for config, frames in streams
            for sampler in ("hierarchical", "root", "random", "subsample")
            for threshold in (0.0, None)
        ]

    solver = run_all()
    monkeypatch.setattr(tracking, "train_one_class", mean_model)
    mean = run_all()
    assert len(solver) == len(mean) == 48 and trained
    for got, want in zip(mean, solver):
        assert [(r.chosen, r.correct, r.estimate, r.model_points) for r in got.records] == [
            (r.chosen, r.correct, r.estimate, r.model_points) for r in want.records
        ]
