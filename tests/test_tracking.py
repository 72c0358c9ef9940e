"""Tests for the synthetic stream generator and the full tracking loop."""

import math

import numpy as np
import pytest

from corestream import (
    CoresetTree,
    DataBlock,
    DetectParams,
    FrameRecord,
    LinearModel,
    SyntheticStreamConfig,
    TrackRun,
    TrackerParams,
    TrainParams,
    detect,
    evaluate,
    generate_stream,
    random_sample,
    subsample,
    suppress,
    track_stream,
)
from corestream.tracking import _Trainer, config_from_dict


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
    ):
        with pytest.raises(ValueError):
            SyntheticStreamConfig(**bad)


def test_config_from_dict_rejects_unknown_keys():
    assert config_from_dict({"dim": 4, "frames": 10}).dim == 4
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"dim": 4, "frames": 10, "wat": 1})


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


def test_sustained_drift_moves_the_appearance():
    config = SyntheticStreamConfig(dim=16, frames=401, drift_rate=0.05, seed=0)
    frames = generate_stream(config)
    cos = float(frames[0].truth_feature @ frames[400].truth_feature)
    assert cos < 0.9


def test_suppress_threshold_and_radius():
    positions = np.array([[0.0, 0.0], [0.5, 0.0], [50.0, 0.0]])
    scores = np.array([9.0, 8.0, 5.0])
    # The close runner-up dies, the far mid scorer survives but ranks last.
    assert suppress(positions, scores, threshold=0.0, radius=5.0) == [0, 2]
    assert suppress(positions, scores, threshold=6.0, radius=5.0) == [0]
    assert suppress(positions, scores, threshold=10.0, radius=5.0) == []
    # Ties break toward the lower candidate index, stably.
    even = np.array([[0.0, 0.0], [50.0, 0.0]])
    assert suppress(even, np.array([2.0, 2.0]), threshold=0.0, radius=5.0) == [0, 1]


def looped_suppress(positions, scores, threshold, radius):
    """Reference NMS: one distance per (candidate, keeper) pair."""
    order = np.argsort(-scores, kind="stable")
    kept = []
    for idx in order:
        if scores[idx] < threshold:
            continue
        pos = positions[idx]
        if any(float(np.linalg.norm(pos - positions[k])) < radius for k in kept):
            continue
        kept.append(int(idx))
    return kept


def test_suppress_matches_the_pairwise_loop():
    rng = np.random.default_rng(12)
    for frame in range(200):
        m = int(rng.integers(1, 13))
        if frame % 2:
            positions = rng.uniform(0.0, 30.0, size=(m, 2))
            radius = float(rng.uniform(1.0, 10.0))
        else:
            # Integer grid, radius 5: many pairs sit exactly 5 apart
            # (axis-aligned or 3-4-5), which the strict < must keep.
            positions = rng.integers(0, 12, size=(m, 2)).astype(float)
            radius = 5.0
        # Rounded scores tie often, exercising the index tie-break.
        scores = np.round(rng.normal(size=m), 1)
        threshold = float(rng.normal()) if frame % 3 else -np.inf
        assert suppress(positions, scores, threshold, radius) == looped_suppress(
            positions, scores, threshold, radius
        )
    # Both runners-up sit exactly radius from the winner and stay kept.
    edge = np.array([[0.0, 0.0], [3.0, 4.0], [-5.0, 0.0]])
    assert suppress(edge, np.array([3.0, 2.0, 1.0]), 0.0, 5.0) == [0, 1, 2]


def test_detect_returns_best_survivor_or_none():
    model = LinearModel(w=np.array([1.0, 0.0]), b=0.0, threshold=0.0)
    frame = generate_stream(small_config(dim=2, frames=1))[0]
    scores = frame.features @ model.w
    found = detect(model, frame, threshold=float(scores.min()) - 1.0, radius=0.1)
    assert found is not None
    assert found.index == int(np.argmax(scores))
    assert found.score == pytest.approx(float(scores.max()))
    assert detect(model, frame, threshold=float(scores.max()) + 1.0, radius=0.1) is None


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
    a = detect(model, base, threshold=low, radius=0.1)
    b = detect(model, scaled, threshold=low, radius=0.1)
    assert a.index == b.index


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
        assert run.sampler == mode
        assert len(run.records) == 40


def test_evaluate_counts_post_bootstrap_correctness():
    def record(i, correct):
        return FrameRecord(
            index=i, chosen=0, score=1.0, estimate=(0.0, 0.0), correct=correct, model_points=0
        )

    records = tuple(record(i, i < 7) for i in range(10))
    run = TrackRun(records=records, bootstrap_frames=0, sampler="hierarchical", success_rate=0.0)
    assert evaluate(run) == pytest.approx(0.7)
    empty = TrackRun(records=(), bootstrap_frames=0, sampler="hierarchical", success_rate=0.0)
    with pytest.raises(ValueError):
        evaluate(empty)
    only_bootstrap = TrackRun(
        records=records, bootstrap_frames=10, sampler="hierarchical", success_rate=0.0
    )
    assert evaluate(only_bootstrap) == 0.0


@pytest.mark.parametrize("mode", ["subsample", "random"])
def test_flat_baseline_sample_copies_only_the_rows_it_keeps(mode, monkeypatch):
    n, dim, seed = 8, 5, 3
    rng = np.random.default_rng(0)
    history = [rng.normal(size=dim) for _ in range(10 * n + 3)]
    whole = DataBlock(np.vstack(history))
    if mode == "subsample":
        expected = subsample(whole, n)
    else:
        draw_seed = int(np.random.SeedSequence((seed, 0)).generate_state(1)[0])
        expected = random_sample(whole, n, draw_seed)

    built = []
    original = DataBlock.__post_init__

    def spy(self):
        original(self)
        built.append(self.rows)

    monkeypatch.setattr(DataBlock, "__post_init__", spy)
    trainer = _Trainer(mode, CoresetTree(n, dim), history, TrainParams(), seed)
    sample = trainer.sample()
    assert built and max(built) <= n
    assert np.array_equal(sample.rows.values, expected.rows.values)
    assert sample.tags == expected.tags
    assert (sample.n, sample.points_seen) == (expected.n, expected.points_seen)
