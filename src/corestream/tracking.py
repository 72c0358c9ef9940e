"""Synthetic candidate streams and the detect, smooth, push, retrain loop.

Each synthetic frame offers a handful of candidates: one carries the
true target's feature (drifting over time, observed with noise), the
rest are distractors blended toward the target's current appearance.
The tracking loop scores candidates with the latest published one-class
model, takes the top scorer if it clears the threshold, smooths its
center with a Kalman filter, pushes its feature into a coreset tree,
and retrains from a bounded sample whenever a new leaf completes.  The
first n frames are an oracle bootstrap: the true candidate is taken on
trust to seed the model.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .blocks import DataBlock, _check_fields
from .kalman import NoiseParams, _checked, _predict, _update, em_fit
# Unused here, but perfbench's tracer wraps the loop's Kalman calls under these names.
from .kalman import kalman_predict, kalman_update
from .sampling import (
    History,
    SampleSet,
    hierarchical_sample,
    random_sample,
    root_sample,
    subsample,
)
from .svm import LinearModel, TrainParams, decisions, train_one_class
from .tree import CoresetTree, TreeView

FLAT_MODES = ("random", "subsample")  # the baselines that read raw history
SAMPLER_MODES = ("hierarchical", "root", *FLAT_MODES)
EM_ITERATIONS = 8  # sweeps per EM refit of the noise covariances


def draw_sample(mode: str, view: TreeView, history: History | None, seed: int | None) -> SampleSet:
    """Training sample of one of SAMPLER_MODES at the view's budget n.

    The flat baselines read history (a row per point the view has seen)
    instead of the view; only random reads the seed, and it must be given.
    """
    if mode not in SAMPLER_MODES:
        raise ValueError(f"unknown sampler {mode!r}, expected one of {SAMPLER_MODES}")
    if mode == "hierarchical":
        return hierarchical_sample(view)
    if mode == "root":
        return root_sample(view)
    if history is None or (mode == "random" and seed is None):
        raise ValueError(f"the {mode} sampler needs a history" + " and a seed" * (mode == "random"))
    if mode == "random":
        return random_sample(history, view.n, seed)
    return subsample(history, view.n)


@dataclass(frozen=True)
class SyntheticStreamConfig:
    """Knobs for the synthetic candidate generator.

    drift_rate moves the target's unit feature vector per frame;
    noise_scale is additive observation noise on every feature;
    distractor_similarity in [0, 1) blends distractor features toward
    the target's current appearance.  Motion runs at constant velocity
    with process noise inside a square arena.  spacing is the minimum
    distance between the target and any distractor (and the margin the
    target keeps from the walls); a detection within half of it of the
    true position counts as correct.  jitter_copies adds that
    many perturbed copies of each bootstrap feature to enrich the
    initial model.
    """

    dim: int = 16
    frames: int = 200
    drift_rate: float = 0.02
    noise_scale: float = 0.02
    distractor_count: int = 8
    distractor_similarity: float = 0.5
    arena: float = 100.0
    speed: float = 2.0
    process_noise: float = 0.2
    spacing: float = 5.0
    jitter_copies: int = 0
    jitter_scale: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.drift_rate < 0 or self.noise_scale < 0:
            raise ValueError("drift_rate and noise_scale must be >= 0")
        if not 0.0 <= self.distractor_similarity < 1.0:
            raise ValueError(
                f"distractor_similarity must be in [0, 1), got {self.distractor_similarity}"
            )
        if self.arena <= 0 or self.spacing <= 0:
            raise ValueError("arena and spacing must be > 0")
        if self.spacing * 2 >= self.arena:
            raise ValueError("arena must be larger than twice the spacing")
        for name in ("distractor_count", "jitter_copies", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def config_from_dict(raw: dict) -> SyntheticStreamConfig:
    """Build a config from parsed JSON, rejecting a non-object and unknown keys."""
    if type(raw) is not dict:
        raise TypeError(f"a stream config must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in fields(SyntheticStreamConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return SyntheticStreamConfig(**raw)


@dataclass(frozen=True, eq=False)
class Frame:
    """One frame of candidates plus the ground truth that produced it."""

    index: int
    positions: np.ndarray
    features: np.ndarray
    truth_index: int
    truth_position: np.ndarray
    truth_feature: np.ndarray


@dataclass(frozen=True)
class DetectParams:
    """Knobs of detect.

    threshold None means use the model's trained threshold, and any
    other must be finite.  A frame's detection is its top-scoring
    candidate if that clears the threshold (see detect).
    """

    threshold: float | None = None

    __post_init__ = _check_fields


@dataclass(frozen=True)
class TrackerParams:
    """Loop-side knobs: leaf size, sampler choice and EM cadence."""

    n: int = 20
    sampler: str = "hierarchical"
    em_every: int = 1

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.n < 2:
            raise ValueError(f"leaf size n must be >= 2, got {self.n}")
        if self.sampler not in SAMPLER_MODES:
            raise ValueError(
                f"unknown sampler {self.sampler!r}, expected one of {SAMPLER_MODES}"
            )
        if self.em_every < 1:
            raise ValueError(f"em_every must be >= 1, got {self.em_every}")


@dataclass(frozen=True)
class FrameRecord:
    """Outcome of one frame.

    chosen is the picked candidate index, -1 when nothing cleared the
    threshold (score is then nan and the estimate coasts on the motion
    model).  model_points counts the stream rows behind the model that
    scored this frame, -1 during bootstrap, and never exceeds the frame
    index: the scorer never saw data from its own future.  correct
    holds when the chosen candidate is the true one or lies within half
    the stream's candidate spacing of the true position.
    """

    index: int
    chosen: int
    score: float
    estimate: tuple[float, float]
    correct: bool
    model_points: int


@dataclass(frozen=True, eq=False)
class TrackRun:
    """Full outcome of one tracking run; it holds at least one record."""

    records: tuple[FrameRecord, ...]
    bootstrap_frames: int

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("a track run needs at least one frame record")

    @property
    def success_rate(self) -> float:
        """Fraction of post-bootstrap frames whose chosen candidate was
        correct.  A run with no post-bootstrap frames scores 0.0."""
        scored = self.records[self.bootstrap_frames :]
        if not scored:
            return 0.0
        return float(sum(1 for r in scored if r.correct)) / len(scored)


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a 1-D float vector, bit for bit, at a third of its cost.
    return math.sqrt(v.dot(v))


def _unit(v: np.ndarray) -> np.ndarray:
    # v, or each row of a matrix v, over its norm; a zero row, over 1.0, stays as it is.
    if v.ndim == 1:
        return v / (_norm(v) or 1.0)
    return v / np.array([_norm(row) or 1.0 for row in v])[:, None]


def _unit_nonneg(v: np.ndarray) -> np.ndarray:
    # Appearance-style descriptors are nonnegative; keeping synthetic
    # features in that orthant also keeps the orientation of compressed
    # spectral rows aligned with the raw data, exactly as it is for
    # real descriptor streams.
    return _unit(np.abs(v))


def generate_stream(config: SyntheticStreamConfig) -> list[Frame]:
    """Deterministic synthetic candidate stream for one seed.

    Features are unit vectors in the nonnegative orthant, mirroring
    real appearance descriptors.  Draws, in order: initial feature,
    position, heading; per frame, target noise; per distractor, uniform
    positions until one lies spacing away, then direction and noise
    (dim normals each); the permutation; drift step if any; process noise.
    """
    rng = np.random.default_rng(config.seed)
    d = config.dim
    feature = _unit_nonneg(rng.standard_normal(d))
    margin = config.spacing
    low, high = margin, config.arena - margin
    pos = rng.uniform(low, high, size=2)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    vel = config.speed * np.array([math.cos(heading), math.sin(heading)])
    m = 1 + config.distractor_count
    blend = config.distractor_similarity
    # Generator fills in order: draws[j] is distractor j's direction, then noise, draw.
    draws = np.empty((m - 1, 2, d))
    frames: list[Frame] = []
    for t in range(config.frames):
        positions = np.empty((m, 2))
        features = np.empty((m, d))
        positions[0] = pos
        features[0] = feature + config.noise_scale * rng.standard_normal(d)
        for j in range(1, m):
            while True:
                p = rng.uniform(0.0, config.arena, size=2)
                if _norm(p - pos) >= config.spacing:
                    break
            positions[j] = p
            rng.standard_normal(out=draws[j - 1])
        raw = blend * feature + (1.0 - blend) * _unit_nonneg(draws[:, 0])
        features[1:] = _unit(raw) + config.noise_scale * draws[:, 1]
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


def detect(model: LinearModel, frame: Frame, threshold: float) -> tuple[int, float] | None:
    """Index and score of a frame's top-scoring candidate, the lowest
    index among ties, or None if it scores below the threshold."""
    scores = decisions(model, frame.features)
    best = int(np.argmax(scores))
    if scores[best] < threshold:
        return None
    return best, float(scores[best])


def _initial_kalman(centers: Sequence[np.ndarray]) -> tuple[list[float], list[float]]:
    """The first filter state as the 4 mean and 16 covariance floats the
    filter steps take, checked by _checked as every later state is."""
    last = centers[-1]
    vel = centers[-1] - centers[-2] if len(centers) >= 2 else np.zeros(2)
    return _checked(np.concatenate([last, vel], dtype=float).tolist(), np.eye(4).ravel().tolist())


def _noise_floats(noise: NoiseParams) -> tuple[list[float], list[float]]:
    """Q and R row by row, as the filter steps take them."""
    return noise.Q.ravel().tolist(), noise.R.ravel().tolist()


# A sampled row survives for training only if its norm reaches this
# fraction of the strongest norm among rows with the same provenance
# level.  A compressed node's leading row is an appearance prototype of
# its window; the trailing rows describe how the window varied around
# it, and treating those variation directions as appearances drags the
# model off target.  Half the peak norm means a quarter of the peak
# energy: below that a row is variation, not appearance.
REL_ENERGY_FLOOR = 0.5


def _as_directions(sample: SampleSet) -> SampleSet:
    """Rescale sampled rows to unit length before appearance training.

    Summary rows scale with the mass of data they stand for, so a row
    from an old, heavy node would otherwise dominate the hinge loss by
    norm alone.  The appearance model cares about directions; mass
    already had its say in which rows the sampler picked.  Rows far
    weaker than the strongest row of their own provenance group are
    variation modes rather than appearances and are dropped instead of
    being blown up to full strength.
    """
    values = sample.rows.values
    norms = np.linalg.norm(values, axis=1)
    group_max: dict[int, float] = {}
    for tag, norm in zip(sample.tags, norms):
        group_max[tag.level] = max(group_max.get(tag.level, 0.0), float(norm))
    keep = [
        i
        for i, tag in enumerate(sample.tags)
        if norms[i] >= REL_ENERGY_FLOOR * group_max[tag.level] and norms[i] > 0
    ]
    if not keep:
        return sample
    units = values[keep] / norms[keep, None]
    return SampleSet._trusted(
        rows=DataBlock._trusted(units),
        tags=tuple(sample.tags[i] for i in keep),
        n=sample.n,
        points_seen=sample.points_seen,
    )


def track_stream(
    frames: Sequence[Frame],
    config: SyntheticStreamConfig,
    tracker: TrackerParams | None = None,
    train_params: TrainParams | None = None,
    detect_params: DetectParams | None = None,
) -> TrackRun:
    """Run the full loop over a synthetic stream.

    Stages run strictly in order within each frame: score candidates
    with the last published model, smooth the chosen center, push the
    chosen feature, then retrain and publish if that push completed a
    leaf.  A frame whose candidates all score below the threshold
    contributes nothing to the tree and the estimate coasts on the
    motion model.  Deterministic for a given stream and configuration.
    """
    tracker = tracker or TrackerParams()
    train_params = train_params or TrainParams()
    dp = detect_params or DetectParams()
    tolerance = config.spacing / 2.0
    n = tracker.n

    tree = CoresetTree(n, config.dim)
    history: list[np.ndarray] | None = [] if tracker.sampler in FLAT_MODES else None
    retrains = 0
    jitter_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x0B007)))

    model: LinearModel | None = None
    model_points = -1
    q, r = _noise_floats(NoiseParams.default())
    # The filter state as Python floats: the mean x and covariance p, row by row.
    x: list[float] | None = None
    p: list[float] = []
    centers: deque[np.ndarray] = deque(maxlen=n)
    records: list[FrameRecord] = []
    bootstrap_frames = 0

    for frame in frames:
        if model is None:
            bootstrap_frames = frame.index + 1
            chosen, score, position = frame.truth_index, float("nan"), frame.truth_position
            truth_feat = frame.features[frame.truth_index]
            jitter = jitter_rng.standard_normal((config.jitter_copies, config.dim))
            rows = np.vstack([truth_feat, truth_feat + config.jitter_scale * jitter])
            estimate = position
        else:
            threshold = dp.threshold if dp.threshold is not None else model.threshold
            found = detect(model, frame, threshold)
            x, p = _predict(x, p, q)
            if found is None:
                chosen, score, position, rows = -1, float("nan"), None, None
            else:
                chosen, score = found
                position = frame.positions[chosen]
                x, p = _update(x, p, position, r)
                # history keeps this row, so it must not view the caller's frame.
                rows = frame.features[chosen : chosen + 1].copy()
            estimate = x
        correct = chosen == frame.truth_index or (
            position is not None
            and _norm(position - frame.truth_position) <= tolerance
        )
        records.append(
            FrameRecord(
                index=frame.index,
                chosen=chosen,
                score=score,
                estimate=(float(estimate[0]), float(estimate[1])),
                correct=correct,
                model_points=model_points,
            )
        )
        if rows is None:
            continue
        centers.append(position.copy())
        if history is not None:
            history.extend(rows)
        if tree.push_rows(rows):
            if tree.leaves_seen % tracker.em_every == 0 and len(centers) >= 4:
                q, r = _noise_floats(em_fit(np.vstack(centers), EM_ITERATIONS)[0])
            # One push may finish several leaves but retrains once: seed by retrains.
            seed = None
            if tracker.sampler == "random":
                seed = int(np.random.SeedSequence((config.seed, retrains)).generate_state(1)[0])
            sample = draw_sample(tracker.sampler, tree.snapshot(), history, seed)
            retrains += 1
            # Summary row norms encode mass, not appearance: train on directions.
            model = train_one_class(_as_directions(sample), train_params)
            model_points = sample.points_seen
            if x is None:
                x, p = _initial_kalman(list(centers))

    return TrackRun(records=tuple(records), bootstrap_frames=bootstrap_frames)


def compare_samplers(
    config: SyntheticStreamConfig,
    n_values: list[int],
    seeds: list[int],
    tracker: TrackerParams | None = None,
    train_params: TrainParams | None = None,
    detect_params: DetectParams | None = None,
) -> list[dict]:
    """Paired sampler comparison on identical streams.

    For every n and seed, one stream is generated and each sampler mode
    runs its own loop over it.  Returns one record per (n, seed, mode)
    with the final success rate.
    """
    base_tracker = tracker or TrackerParams()
    trackers = {n: replace(base_tracker, n=n) for n in n_values}  # checks every n first
    rows: list[dict] = []
    for n in n_values:
        for seed in seeds:
            cfg = replace(config, seed=seed)
            frames = generate_stream(cfg)
            for mode in SAMPLER_MODES:
                run = track_stream(
                    frames,
                    cfg,
                    tracker=replace(trackers[n], sampler=mode),
                    train_params=train_params,
                    detect_params=detect_params,
                )
                rows.append(
                    {
                        "n": n,
                        "seed": seed,
                        "mode": mode,
                        "success": run.success_rate,
                    }
                )
    return rows


def summarize_comparison(rows: list[dict]) -> dict[tuple[int, str], float]:
    """Mean success per (n, mode) over the seeds."""
    sums: dict[tuple[int, str], list[float]] = {}
    for row in rows:
        sums.setdefault((row["n"], row["mode"]), []).append(row["success"])
    return {key: sum(v) / len(v) for key, v in sums.items()}
