"""The paired sampler comparison behind ``compare-sampling``: every
sampler mode runs on the same seeded streams.  Timings live in
``perfbench/``.
"""

from __future__ import annotations

from dataclasses import replace

from .svm import TrainParams
from .tracking import (
    DetectParams,
    SAMPLER_MODES,
    SyntheticStreamConfig,
    TrackerParams,
    generate_stream,
    track_stream,
)


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
