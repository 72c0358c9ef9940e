"""Command line front end.

Subcommands: reduce, tree-build, sample, track, compare-sampling.
Exit status 0 on success, 2 on usage or input validation problems, 1
on internal errors.  Every command is deterministic given an explicit
--seed; commands that draw randomness print the effective seed they
used.  This module opens no file itself: every read and write, config
lookup included, goes through io.
"""

from __future__ import annotations

import argparse
import functools
import secrets
import sys
import time
from dataclasses import replace

from . import io
from .blocks import measure_epsilon, reduce_block
from .svm import TrainParams
from .tracking import (
    DetectParams,
    FLAT_MODES,
    SAMPLER_MODES,
    TrackerParams,
    compare_samplers,
    draw_sample,
    generate_stream,
    summarize_comparison,
    track_stream,
)
from .tree import CoresetTree


def _effective_seed(given: int | None) -> int:
    if given is not None:
        if given < 0:
            raise ValueError(f"--seed must be >= 0, got {given}")
        return given
    return secrets.randbelow(2**31)


def _train_params(args: argparse.Namespace) -> TrainParams:
    return TrainParams(
        regularization=args.reg,
        iterations=args.iters,
        nu=args.nu,
    )


def _int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}")
    if not values or min(values) < 0:
        raise ValueError(f"{what} must be a non-empty list of integers >= 0, got {text!r}")
    if len(set(values)) < len(values):
        raise ValueError(f"{what} repeats {max(values, key=values.count)}; entries must differ")
    return values


def cmd_reduce(args: argparse.Namespace) -> int:
    block = io.read_features(args.infile)
    if not 1 <= args.epsilon_k < block.dim:
        raise ValueError(
            f"--epsilon-k {args.epsilon_k} must be at least 1 and below the data "
            f"dimension {block.dim}"
        )
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    seed = _effective_seed(args.seed)
    summary = reduce_block(block, args.n)
    print(f"seed: {seed}")
    io.write_coreset(args.out, summary)
    eps = measure_epsilon(block, summary, args.epsilon_k, trials=args.trials, seed=seed)
    print(f"rows: {summary.block.rows}")
    print(f"c: {summary.c!r}")
    print(f"epsilon: {eps!r}")
    return 0


def cmd_tree_build(args: argparse.Namespace) -> int:
    block = io.read_features(args.infile)
    tree = CoresetTree(args.n, block.dim)
    records = []
    merges = 0
    for row in block.values:
        start = time.perf_counter()
        report = tree.push_point(row)
        seconds = time.perf_counter() - start
        merges += len(report.merged_levels)
        records.append((len(report.merged_levels), merges, tree.live_node_count(), seconds))
    io.write_snapshot(args.snapshot_out, tree.snapshot())
    io.write_telemetry(args.telemetry_out, records)
    print(f"points: {tree.points_seen}")
    print(f"leaves: {tree.leaves_seen}")
    print(f"merges: {tree.merge_count}")
    print(f"live_nodes: {tree.live_node_count()}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    flat = args.mode in FLAT_MODES
    if args.features is not None and not flat:
        raise ValueError(f"--features is only for random and subsample, not --mode {args.mode}")
    seed = _effective_seed(args.seed)
    view = io.read_snapshot(args.snapshot)
    history = None
    if flat:
        if args.features is None:
            raise ValueError(
                f"--mode {args.mode} samples from raw history; pass the original "
                "stream with --features"
            )
        features = io.read_features(args.features)
        if (features.dim, features.rows) != (view.dim, view.points_seen):
            raise ValueError(
                f"--features holds {features.rows} rows of dim {features.dim}, but the "
                f"snapshot saw {view.points_seen} rows of dim {view.dim}"
            )
        history = features.values
    if args.mode == "random":
        print(f"seed: {seed}")
    sample = draw_sample(args.mode, view, history, seed)
    io.write_sample(args.out, sample, args.mode)
    print(f"rows: {sample.rows.rows}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    config = io.read_stream_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    tracker = TrackerParams(n=args.n, sampler=args.sampler, em_every=args.em_every)
    train_params = _train_params(args)
    detect_params = DetectParams(threshold=args.threshold)
    print(f"seed: {config.seed}")
    run = track_stream(
        generate_stream(config),
        config,
        tracker=tracker,
        train_params=train_params,
        detect_params=detect_params,
    )
    io.write_track_run(args.out, run)
    print(f"frames: {len(run.records)}")
    print(f"bootstrap_frames: {run.bootstrap_frames}")
    print(f"success_rate: {run.success_rate:.3f}")
    return 0


def cmd_compare_sampling(args: argparse.Namespace) -> int:
    config = io.read_stream_config(args.config)
    n_values = _int_list(args.n_list, "--n-list")
    seeds = _int_list(args.seeds, "--seeds")
    rows = compare_samplers(
        config,
        n_values,
        seeds,
        tracker=TrackerParams(n=n_values[0], em_every=args.em_every),
        train_params=_train_params(args),
        detect_params=DetectParams(threshold=args.threshold),
    )
    io.write_table(args.out, list(rows[0]), map(dict.values, rows))
    means = summarize_comparison(rows)
    for (n, mode), mean in sorted(means.items()):
        print(f"n={n} {mode}: {mean:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corestream",
        description="Streaming coreset tree: reduce, build, sample, track, compare samplers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The stream config and loop knobs of track and compare-sampling; defaults are the library's.
    loop = argparse.ArgumentParser(add_help=False)
    loop.add_argument("--config", required=True, help="stream config path or bundled name")
    loop.add_argument("--nu", type=float, default=TrainParams.nu)
    loop.add_argument("--reg", type=float, default=TrainParams.regularization)
    loop.add_argument("--iters", type=int, default=TrainParams.iterations)
    loop.add_argument("--threshold", type=float, default=DetectParams.threshold)
    loop.add_argument("--em-every", type=int, default=TrackerParams.em_every)

    p = sub.add_parser("reduce", help="compress a feature file to at most n rows")
    p.add_argument("--in", dest="infile", required=True, help="input feature file")
    p.add_argument("--n", type=int, required=True, help="row budget")
    p.add_argument("--out", required=True, help="output summary block (JSON)")
    p.add_argument("--epsilon-k", type=int, default=1, help="probe subspace dimension")
    p.add_argument("--trials", type=int, default=100, help="probe count")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("tree-build", help="stream a feature file through a tree")
    p.add_argument("--in", dest="infile", required=True, help="input feature file")
    p.add_argument("--n", type=int, required=True, help="leaf size")
    p.add_argument("--snapshot-out", required=True, help="tree snapshot (JSON)")
    p.add_argument("--telemetry-out", required=True, help="telemetry CSV")

    p = sub.add_parser("sample", help="draw a training sample from a snapshot")
    p.add_argument("--snapshot", required=True, help="tree snapshot (JSON)")
    p.add_argument("--mode", required=True, choices=SAMPLER_MODES)
    p.add_argument("--out", required=True, help="sample CSV")
    p.add_argument(
        "--features", default=None, help="raw stream file, for random/subsample only"
    )
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("track", help="run the tracking loop on a synthetic stream", parents=[loop])
    p.add_argument("--n", type=int, default=TrackerParams.n, help="leaf size")
    p.add_argument("--sampler", default=TrackerParams.sampler, choices=SAMPLER_MODES)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--out", required=True, help="per-frame track table CSV")

    p = sub.add_parser(
        "compare-sampling", help="paired sampler comparison on identical streams", parents=[loop]
    )
    p.add_argument("--n-list", required=True, help="comma-separated leaf sizes")
    p.add_argument("--seeds", required=True, help="comma-separated stream seeds")
    p.add_argument("--out", required=True, help="results CSV")

    return parser


# One parser per process; it holds no function, so a wrapper set on cmd_* runs.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected, report as internal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
