"""Layered benchmark for corestream, driven from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` beside this directory, and the run stops with exit code 2,
printing no result, when that tree is missing.  Inputs come from
``--seed`` and are made before timing starts.  Load comes from this one
process and one calling thread; BLAS keeps its default thread count,
which the environment block records but never sets.

Workloads (all closed loops with a single caller):

  ingest-narrow  `tree-build` CLI, n=64 dim=16, 849 Gaussian rows
                 (13 leaves, 17 pending).
  ingest-wide    `tree-build` CLI, n=128 dim=256, 3109 rows (24 leaves,
                 37 pending) whose singular values decay as 0.97**j, so
                 every merge loses energy.
  track-drift    `track_stream` on the bundled drift_stream config, n=16,
                 em_every=2, 120 solver iterations, threshold 0.0, over
                 four streams seeded from --seed.
  query-mix      pushes (n=32 dim=64, 200 leaves, 13 pending, decaying
                 spectrum) with snapshot+hierarchical_sample after every
                 leaf, snapshot+root_sample every 8th leaf and a
                 checkpoint round trip every 64th leaf.

A round is one run of one unit: a tree-build call, one stream, or one
query-mix session.  Rounds of a unit repeat the same work, so they split
into matching steps (the call, each frame, each leaf with its reads)
and operations (the call, each frame, each query).  The host's speed
swings by up to 1.8x over seconds, so the timed end-to-end metrics use
each step's and each operation's fastest time over the rounds, which
estimates the uncontended cost; run-wide medians and tails over all
rounds are printed beside them.  With --trace 0 the last line carries
these four metrics on every workload:

  setup_s       starting Python and importing corestream, then making
                the inputs and warming up; the median of six set-ups
                spread over the run.
  rows_per_s    rows one round pushes into a coreset tree, over the sum
                of its steps' fastest times (for tree-build this includes
                reading the file and writing snapshot and telemetry; for
                query-mix, the reads; for track-drift, the whole loop).
  op_p50_ms     median over operations of each operation's fastest
                service time.
  peak_rss_mb   peak resident memory of this process, which runs one
                workload only.

Lines before it print every workload-specific metric with its unit over
all rounds (frames_per_s, frame_p50_ms, frame_p99_ms, track_success,
query_p50_ms, query_p99_ms, checkpoint_ms, summary_rel_loss, failed_frac
and sample counts) and the environment block.

With --trace 1 the run alternates untraced and traced executions of the
same units and the last line carries per-layer metrics for one cycle of
units (one tree-build call, the four streams, or one query-mix session):
self time and calls per layer from spans taken at the call sites, the
counts listed in PER_LAYER, and the tracing overhead.  Spans are written
to .perfbench_work/ when the run ends.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-ups timed per untraced run, spread evenly over the run.
EXTRA_SETUPS = 5
# Traced cycles kept in memory at most; each holds every span of a cycle.
MAX_TRACED_CYCLES = 12

# name, unit.  ".calls" counts calls, ".s" and ".self_s" are self time,
# both per cycle of units.
PER_LAYER = (
    ("blocks.svd_truncate.calls", "count"),
    ("blocks.svd_truncate.s", "s"),
    ("blocks.svd_truncate.gflop_computed", "GFLOP"),
    ("blocks.DataBlock.calls", "count"),
    ("blocks.DataBlock.s", "s"),
    ("tree.push_point.calls", "count"),
    ("tree.push_point.s", "s"),
    ("tree.push_point.p99_us", "us"),
    ("tree.snapshot.calls", "count"),
    ("tree.snapshot.s", "s"),
    ("tree.collapse.calls", "count"),
    ("tree.collapse.s", "s"),
    ("sampling.hierarchical_sample.calls", "count"),
    ("sampling.hierarchical_sample.s", "s"),
    ("sampling.root_sample.calls", "count"),
    ("sampling.root_sample.s", "s"),
    ("svm.train_one_class.calls", "count"),
    ("svm.train_one_class.s", "s"),
    ("svm.one_class_objective.calls", "count"),
    ("svm.one_class_subgradient.calls", "count"),
    ("svm.evals_per_iter", "ratio"),
    ("svm.decisions.s", "s"),
    ("kalman.em_fit.calls", "count"),
    ("kalman.em_fit.s", "s"),
    ("kalman.kalman_predict.s", "s"),
    ("kalman.kalman_update.s", "s"),
    ("tracking.detect.calls", "count"),
    ("tracking.detect.s", "s"),
    ("tracking.track_stream.self_s", "s"),
    ("cli.tree_build.self_s", "s"),
    ("io.read_features.s", "s"),
    ("io.read_features.bytes", "bytes"),
    ("io.write_telemetry.s", "s"),
    ("io.write_telemetry.bytes", "bytes"),
    ("io.write_snapshot.s", "s"),
    ("io.write_snapshot.bytes", "bytes"),
    ("io.read_snapshot.s", "s"),
    ("harness.self_s", "s"),
    ("tree.merges", "count"),
    ("tree.max_live_nodes", "count"),
    ("tracking.retrains", "count"),
    ("sampling.rows_out", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


def import_library():
    """Import corestream from this checkout's src/, never from elsewhere."""
    package = SRC / "corestream"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no corestream sources at {package}")
    sys.path.insert(0, str(SRC))
    import corestream

    if Path(corestream.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported corestream from {corestream.__file__}")


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it exports the query."""
    import numpy as np

    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    handles = [ctypes.CDLL(str(path)) for path in libs] + [ctypes.CDLL(None)]
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for handle in handles:
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_unit(wl, unit, tally, tracer=None, run=0):
    """Time one unit, then check its outputs; returns its wall time or None."""
    try:
        if tracer is None:
            start = time.perf_counter()
            outcome = wl.timed(unit, tally)
            wall = time.perf_counter() - start
        else:
            outcome, wall = tracer.run_traced(run, lambda: wl.timed(unit, tally))
    except Exception as exc:  # a program failure counts; the run goes on
        tally.op(False, f"{type(exc).__name__}: {exc}")
        return None
    wl.check(unit, outcome, tally)
    return wall


def set_up(args, work):
    """Build the workload, make its inputs and warm it; returns (wl, seconds)."""
    import workloads

    start = time.perf_counter()
    wl = workloads.build(args.workload, args.size, work)
    wl.prepare(args.seed)
    wl.warm()
    return wl, time.perf_counter() - start


def import_seconds() -> float:
    """Start a fresh interpreter that imports corestream from src/."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import corestream"],
        check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def measure(wl, seconds: float, tally, extra_setup) -> list[tuple[float, float]]:
    """Untraced closed loop: at least one cycle, then until time is up.

    The host's speed drifts over seconds, so the set-up is repeated at
    even intervals through the run, in a spare directory and outside
    the measured time; its median then spans the same stretch of time
    as the measurement.  Returns (import, prepare) seconds of each.
    """
    setups: list[tuple[float, float]] = []
    start = time.perf_counter()
    marks = [start + seconds * k / EXTRA_SETUPS for k in range(EXTRA_SETUPS)]
    paused = 0.0
    first = True
    while first or time.perf_counter() - paused < start + seconds:
        for unit in wl.units():
            now = time.perf_counter()
            if not first and now - paused >= start + seconds:
                break
            if marks and now - paused >= marks[0]:
                marks.pop(0)
                setups.append(extra_setup())
                paused += time.perf_counter() - now
            run_unit(wl, unit, tally)
        first = False
    return setups


def measure_traced(wl, seconds: float, tally, tracer) -> dict:
    """Each unit runs untraced and traced, alternating which goes first."""
    deadline = time.perf_counter() + seconds
    plain, traced, runs = [], [], set()
    cycles = 0
    while cycles == 0 or (time.perf_counter() < deadline and cycles < MAX_TRACED_CYCLES):
        for unit in wl.units():
            for with_trace in (False, True) if cycles % 2 == 0 else (True, False):
                if with_trace:
                    run = len(runs)
                    wall = run_unit(wl, unit, tally, tracer, run)
                    runs.add(run)
                    traced.append(wall)
                else:
                    tracer.check_original()
                    plain.append(run_unit(wl, unit, tally))
        cycles += 1
    return layer_metrics(tracer, runs, cycles, plain, traced)


def layer_metrics(tracer, runs, cycles, plain, traced) -> dict:
    stats = tracer.layer_stats(runs)
    calls, self_s, facts = stats["calls"], stats["self_s"], stats["facts"]
    wall = sum(w for w in traced if w is not None)
    plain_wall = sum(w for w in plain if w is not None)
    pushes = stats["durations"].get("tree.push_point", [])
    iters = calls["svm.one_class_subgradient"]
    special = {
        "tree.push_point.p99_us": statistics.quantiles(pushes, n=100)[-1] * 1e6
        if len(pushes) >= 2
        else 0.0,
        "svm.evals_per_iter": calls["svm.one_class_objective"] / iters if iters else 0.0,
        "tree.merges": stats["merges"] / cycles,
        "tree.max_live_nodes": stats["max_live_nodes"],
        "tracking.retrains": calls["svm.train_one_class"] / cycles,
        "sampling.rows_out": facts["sampling.rows_out"] / cycles,
        "trace.wall_s": wall / cycles,
        "trace.self_sum_frac": sum(self_s.values()) / wall if wall else 0.0,
        "trace.overhead_frac": wall / plain_wall - 1.0 if plain_wall else 0.0,
    }
    out = {}
    for name, unit in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in special:
            value = special[name]
        elif kind == "calls":
            value = calls[layer] / cycles
        elif kind in ("s", "self_s"):
            value = self_s[layer] / cycles
        else:
            value = facts[name] / cycles
        out[name] = (float(value), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    import_library()
    import_s = time.perf_counter() - _START
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}")

    work = WORK / f"run-{os.getpid()}"
    spare = work / "setup"
    spare.mkdir(parents=True, exist_ok=True)
    try:
        wl, first_setup = set_up(args, work)
        setups = [(import_s, first_setup)]
        tally = workloads.Tally()
        if args.trace:
            tracer = tracing.Tracer()
            metrics = measure_traced(wl, args.seconds, tally, tracer)
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans)
        else:
            setups += measure(
                wl, args.seconds, tally, lambda: (import_seconds(), set_up(args, spare)[1])
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = (statistics.median(a + b for a, b in setups), "s")
    if args.trace:
        shown = {**metrics, "setup_s": setup_s}
    else:
        metrics = {
            "setup_s": setup_s,
            "rows_per_s": (tally.best_rows_per_s(), "1/s"),
            "op_p50_ms": (tally.best_op_p50_ms(), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        shown = {**metrics, **wl.report(tally)}
    shown["setup_import_s"] = (statistics.median(a for a, _ in setups), "s")
    shown["setup_prepare_s"] = (statistics.median(b for _, b in setups), "s")
    shown["setup_samples"] = (len(setups), "count")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    if args.trace:
        print(f"spans: {spans.relative_to(ROOT)}")
    shown["failed_frac"] = (tally.failed / max(tally.attempted, 1), "frac")
    shown["attempted"] = (tally.attempted, "count")
    for name, (value, unit) in shown.items():
        print(f"{name} {value!r} {unit}")
    for error in tally.errors:
        print(f"failure: {error}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
