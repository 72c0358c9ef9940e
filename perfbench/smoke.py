"""Fast self-check of the benchmark, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload for one second at ``--size tiny``, untraced and
traced, and checks that:

- the last line is a result with exactly the keys correct, attempted,
  failed and metrics, and its metrics are exactly BENCHMARK.json's
  end-to-end (untraced) or per-layer (traced) list, each with its unit;
- every named workload metric prints with its unit, and failed_frac is 0;
- the traced run exercised the layers its workload exists for, and the
  layers' self times add up to the traced wall time;
- the tracer puts every original function back;
- in a directory holding only BENCHMARK.json and the benchmark, the run
  fails without printing a result.

Exits 1 on the first failed check.  Takes about twenty seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = {"setup_s": "s", "rows_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
          "failed_frac": "frac"}
NAMED = {
    "ingest-narrow": COMMON,
    "ingest-wide": {**COMMON, "summary_rel_loss": "frac"},
    "track-drift": {**COMMON, "frames_per_s": "1/s", "frame_p50_ms": "ms",
                    "frame_p99_ms": "ms", "frame_samples": "count", "track_success": "frac"},
    "query-mix": {**COMMON, "query_p50_ms": "ms", "query_p99_ms": "ms", "query_samples": "count",
                  "checkpoint_ms": "ms", "summary_rel_loss": "frac"},
}
# Per-layer metrics that must be positive because the workload exists
# to load that layer.
EXERCISED = {
    "ingest-narrow": ("tree.push_point.calls", "blocks.svd_truncate.calls",
                      "io.write_telemetry.bytes", "io.read_features.bytes",
                      "cli.tree_build.self_s"),
    "ingest-wide": ("blocks.svd_truncate.gflop_computed", "tree.merges",
                    "io.write_snapshot.bytes"),
    "track-drift": ("svm.train_one_class.calls", "svm.evals_per_iter", "kalman.em_fit.calls",
                    "tracking.detect.calls", "tracking.retrains", "svm.decisions.s"),
    "query-mix": ("tree.collapse.calls", "sampling.root_sample.calls",
                  "sampling.hierarchical_sample.calls", "io.read_snapshot.s",
                  "sampling.rows_out"),
}


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("env:", "spans:")):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def check_result(workload: str, trace: int, proc) -> dict:
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {proc.stdout[-2000:]}")
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0):
            fail(f"{workload}: {name} = {m['value']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_workload(workload: str) -> None:
    proc = run(ROOT, workload, 0)
    check_result(workload, 0, proc)
    lines = printed(proc.stdout)
    for name, unit in NAMED[workload].items():
        if name not in lines or lines[name][1] != unit:
            fail(f"{workload}: {name} not printed with unit {unit}")
    if lines["failed_frac"][0] != 0.0:
        fail(f"{workload}: failed_frac {lines['failed_frac'][0]}")

    values = check_result(workload, 1, run(ROOT, workload, 1))
    for name in EXERCISED[workload]:
        if values[name] <= 0:
            fail(f"{workload}: traced run shows no {name}")
    if not 0.99 <= values["trace.self_sum_frac"] <= 1.0 + 1e-9:
        fail(f"{workload}: self times cover {values['trace.self_sum_frac']} of the traced wall")
    print(f"ok {workload}")


def check_restore() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer as tracing
    from corestream import tracking

    original = tracking.train_one_class
    t = tracing.Tracer()
    t.install(0)
    if tracking.train_one_class is original:
        fail("install left tracking.train_one_class unwrapped")
    t.restore()
    t.check_original()
    if tracking.train_one_class is not original:
        fail("restore did not put the originals back")
    print("ok tracer restore")


def check_bare_checkout() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"without src/ the run exited {proc.returncode} and printed {proc.stdout!r}")
    print("ok bare checkout refused")


def main() -> int:
    check_restore()
    check_bare_checkout()
    for workload in NAMED:
        check_workload(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
