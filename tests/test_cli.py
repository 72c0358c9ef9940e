"""End-to-end tests of the command line, driven through subprocesses."""

import csv
import json
import subprocess
import sys
from dataclasses import astuple, fields

import numpy as np
import pytest

from corestream import (
    CoresetTree,
    DataBlock,
    DetectParams,
    TrackerParams,
    TrainParams,
    random_orthonormal,
)
from corestream import bench, cli, io

# Success rate of the first verified run of the bundled drift-stream
# config under the canonical flags below.  Guards against silent
# behavior changes; the run itself is deterministic.
DRIFT_GOLDEN_SUCCESS = 0.944
DRIFT_GOLDEN_FLAGS = [
    "--config",
    "drift_stream",
    "--n",
    "16",
    "--em-every",
    "2",
    "--iters",
    "120",
    "--threshold",
    "0.0",
]


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "corestream", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def stdout_value(result, key: str) -> str:
    for line in result.stdout.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in {result.stdout!r}")


def write_rank2_features(path: str, rows: int = 20, dim: int = 6) -> DataBlock:
    rng = np.random.default_rng(0)
    basis = random_orthonormal(dim, 2, seed=1).T
    block = DataBlock(rng.standard_normal((rows, 2)) @ basis)
    io.write_features(path, block)
    return block


def write_easy_config(path) -> None:
    path.write_text(
        json.dumps(
            {
                "dim": 8,
                "frames": 60,
                "drift_rate": 0.0,
                "noise_scale": 0.0,
                "distractor_count": 4,
                "distractor_similarity": 0.0,
                "seed": 0,
            }
        )
    )


def test_reduce_lossless_rank2(tmp_path):
    infile = str(tmp_path / "feat.txt")
    out = str(tmp_path / "summary.json")
    write_rank2_features(infile)
    result = run_cli("reduce", "--in", infile, "--n", "3", "--out", out, "--seed", "0")
    assert result.returncode == 0, result.stderr
    assert float(stdout_value(result, "epsilon")) <= 1e-8
    assert float(stdout_value(result, "c")) <= 1e-12
    summary = io.read_coreset(out)
    assert summary.block.rows == 3


def test_reduce_printed_c_matches_an_independent_svd(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((64, 16))
    infile = str(tmp_path / "feat.bin")
    io.write_features(infile, DataBlock(values), binary=True)
    out = str(tmp_path / "summary.json")
    result = run_cli("reduce", "--in", infile, "--n", "8", "--out", out, "--seed", "0")
    assert result.returncode == 0, result.stderr
    printed_c = float(stdout_value(result, "c"))
    tail = float(np.sum(np.linalg.svd(values, compute_uv=False)[8:] ** 2))
    assert printed_c == pytest.approx(tail, rel=1e-9)


def test_reduce_malformed_header_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim=3 cols=2\n")
    result = run_cli("reduce", "--in", str(bad), "--n", "2", "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert "line 1" in result.stderr


def test_reduce_rejects_epsilon_k_at_dimension(tmp_path):
    infile = str(tmp_path / "feat.txt")
    write_rank2_features(infile, dim=4)
    result = run_cli(
        "reduce", "--in", infile, "--n", "2", "--out", str(tmp_path / "o"),
        "--epsilon-k", "4",
    )
    assert result.returncode == 2
    assert "epsilon-k" in result.stderr


@pytest.mark.parametrize("flag", ["--epsilon-k", "--trials"])
def test_reduce_checks_its_probe_flags_before_writing(tmp_path, flag):
    infile = str(tmp_path / "feat.txt")
    write_rank2_features(infile, dim=4)
    out = tmp_path / "o"
    result = run_cli("reduce", "--in", infile, "--n", "2", "--out", str(out), flag, "0")
    assert result.returncode == 2
    assert flag in result.stderr
    assert not out.exists()


def test_tree_build_reports_counter_facts(tmp_path):
    n = 4
    infile = str(tmp_path / "feat.txt")
    rng = np.random.default_rng(2)
    io.write_features(infile, DataBlock(rng.standard_normal((8 * n, 3))))
    snap = str(tmp_path / "snap.json")
    telemetry = str(tmp_path / "tele.csv")
    result = run_cli(
        "tree-build", "--in", infile, "--n", str(n),
        "--snapshot-out", snap, "--telemetry-out", telemetry,
    )
    assert result.returncode == 0, result.stderr
    assert stdout_value(result, "leaves") == "8"
    assert stdout_value(result, "merges") == "7"
    assert stdout_value(result, "live_nodes") == "1"
    view = io.read_snapshot(snap)
    assert view.points_seen == 8 * n
    telemetry_lines = open(telemetry).read().strip().splitlines()
    assert len(telemetry_lines) == 1 + 8 * n


def test_tree_build_telemetry_rows_are_aligned_and_consistent(tmp_path):
    n = 4
    pushes = 8 * n + 3
    infile = str(tmp_path / "feat.txt")
    io.write_features(
        infile, DataBlock(np.random.default_rng(6).standard_normal((pushes, 3)))
    )
    telemetry = tmp_path / "tele.csv"
    result = run_cli(
        "tree-build", "--in", infile, "--n", str(n),
        "--snapshot-out", str(tmp_path / "s.json"), "--telemetry-out", str(telemetry),
    )
    assert result.returncode == 0, result.stderr
    with open(telemetry, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(io.TELEMETRY_COLUMNS)
    body = rows[1:]
    assert [int(r[0]) for r in body] == list(range(pushes))
    running = np.cumsum([int(r[1]) for r in body])
    assert list(running) == [int(r[2]) for r in body]
    assert body[-1][2] == stdout_value(result, "merges")
    assert body[-1][3] == stdout_value(result, "live_nodes")
    assert all(float(r[4]) >= 0.0 for r in body)


def test_tree_build_five_leaves_leave_two_nodes(tmp_path):
    n = 4
    infile = str(tmp_path / "feat.txt")
    io.write_features(
        infile, DataBlock(np.random.default_rng(3).standard_normal((5 * n, 3)))
    )
    result = run_cli(
        "tree-build", "--in", infile, "--n", str(n),
        "--snapshot-out", str(tmp_path / "s.json"),
        "--telemetry-out", str(tmp_path / "t.csv"),
    )
    assert result.returncode == 0
    assert stdout_value(result, "live_nodes") == "2"


def test_tree_build_empty_input_is_a_usage_error(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    result = run_cli(
        "tree-build", "--in", str(empty), "--n", "4",
        "--snapshot-out", str(tmp_path / "s.json"),
        "--telemetry-out", str(tmp_path / "t.csv"),
    )
    assert result.returncode == 2


def test_sample_modes_and_random_determinism(tmp_path):
    n = 4
    infile = str(tmp_path / "feat.txt")
    io.write_features(
        infile, DataBlock(np.random.default_rng(4).standard_normal((6 * n + 2, 3)))
    )
    snap = str(tmp_path / "snap.json")
    run_cli(
        "tree-build", "--in", infile, "--n", str(n),
        "--snapshot-out", snap, "--telemetry-out", str(tmp_path / "t.csv"),
    )
    features = ("--features", infile)
    for mode, extra in (("hierarchical", ()), ("root", ()), ("subsample", features)):
        out = str(tmp_path / f"{mode}.csv")
        result = run_cli("sample", "--snapshot", snap, "--mode", mode, *extra, "--out", out)
        assert result.returncode == 0, result.stderr
        assert int(stdout_value(result, "rows")) <= 2 * n
        assert "seed:" not in result.stdout

    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    for out in (out1, out2):
        result = run_cli(
            "sample", "--snapshot", snap, "--mode", "random",
            *features, "--seed", "9", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert stdout_value(result, "seed") == "9"
    assert out1.read_bytes() == out2.read_bytes()

    missing = run_cli(
        "sample", "--snapshot", snap, "--mode", "random", "--out", str(tmp_path / "x")
    )
    assert missing.returncode == 2
    assert "--features" in missing.stderr
    # The tree-backed modes refuse --features before reading anything.
    for mode in ("hierarchical", "root"):
        stray = run_cli(
            "sample", "--snapshot", snap, "--mode", mode,
            "--features", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "y"),
        )
        assert stray.returncode == 2
        assert "--features" in stray.stderr and stray.stdout == ""
        assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("shape", [(26, 7), (25, 3)], ids=["wrong-dim", "wrong-rows"])
def test_sample_refuses_features_that_do_not_match_the_snapshot(tmp_path, shape):
    n = 4
    infile = str(tmp_path / "feat.txt")
    io.write_features(infile, DataBlock(np.random.default_rng(4).standard_normal((26, 3))))
    snap = str(tmp_path / "snap.json")
    run_cli(
        "tree-build", "--in", infile, "--n", str(n),
        "--snapshot-out", snap, "--telemetry-out", str(tmp_path / "t.csv"),
    )
    other = str(tmp_path / "other.txt")
    io.write_features(other, DataBlock(np.random.default_rng(5).standard_normal(shape)))
    for mode in ("random", "subsample"):
        out = tmp_path / f"{mode}.csv"
        result = run_cli(
            "sample", "--snapshot", snap, "--mode", mode, "--features", other,
            "--seed", "9", "--out", str(out),
        )
        assert result.returncode == 2
        assert f"{shape[0]} rows of dim {shape[1]}" in result.stderr
        assert "26 rows of dim 3" in result.stderr
        assert not out.exists()


@pytest.mark.parametrize("doc", ["[1, 2]", '"x"'], ids=["list", "string"])
def test_sample_refuses_a_snapshot_that_is_not_a_json_object(tmp_path, doc):
    snap = tmp_path / "bad.json"
    snap.write_text(doc)
    result = run_cli(
        "sample", "--snapshot", str(snap), "--mode", "hierarchical", "--out", str(tmp_path / "s.csv")
    )
    assert result.returncode == 2, result.stderr
    assert f"{snap}: not a coreset-tree-snapshot document" in result.stderr


def test_sample_rejects_unknown_mode(tmp_path):
    result = run_cli(
        "sample", "--snapshot", "whatever", "--mode", "sideways", "--out", "x"
    )
    assert result.returncode == 2
    assert "hierarchical" in result.stderr


def test_track_zero_drift_config_is_perfect(tmp_path):
    cfg = tmp_path / "easy.json"
    write_easy_config(cfg)
    result = run_cli(
        "track", "--config", str(cfg), "--n", "8", "--out", str(tmp_path / "run.csv")
    )
    assert result.returncode == 0, result.stderr
    assert stdout_value(result, "success_rate") == "1.000"
    assert stdout_value(result, "seed") == "0"


def test_track_seed_override_changes_the_stream(tmp_path):
    cfg = tmp_path / "easy.json"
    write_easy_config(cfg)
    a = run_cli(
        "track", "--config", str(cfg), "--n", "8", "--seed", "5",
        "--out", str(tmp_path / "a.csv"),
    )
    assert a.returncode == 0
    assert stdout_value(a, "seed") == "5"
    b = run_cli(
        "track", "--config", str(cfg), "--n", "8", "--seed", "5",
        "--out", str(tmp_path / "b.csv"),
    )
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_track_bundled_drift_config_matches_golden(tmp_path):
    result = run_cli("track", *DRIFT_GOLDEN_FLAGS, "--out", str(tmp_path / "run.csv"))
    assert result.returncode == 0, result.stderr
    got = float(stdout_value(result, "success_rate"))
    assert abs(got - DRIFT_GOLDEN_SUCCESS) <= 0.02


def test_track_missing_config_is_a_usage_error(tmp_path):
    result = run_cli(
        "track", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")
    )
    assert result.returncode == 2
    assert "no config" in result.stderr


def test_bench_time_mode_writes_grid_rows(tmp_path):
    out = tmp_path / "bench.csv"
    result = run_cli(
        "bench", "--mode", "time", "--grid", "64,128", "--n", "8", "--dim", "4",
        "--seed", "0", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("points,leaves,merges")
    first = lines[1].split(",")
    assert first[0] == "64"
    assert int(first[1]) == 64 // 8


def test_bench_svm_time_mode(tmp_path):
    out = tmp_path / "bench.csv"
    result = run_cli(
        "bench", "--mode", "svm-time", "--grid", "128,256", "--n", "8", "--dim", "4",
        "--iters", "20", "--seed", "0", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "points,sample_rows,sample_train_seconds,full_train_seconds"
    assert len(lines) == 3
    for line in lines[1:]:
        assert int(line.split(",")[1]) <= 16


def test_bench_refuses_the_retired_space_mode(tmp_path):
    # time writes both push cost and live-node counts, so space is gone.
    result = run_cli("bench", "--mode", "space", "--grid", "8", "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert "--mode: invalid choice" in result.stderr
    assert "time, svm-time" in result.stderr.replace("'", "")
    assert result.stdout == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["track", "compare-sampling", "bench"])
def test_option_defaults_are_the_library_defaults(command):
    # Parse only: the CLI states no default of its own for a library knob.
    required = {
        "track": ["--config", "c", "--out", "o"],
        "compare-sampling": ["--config", "c", "--n-list", "8", "--seeds", "0", "--out", "o"],
        "bench": ["--mode", "time", "--grid", "8", "--out", "o"],
    }[command]
    args = cli.build_parser().parse_args([command, *required])
    expected = {
        "nu": TrainParams().nu,
        "reg": TrainParams().regularization,
        "iters": TrainParams().iterations,
    }
    if command != "bench":
        expected |= {"threshold": DetectParams().threshold, "em_every": TrackerParams().em_every}
    if command == "track":
        expected |= {"n": TrackerParams().n, "sampler": TrackerParams().sampler}
    assert {key: getattr(args, key) for key in expected} == expected


def test_bench_rejects_bad_grid(tmp_path):
    result = run_cli(
        "bench", "--mode", "time", "--grid", "12,frog", "--out", str(tmp_path / "o")
    )
    assert result.returncode == 2
    assert "--grid" in result.stderr


def test_compare_sampling_covers_every_cell(tmp_path):
    cfg = tmp_path / "easy.json"
    write_easy_config(cfg)
    out = tmp_path / "cmp.csv"
    result = run_cli(
        "compare-sampling", "--config", str(cfg), "--n-list", "8", "--seeds", "0,1",
        "--iters", "60", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,seed,mode,success"
    assert len(lines) == 1 + 2 * 4
    for mode in ("hierarchical", "root", "random", "subsample"):
        assert f"n=8 {mode}:" in result.stdout
    # Each cell parses back to the exact float the library returns.
    expected = bench.compare_samplers(
        io.read_stream_config(str(cfg)),
        [8],
        [0, 1],
        tracker=TrackerParams(n=8),
        train_params=TrainParams(iterations=60),
        detect_params=DetectParams(),
    )
    with open(out, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [
        (int(row["n"]), int(row["seed"]), row["mode"], float(row["success"])) for row in table
    ] == [(row["n"], row["seed"], row["mode"], row["success"]) for row in expected]


def test_bench_space_rows_equal_the_library_rows(tmp_path):
    out = tmp_path / "bench.csv"
    result = run_cli(
        "bench", "--mode", "time", "--grid", "64,200", "--n", "8", "--dim", "4",
        "--seed", "3", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == [field.name for field in fields(bench.StreamBenchRow)]
    wall_clock = header.index("amortized_push_seconds")
    assert len(rows) == 2
    for points, row in zip((64, 200), rows):
        expected = [str(value) for value in astuple(bench.stream_bench(points, 8, 4, 3))]
        del row[wall_clock], expected[wall_clock]
        assert row == expected


@pytest.mark.parametrize(
    "command, flag, value",
    [("track", "--threshold", "nan"), ("compare-sampling", "--threshold", "inf")],
)
def test_nonfinite_threshold_or_bad_radius_is_a_usage_error(tmp_path, command, flag, value):
    extra = ["--n-list", "16", "--seeds", "0"] if command == "compare-sampling" else []
    result = run_cli(
        command, "--config", "drift_stream", *extra, flag, value, "--out", str(tmp_path / "o")
    )
    assert result.returncode == 2
    assert flag[2:] + " must be finite" in result.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args, name",
    [
        (["reduce", "--in", "{feat}", "--n", "2", "--seed", "-1"], "--seed"),
        (["sample", "--snapshot", "{snap}", "--mode", "random", "--features", "{feat}",
          "--seed", "-1"], "--seed"),
        (["sample", "--snapshot", "{snap}", "--mode", "hierarchical", "--seed", "-1"], "--seed"),
        (["sample", "--snapshot", "{snap}", "--mode", "root", "--seed", "-1"], "--seed"),
        (["sample", "--snapshot", "{snap}", "--mode", "subsample", "--features", "{feat}",
          "--seed", "-1"], "--seed"),
        (["bench", "--mode", "time", "--grid", "-5"], "--grid"),
        (["bench", "--mode", "time", "--grid", "8", "--seed", "-1"], "--seed"),
        (["track", "--config", "drift_stream", "--seed", "-1"], "seed"),
        (["track", "--config", "{config}"], "seed"),
        (["compare-sampling", "--config", "drift_stream", "--n-list", "16", "--seeds", "0,-1"],
         "--seeds"),
        (["compare-sampling", "--config", "drift_stream", "--n-list", "-16", "--seeds", "0"],
         "--n-list"),
    ],
    ids=["reduce-seed", "sample-seed", "sample-hierarchical-seed", "sample-root-seed",
         "sample-subsample-seed", "bench-grid", "bench-seed", "track-seed",
         "track-config-seed", "compare-seeds", "compare-n-list"],
)
def test_negative_seeds_and_list_values_are_refused_before_any_output(tmp_path, args, name):
    paths = {key: str(tmp_path / key) for key in ("feat", "snap", "config")}
    block = write_rank2_features(paths["feat"])
    tree = CoresetTree(4, block.dim)
    tree.push_rows(block.values)
    io.write_snapshot(paths["snap"], tree.snapshot())
    (tmp_path / "config").write_text(json.dumps({"dim": 8, "frames": 60, "seed": -1}))
    result = run_cli(*(arg.format(**paths) for arg in args), "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert f"{name} must be" in result.stderr
    assert "seed:" not in result.stdout
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args, name, value",
    [
        (["compare-sampling", "--config", "drift_stream", "--n-list", "16", "--seeds", "0,0"],
         "--seeds", "0"),
        (["compare-sampling", "--config", "drift_stream", "--n-list", "16,8,16", "--seeds", "0"],
         "--n-list", "16"),
        (["bench", "--mode", "time", "--grid", "8,64,64"], "--grid", "64"),
    ],
    ids=["compare-seeds", "compare-n-list", "bench-grid"],
)
def test_repeated_list_entries_are_refused_before_any_output(tmp_path, args, name, value):
    # A repeated seed would run twice, write its rows twice and count
    # twice in the printed means.
    result = run_cli(*args, "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert f"{name} repeats {value};" in result.stderr
    assert result.stdout == ""
    assert not (tmp_path / "o").exists()


def test_missing_seed_is_chosen_and_printed(tmp_path):
    infile = str(tmp_path / "feat.txt")
    write_rank2_features(infile)
    result = run_cli(
        "reduce", "--in", infile, "--n", "2", "--out", str(tmp_path / "o.json")
    )
    assert result.returncode == 0
    assert int(stdout_value(result, "seed")) >= 0
