"""The four seeded workloads: inputs, timed units and output checks.

Every workload is a closed loop with one caller.  ``prepare`` makes the
inputs from the seed, ``warm`` runs a short piece of the real work, and
``units`` lists the units of one cycle.  ``timed`` runs one unit and
records its timings; ``check`` verifies that unit's outputs afterwards,
outside every timed region and with no wrapper installed.  corestream
is reached only through module attributes at call time, so the tracer
sees the same calls the program makes.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import statistics
import time
from dataclasses import replace
from importlib import resources

import numpy as np

from corestream import blocks, cli, sampling, svm, tracking
from corestream import io as cio
from corestream import tree as ctree

_perf = time.perf_counter

# Relative roundoff allowed on the sandwich bound, as in acceptance
# criterion 3: slack = SLACK * (1 + energy of the probe).
SLACK = 1e-10
PROBES = 3


class Tally:
    """Operations attempted and failed, and one record per timed round.

    A round is one run of one unit.  Its record holds the wall seconds,
    the rows it pushed into a tree, its steps (consecutive pieces that
    together cover the round, in order) and the service time of each of
    its operations.  Every round of a unit repeats the same work, so
    the k-th step or operation of one round matches the k-th of another.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds: list[tuple[int, float, int, list[float], list[float]]] = []
        self.checkpoint_ms: list[float] = []
        self.errors: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def round(self, unit: int, seconds: float, rows: int, steps_ms, ops_ms) -> None:
        self.rounds.append((unit, seconds, rows, list(steps_ms), list(ops_ms)))

    @property
    def ops_ms(self) -> list[float]:
        return [t for r in self.rounds for t in r[4]]

    @property
    def busy_s(self) -> float:
        return sum(r[1] for r in self.rounds)

    def _best(self, field: int) -> tuple[list[np.ndarray], int]:
        """Per unit, the fastest time of each step or operation over rounds."""
        by_unit: dict[int, list] = {}
        for record in self.rounds:
            by_unit.setdefault(record[0], []).append(record)
        best, rows = [], 0
        for records in by_unit.values():
            same = [r[field] for r in records if len(r[field]) == len(records[0][field])]
            best.append(np.min(np.array(same), axis=0))
            rows += records[0][2]
        return best, rows

    def best_rows_per_s(self) -> float:
        """Rows of one round per unit over the sum of their fastest steps."""
        best, rows = self._best(3)
        return rows / (sum(float(b.sum()) for b in best) / 1e3)

    def best_op_p50_ms(self) -> float:
        """Median over operations of each operation's fastest time."""
        best, _ = self._best(4)
        return float(np.median(np.concatenate(best)))


def decaying_rows(rng: np.random.Generator, count: int, dim: int, decay: float) -> np.ndarray:
    """Rows whose singular values fall off as decay**j in random directions."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (rng.standard_normal((count, dim)) * decay ** np.arange(dim)) @ basis.T


def _probes(rng: np.random.Generator, raw: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Seeded orthonormal probes with the raw rows' projected energy on each."""
    dim = raw.shape[1]
    out = []
    for seed in rng.integers(0, 2**31, size=PROBES):
        y = blocks.random_orthonormal(dim, max(1, dim // 2), int(seed))
        proj = raw @ y
        out.append((y, float(np.sum(proj * proj))))
    return out


def _sandwich_problem(probes, summary) -> str | None:
    """Check 0 <= dist_sq(raw, Y) - dist_sq(summary, Y) <= c on every probe."""
    for y, hi in probes:
        diff = hi - blocks.dist_sq(summary.block, y)
        slack = SLACK * (1.0 + hi)
        if not -slack <= diff <= summary.c + slack:
            return f"sandwich bound broken: diff {diff!r}, c {summary.c!r}"
    return None


def _counter_problem(view, rows: int) -> str | None:
    leaves = rows // view.n
    if view.points_seen != rows or view.leaves_seen != leaves:
        return f"counted {view.points_seen} rows / {view.leaves_seen} leaves, pushed {rows}"
    if view.merge_count != leaves - bin(leaves).count("1"):
        return f"merge_count {view.merge_count} for {leaves} leaves"
    return None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def views_identical(a, b) -> bool:
    """Every counter, span, constant and stored value agrees bit for bit."""
    counters = ("n", "dim", "points_seen", "leaves_seen", "merge_count", "max_live_nodes")
    if any(getattr(a, k) != getattr(b, k) for k in counters) or len(a.nodes) != len(b.nodes):
        return False
    for x, y in zip(a.nodes, b.nodes):
        if (x.level, x.span, x.summary.source_rows) != (y.level, y.span, y.summary.source_rows):
            return False
        if not _same_bits(x.summary.c, y.summary.c):
            return False
        if not _same_bits(x.summary.block.values, y.summary.block.values):
            return False
    return _same_bits(a.pending, b.pending)


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


class Ingest:
    """`corestream tree-build` on a binary feature file, called in-process.

    One unit is one CLI call.  The first call's outputs are verified in
    full; every later call must write a byte-identical snapshot.
    """

    def __init__(self, work, n: int, dim: int, leaves: int, pending: int, decay: float | None):
        self.n, self.dim = n, dim
        self.rows = n * leaves + pending
        self.decay = decay
        self.features = work / "features.cstk"
        self.warm_features = work / "warm.cstk"
        self.snapshot = work / "tree.json"
        self.telemetry = work / "telemetry.csv"
        self.reference: bytes | None = None
        self.rel_loss = float("nan")

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        if self.decay is None:
            raw = rng.standard_normal((self.rows, self.dim))
        else:
            raw = decaying_rows(rng, self.rows, self.dim, self.decay)
        cio.write_features(str(self.features), blocks.DataBlock(raw), binary=True)
        warm = blocks.DataBlock(raw[: 4 * self.n + 5])
        cio.write_features(str(self.warm_features), warm, binary=True)
        self.raw = raw
        self.energy = float(np.sum(raw * raw))
        self.probes = _probes(rng, raw)

    def _call(self, features) -> tuple[int, str]:
        argv = [
            "tree-build", "--in", str(features), "--n", str(self.n),
            "--snapshot-out", str(self.snapshot), "--telemetry-out", str(self.telemetry),
        ]
        err = stdio.StringIO()
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def warm(self) -> None:
        code, err = self._call(self.warm_features)
        if code != 0:
            raise RuntimeError(f"warm-up tree-build failed: {err}")

    def units(self) -> list[int]:
        return [0]

    def timed(self, unit: int, tally: Tally):
        start = _perf()
        outcome = self._call(self.features)
        elapsed = _perf() - start
        tally.round(unit, elapsed, self.rows, [elapsed * 1e3], [elapsed * 1e3])
        return outcome

    def check(self, unit: int, outcome, tally: Tally) -> None:
        code, err = outcome
        if code != 0:
            tally.op(False, f"tree-build exit {code}: {err}")
            return
        data = self.snapshot.read_bytes()
        if self.reference is not None:
            tally.op(data == self.reference, "snapshot differs from the first call's")
            return
        problem = self._verify()
        if problem is None:
            self.reference = data
        tally.op(problem is None, problem or "")

    def _verify(self) -> str | None:
        try:
            view = cio.read_snapshot(str(self.snapshot))
        except ValueError as exc:
            return f"read_snapshot failed: {exc}"
        problem = _counter_problem(view, self.rows)
        if problem:
            return problem
        with open(self.telemetry, encoding="ascii") as fh:
            lines = sum(1 for _ in fh)
        if lines != self.rows + 1:
            return f"telemetry has {lines} lines for {self.rows} pushes"
        root = ctree.collapse(view)
        self.rel_loss = root.c / self.energy
        return _sandwich_problem(self.probes, root)

    def report(self, tally: Tally) -> dict:
        out = {"call_samples": (len(tally.rounds), "count")}
        # Gaussian rows at dim <= n compress losslessly; c is roundoff there.
        if self.decay is not None:
            out["summary_rel_loss"] = (self.rel_loss, "frac")
        return out


class Track:
    """`track_stream` over several seeded drift streams, back to back.

    One unit is one stream.  Frames go in through a generator that
    stamps each pull, so a frame's service time is the gap between two
    pulls, measured outside the program.  Frames are both the steps and
    the operations of a round.
    """

    def __init__(self, work, streams: int, frames: int | None, n: int, iters: int):
        raw = resources.files("corestream").joinpath("configs/drift_stream.json").read_text()
        self.config = tracking.config_from_dict(json.loads(raw))
        if frames is not None:
            self.config = replace(self.config, frames=frames)
        self.count = streams
        self.tracker = tracking.TrackerParams(n=n, sampler="hierarchical", em_every=2)
        self.train = svm.TrainParams(iterations=iters)
        self.detect = tracking.DetectParams(threshold=0.0)
        self.reference: dict[int, tuple] = {}
        self.success: dict[int, float] = {}

    def prepare(self, seed: int) -> None:
        seeds = np.random.SeedSequence(seed).generate_state(self.count)
        self.streams = []
        for s in seeds:
            cfg = replace(self.config, seed=int(s) % 2**31)
            self.streams.append((cfg, tracking.generate_stream(cfg)))

    def _track(self, cfg, frames):
        return tracking.track_stream(
            frames, cfg, tracker=self.tracker, train_params=self.train, detect_params=self.detect
        )

    def warm(self) -> None:
        cfg, frames = self.streams[0]
        self._track(cfg, frames[: 4 * self.tracker.n])

    def units(self) -> list[int]:
        return list(range(self.count))

    def timed(self, unit: int, tally: Tally):
        cfg, frames = self.streams[unit]
        stamps: list[float] = []

        def feed():
            for frame in frames:
                stamps.append(_perf())
                yield frame
            stamps.append(_perf())

        start = _perf()
        run = self._track(cfg, feed())
        elapsed = _perf() - start
        post = run.records[run.bootstrap_frames :]
        rows = run.bootstrap_frames * (1 + cfg.jitter_copies)
        rows += sum(1 for r in post if r.chosen >= 0)
        frames = (np.diff(stamps) * 1e3).tolist()
        tally.round(unit, elapsed, rows, frames, frames)
        return run

    def check(self, unit: int, run, tally: Tally) -> None:
        cfg, frames = self.streams[unit]
        candidates = 1 + cfg.distractor_count
        keys = tuple(
            (r.index, r.chosen, r.model_points, r.correct, r.estimate, repr(r.score))
            for r in run.records
        )
        reference = self.reference.setdefault(unit, keys)
        self.success.setdefault(unit, run.success_rate)
        if len(keys) != len(frames):
            for _ in frames:
                tally.op(False, f"{len(keys)} records for {len(frames)} frames")
            return
        for i, r in enumerate(run.records):
            if i < run.bootstrap_frames:
                ok = r.chosen == frames[i].truth_index
            else:
                ok = r.model_points <= r.index and -1 <= r.chosen < candidates
            same = keys[i] == reference[i]
            tally.op(ok and same, f"frame {r.index}: bad record or differs from first pass")

    def report(self, tally: Tally) -> dict:
        frames = tally.ops_ms
        return {
            "frames_per_s": (len(frames) / tally.busy_s, "1/s"),
            "frame_p50_ms": (pct(frames, 50), "ms"),
            "frame_p99_ms": (pct(frames, 99), "ms"),
            "frame_samples": (len(frames), "count"),
            "track_success": (statistics.fmean(self.success.values()), "frac"),
        }


class QueryMix:
    """Reads beside writes on one tree: one unit is one whole session.

    After every completed leaf the session takes snapshot() plus
    hierarchical_sample; every ROOT_EVERY leaves, snapshot() plus
    root_sample, which collapses the whole tree; every CHECKPOINT_EVERY
    leaves, a snapshot() plus write_snapshot / read_snapshot round trip.
    A step is one leaf's pushes together with the reads that follow it;
    the operations are the queries.
    """

    ROOT_EVERY = 8
    CHECKPOINT_EVERY = 64

    def __init__(self, work, n: int, dim: int, leaves: int, pending: int, decay: float):
        self.n, self.dim = n, dim
        self.rows = n * leaves + pending
        self.decay = decay
        self.path = work / "checkpoint.json"
        self.rel_loss = float("nan")

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.raw = decaying_rows(rng, self.rows, self.dim, self.decay)
        self.energy = float(np.sum(self.raw * self.raw))
        self.probes = _probes(rng, self.raw)

    def _session(self, rows: np.ndarray, queries: list[float], saves: list[float],
                 steps: list[float]):
        tree = ctree.CoresetTree(self.n, self.dim)
        reads: list[tuple[str, int]] = []
        checkpoints = []
        path = str(self.path)
        # Checkpoints land half a leaf after every CHECKPOINT_EVERY-th
        # leaf, so pending rows go through the round trip too.
        span, half = self.n * self.CHECKPOINT_EVERY, self.n // 2
        leaves = pushed = 0
        last = _perf()
        for row in rows:
            leaf = tree.push_point(row).leaf_formed
            pushed += 1
            if pushed > span and pushed % span == half:
                start = _perf()
                view = tree.snapshot()
                cio.write_snapshot(path, view)
                back = cio.read_snapshot(path)
                saves.append((_perf() - start) * 1e3)
                checkpoints.append((view, back))
            if not leaf:
                continue
            leaves += 1
            start = _perf()
            got = sampling.hierarchical_sample(tree.snapshot())
            queries.append((_perf() - start) * 1e3)
            reads.append(("hierarchical_sample", got.rows.rows))
            if leaves % self.ROOT_EVERY == 0:
                start = _perf()
                got = sampling.root_sample(tree.snapshot())
                queries.append((_perf() - start) * 1e3)
                reads.append(("root_sample", got.rows.rows))
            now = _perf()
            steps.append((now - last) * 1e3)
            last = now
        steps.append((_perf() - last) * 1e3)
        return tree, reads, checkpoints

    def warm(self) -> None:
        self._session(self.raw, [], [], [])

    def units(self) -> list[int]:
        return [0]

    def timed(self, unit: int, tally: Tally):
        queries: list[float] = []
        steps: list[float] = []
        start = _perf()
        outcome = self._session(self.raw, queries, tally.checkpoint_ms, steps)
        tally.round(unit, _perf() - start, self.rows, steps, queries)
        return outcome

    def check(self, unit: int, outcome, tally: Tally) -> None:
        tree, reads, checkpoints = outcome
        for kind, rows in reads:
            limit = 2 * self.n if kind == "hierarchical_sample" else self.n
            tally.op(rows <= limit, f"{kind} returned {rows} rows, limit {limit}")
        for view, back in checkpoints:
            tally.op(views_identical(view, back), "checkpoint round trip changed the tree")
        view = tree.snapshot()
        problem = _counter_problem(view, self.rows)
        if problem is None:
            root = ctree.collapse(view)
            self.rel_loss = root.c / self.energy
            problem = _sandwich_problem(self.probes, root)
        tally.op(problem is None, problem or "")

    def report(self, tally: Tally) -> dict:
        queries = tally.ops_ms
        return {
            "query_p50_ms": (pct(queries, 50), "ms"),
            "query_p99_ms": (pct(queries, 99), "ms"),
            "query_samples": (len(queries), "count"),
            "checkpoint_ms": (statistics.median(tally.checkpoint_ms), "ms"),
            "checkpoint_samples": (len(tally.checkpoint_ms), "count"),
            "summary_rel_loss": (self.rel_loss, "frac"),
        }


# Sizes: "full" is what the benchmark measures; "tiny" only exercises
# every path for the smoke test.  Leaf counts are never powers of two
# and every stream ends with pending rows, so several nodes stay live
# and collapse has real merging to do.
SIZES = {
    "full": {
        "ingest-narrow": (Ingest, dict(n=64, dim=16, leaves=13, pending=17, decay=None)),
        "ingest-wide": (Ingest, dict(n=128, dim=256, leaves=24, pending=37, decay=0.97)),
        "track-drift": (Track, dict(streams=4, frames=None, n=16, iters=120)),
        "query-mix": (QueryMix, dict(n=32, dim=64, leaves=200, pending=13, decay=0.97)),
    },
    "tiny": {
        "ingest-narrow": (Ingest, dict(n=8, dim=4, leaves=11, pending=3, decay=None)),
        "ingest-wide": (Ingest, dict(n=8, dim=16, leaves=11, pending=3, decay=0.97)),
        "track-drift": (Track, dict(streams=2, frames=48, n=4, iters=20)),
        "query-mix": (QueryMix, dict(n=4, dim=8, leaves=70, pending=3, decay=0.97)),
    },
}

WORKLOADS = tuple(SIZES["full"])


def build(name: str, size: str, work):
    cls, params = SIZES[size][name]
    return cls(work, **params)
