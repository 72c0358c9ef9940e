"""Whole-system acceptance checks, one numbered criterion per test.

Every test prints a single [PASS]/[FAIL] scoreboard line on the real
stderr before asserting, so a full run always ends with one line per
criterion even when some of them are red.  Numbers frozen here were
measured against independent replays (hand arithmetic, raw numpy SVD,
or re-simulation of the exact merge schedule) before being pinned.
"""

import subprocess
import sys
import time

import numpy as np

import _scoreboard
from corestream import (
    CoresetTree,
    DataBlock,
    DetectParams,
    KalmanState,
    RowTag,
    SampleSet,
    TrackerParams,
    TrainParams,
    collapse,
    decisions,
    dist_sq,
    em_fit,
    hierarchical_sample,
    kalman_predict,
    kalman_update,
    measure_epsilon,
    random_orthonormal,
    random_sample,
    reduce_block,
    train_binary,
    train_one_class,
)
from corestream import io
from corestream.bench import compare_samplers, summarize_comparison
from corestream.blocks import ENERGY_FLOOR
from corestream.svm import (
    monotone_descent,
    one_class_objective,
    one_class_subgradient,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num:02d} ({name}): {detail}"
    _scoreboard.record(line)
    print(line, file=sys.__stderr__, flush=True)


def _as_sample(rows: np.ndarray) -> SampleSet:
    block = DataBlock(rows)
    tags = tuple(RowTag(level=-1, row=i) for i in range(block.rows))
    return SampleSet(rows=block, tags=tags, n=block.rows, points_seen=block.rows)


def test_criterion_01_concat_additivity():
    # Projected energy of stacked blocks must equal the sum of the
    # parts for every orthonormal probe.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 25))
        a = DataBlock(rng.normal(size=(int(rng.integers(1, 41)), d)))
        b = DataBlock(rng.normal(size=(int(rng.integers(1, 41)), d)))
        both = DataBlock(np.vstack([a.values, b.values]))
        for _ in range(50):
            y = random_orthonormal(
                d, int(rng.integers(1, d + 1)), seed=int(rng.integers(0, 1 << 31))
            )
            lhs = dist_sq(both, y)
            rhs = dist_sq(a, y) + dist_sq(b, y)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-12
    _report(1, "concat additivity", ok, f"worst relative gap {worst:.2e} over 5000 probes")
    assert ok


def test_criterion_02_reduce_exactness_on_low_rank():
    # A block whose rank fits the budget must compress losslessly.
    rng = np.random.default_rng(22)
    worst_eps, worst_c = 0.0, 0.0
    for i in range(50):
        rows = int(rng.integers(2, 65))
        d = int(rng.integers(2, 33))
        r = int(rng.integers(1, min(rows, d) + 1))
        m = rng.normal(size=(rows, r)) @ rng.normal(size=(r, d))
        n = int(rng.integers(r, rows + 1))
        k = int(rng.integers(1, d))
        red = reduce_block(DataBlock(m), n)
        worst_c = max(worst_c, red.c)
        worst_eps = max(worst_eps, measure_epsilon(DataBlock(m), red, k=k, trials=100, seed=i))
    ok = worst_eps <= 1e-8 and worst_c <= 1e-16
    _report(
        2,
        "lossless reduce at low rank",
        ok,
        f"worst epsilon {worst_eps:.2e} (<= 1e-8), worst c {worst_c:.2e} (<= 1e-16)",
    )
    assert ok


def test_criterion_03_sandwich_bound():
    # 0 <= dist_sq(original) - dist_sq(summary) <= c for every probe.
    rng = np.random.default_rng(33)
    worst_under, worst_over = 0.0, 0.0
    ok = True
    for i in range(50):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(3, 25))
        block = DataBlock(rng.normal(size=(2 * n, d)))
        red = reduce_block(block, n)
        for t in range(30):
            y = random_orthonormal(d, int(rng.integers(1, d + 1)), seed=3000 + 100 * i + t)
            hi = dist_sq(block, y)
            diff = hi - dist_sq(red.block, y)
            slack = 1e-10 * (1.0 + hi)
            worst_under = max(worst_under, -diff)
            worst_over = max(worst_over, diff - red.c)
            ok = ok and (diff >= -slack) and (diff <= red.c + slack)
    _report(
        3,
        "sandwich bound",
        ok,
        f"worst undershoot {worst_under:.2e}, worst excess over c {worst_over:.2e}, 1500 probes",
    )
    assert ok


def test_criterion_04_live_node_counter():
    # After every push the live node count is the popcount of leaves
    # seen, and the high-water mark (including the instant both merge
    # partners coexist) never exceeds bit_length(leaves).
    rng = np.random.default_rng(44)
    tree = CoresetTree(8, 4)
    observed = []
    for row in rng.normal(size=(4096 * 8, 4)):
        tree.push_point(row)
        observed.append(tree.live_node_count())
    live = np.array(observed)
    leaves_at = np.arange(1, len(live) + 1) // 8
    pop = np.array([int(l).bit_count() for l in leaves_at])
    counter_ok = np.array_equal(live, pop)
    mask = leaves_at >= 1
    bound = np.array([int(l).bit_length() for l in leaves_at[mask]])
    running_ok = bool(np.all(np.maximum.accumulate(live)[mask] <= bound))
    peak_ok = tree.max_live_nodes <= int(4096).bit_length()
    ok = counter_ok and running_ok and peak_ok
    _report(
        4,
        "live node counter",
        ok,
        f"popcount match {counter_ok}, running bound {running_ok}, "
        f"peak {tree.max_live_nodes} <= {int(4096).bit_length()} over 4096 leaves",
    )
    assert ok


def test_criterion_05_amortized_merge_rate():
    # Total merges after L leaves is exactly L - popcount(L); the mean
    # per-push merge rate stays within one percent of 1/n.
    rng = np.random.default_rng(55)
    tree = CoresetTree(8, 4)
    observed = []
    for row in rng.normal(size=(4096 * 8, 4)):
        tree.push_point(row)
        observed.append(tree.merge_count)
    cum = np.array(observed)
    leaves_at = np.arange(1, len(cum) + 1) // 8
    expect = leaves_at - np.array([int(l).bit_count() for l in leaves_at])
    identity_ok = np.array_equal(cum, expect)
    mean_merges = tree.merge_count / tree.points_seen
    rate_ok = mean_merges < (1.0 / 8) * 1.01
    ok = identity_ok and rate_ok
    _report(
        5,
        "amortized merge rate",
        ok,
        f"identity {identity_ok}, mean merges/push {mean_merges:.6f} < {(1.0 / 8) * 1.01:.6f}",
    )
    assert ok


def test_criterion_06_power_of_two_bursts():
    # The push that completes leaf 2^q performs exactly q merges, one
    # per level from the bottom up.
    rng = np.random.default_rng(66)
    tree = CoresetTree(4, 3)
    targets = {4 * (1 << q) - 1: q for q in range(1, 11)}
    got = {}
    for i in range(4 * 1024):
        rep = tree.push_point(rng.normal(size=3))
        if i in targets:
            got[targets[i]] = rep.merged_levels
    ok = all(got[q] == tuple(range(q)) for q in range(1, 11))
    _report(
        6,
        "power-of-two merge bursts",
        ok,
        f"levels at leaf 2^q matched tuple(range(q)) for q=1..10: {ok}",
    )
    assert ok


def _replay_collapse_c(rows: np.ndarray, n: int) -> float:
    """Re-run the merge schedule with plain numpy SVDs; return the
    collapsed additive constant.  Independent of the tree code."""
    stack: list[list] = []  # [level, matrix, c]
    i = 0
    while i + n <= len(rows):
        stack.append([0, rows[i : i + n].copy(), 0.0])
        while len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
            newer = stack.pop()
            older = stack.pop()
            cat = np.vstack([older[1], newer[1]])
            s, vt = np.linalg.svd(cat, full_matrices=False)[1:]
            stack.append(
                [older[0] + 1, s[:n, None] * vt[:n], older[2] + newer[2] + float(np.sum(s[n:] ** 2))]
            )
        i += n
    acc: list | None = None
    for _, mat, c in stack:
        if acc is None:
            acc = [mat, c]
            continue
        cat = np.vstack([acc[0], mat])
        cc = acc[1] + c
        if len(cat) > n:
            s, vt = np.linalg.svd(cat, full_matrices=False)[1:]
            cat = s[:n, None] * vt[:n]
            cc += float(np.sum(s[n:] ** 2))
        acc = [cat, cc]
    pend = rows[i:]
    if len(pend):
        cat = np.vstack([acc[0], pend]) if acc else pend.copy()
        cc = acc[1] if acc else 0.0
        if len(cat) > n:
            s, vt = np.linalg.svd(cat, full_matrices=False)[1:]
            cat = s[:n, None] * vt[:n]
            cc += float(np.sum(s[n:] ** 2))
        acc = [cat, cc]
    return acc[1]


def test_criterion_07_root_collapse_fidelity():
    # Low-rank streams collapse exactly for every leaf count up to 256;
    # noisy streams stay inside the bound implied by an independently
    # replayed additive constant.
    worst_clean = 0.0
    for leaves in range(1, 257):
        rng = np.random.default_rng(1000 + leaves)
        basis = np.linalg.qr(rng.normal(size=(12, 4)))[0][:, :4].T
        rows = rng.normal(size=(leaves * 8, 4)) @ basis
        tree = CoresetTree(8, 12)
        for row in rows:
            tree.push_point(row)
        eps = measure_epsilon(DataBlock(rows), collapse(tree.snapshot()), k=3, trials=20, seed=leaves)
        worst_clean = max(worst_clean, eps)
    clean_ok = worst_clean <= 1e-8

    noisy_ok = True
    noisy_bits = []
    for seed, leaves in ((0, 37), (1, 128), (2, 200)):
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(12, 4)))[0][:, :4].T
        pts = leaves * 8 + seed * 3
        rows = rng.normal(size=(pts, 4)) @ basis + 1e-3 * rng.normal(size=(pts, 12))
        tree = CoresetTree(8, 12)
        for row in rows:
            tree.push_point(row)
        root = collapse(tree.snapshot())
        c_replay = _replay_collapse_c(rows, 8)
        c_ok = abs(root.c - c_replay) <= 1e-9 * max(c_replay, 1e-30)
        block = DataBlock(rows)
        worst_eps, min_energy = 0.0, np.inf
        for t in range(40):
            y = random_orthonormal(12, 12 - 3, seed=500 + t)
            d_orig = dist_sq(block, y)
            if d_orig < ENERGY_FLOOR:
                continue
            worst_eps = max(worst_eps, (d_orig - dist_sq(root.block, y)) / d_orig)
            min_energy = min(min_energy, d_orig)
        bound = c_replay / min_energy
        noisy_ok = noisy_ok and c_ok and worst_eps <= bound * (1 + 1e-9)
        noisy_bits.append(f"L={leaves} eps {worst_eps:.2e} <= bound {bound:.2e}")
    ok = clean_ok and noisy_ok
    _report(
        7,
        "root collapse fidelity",
        ok,
        f"clean worst eps {worst_clean:.2e} over leaves 1..256; " + "; ".join(noisy_bits),
    )
    assert ok


def test_criterion_08_scalar_growth_bound():
    # The per-merge inflation factor (1 + eps/q)^q is controlled by
    # exp(eps) for all eps, and by the product (1 + eps/3)(1 + 3 eps)
    # for small eps.  Two tighter candidate bounds are genuinely false,
    # so their witnesses are pinned here to document why this form is
    # the one asserted: the additive variant 1 + eps/3*(1 + 3 eps)
    # already loses to Bernoulli at q=1 for any small eps, and the
    # exp(eps/6) variant loses at q=1 once eps is moderate.
    qs = np.arange(1, 65, dtype=float)
    exp_ok = all(
        (1 + e / q) ** q <= np.exp(e) * (1 + 1e-12) for e in np.logspace(-4, 0, 25) for q in qs
    )
    prod_ok = all(
        (1 + e / q) ** q < (1 + e / 3) * (1 + 3 * e)
        for e in np.logspace(-4, np.log10(0.0999), 20)
        for q in qs
    )
    witness_add = 1.05 > 1 + 0.05 / 3 * (1 + 3 * 0.05)  # additive variant, q=1, eps=0.05
    witness_exp6 = 1.5 > np.exp(0.5 / 6)  # exp(eps/6) variant, q=1, eps=0.5
    ok = exp_ok and prod_ok and witness_add and witness_exp6
    _report(
        8,
        "scalar growth bound",
        ok,
        f"(1+e/q)^q <= exp(e): {exp_ok}; < (1+e/3)(1+3e) for e<0.1: {prod_ok}; "
        f"counterexamples to the two tighter variants hold: {witness_add and witness_exp6}",
    )
    assert ok


def test_criterion_09_sample_bound_and_top_node():
    # The hierarchical sample never exceeds 2n rows and always carries
    # every row of the newest live node.
    rng = np.random.default_rng(99)
    bound_ok, top_ok = True, True
    for _ in range(500):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 21))
        pts = int(rng.integers(1, 401))
        tree = CoresetTree(n, d)
        for row in rng.normal(size=(pts, d)):
            tree.push_point(row)
        view = tree.snapshot()
        sample = hierarchical_sample(view)
        bound_ok = bound_ok and sample.rows.rows <= 2 * n
        if view.nodes:
            top = view.nodes[-1]
            want = {(top.level, j) for j in range(top.summary.block.rows)}
            got = {(t.level, t.row) for t in sample.tags}
            top_ok = top_ok and want <= got
    ok = bound_ok and top_ok
    _report(
        9,
        "sample bound",
        ok,
        f"rows <= 2n in all 500 streams: {bound_ok}; newest node fully present: {top_ok}",
    )
    assert ok


def test_criterion_10_classifier():
    # Separable data separates perfectly, descent never lets the
    # recorded objective rise, and the subgradient matches central
    # finite differences away from hinge kinks.
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    pos = 3.0 * direction + 0.3 * rng.standard_normal((25, 5))
    neg = -3.0 * direction + 0.3 * rng.standard_normal((25, 5))
    model = train_binary(_as_sample(pos), _as_sample(neg), TrainParams())
    accuracy = float(np.mean(np.concatenate([decisions(model, pos) > 0, decisions(model, neg) < 0])))

    rows = np.random.default_rng(10).normal(size=(60, 6)) + 2.0
    _, path = monotone_descent(
        np.zeros(6),
        lambda w: one_class_objective(w, rows, 1e-3),
        lambda w: one_class_subgradient(w, rows, 1e-3),
        120,
        1.0,
    )
    worst_rise = max(b - a for a, b in zip(path, path[1:]))

    fd_rows = np.random.default_rng(7).normal(size=(40, 6)) + 2.5 * np.eye(6)[0]
    prng = np.random.default_rng(4)
    h = 1e-6
    worst_fd = 0.0
    for _ in range(10):
        w = prng.normal(scale=0.5, size=6)
        g = one_class_subgradient(w, fd_rows, 1e-3)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (
                one_class_objective(w + e, fd_rows, 1e-3)
                - one_class_objective(w - e, fd_rows, 1e-3)
            ) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - g[i]))

    ok = accuracy == 1.0 and worst_rise <= 1e-9 and worst_fd <= 1e-5
    _report(
        10,
        "classifier",
        ok,
        f"separable accuracy {accuracy:.3f}, worst objective rise {worst_rise:.1e}, "
        f"worst finite-difference gap {worst_fd:.1e}",
    )
    assert ok


def _cv_track(t_len: int, seed: int, r_std: float = 2.0, q_vel: float = 0.05):
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


def test_criterion_11_kalman_em():
    # Likelihood climbs monotonically, a known measurement covariance
    # is recovered, and filtering beats the raw measurements.
    worst_drop = 0.0
    for seed in range(20):
        _, zs = _cv_track(80, seed)
        _, path = em_fit(zs, 30)
        for a, b in zip(path, path[1:]):
            worst_drop = max(worst_drop, a - b)
    mono_ok = worst_drop <= 0.0

    rng = np.random.default_rng(42)
    pos = np.zeros(2)
    vel = np.array([1.0, -0.5])
    zs = []
    for _ in range(500):
        zs.append(pos + 2.0 * rng.standard_normal(2))
        pos = pos + vel
    fitted, _ = em_fit(np.array(zs), 30)
    r_err = float(np.max(np.abs(np.diag(fitted.R) - 4.0) / 4.0))
    r_ok = r_err <= 0.20

    wins = 0
    for seed in range(20):
        truth, zs = _cv_track(120, seed, 2.0, 0.05)
        noise, _ = em_fit(zs[:40], 15)
        state = KalmanState(x=np.concatenate([zs[0], zs[1] - zs[0]]), P=np.eye(4))
        est = [state.position.copy()]
        for z in zs[1:]:
            state = kalman_update(kalman_predict(state, noise), z, noise)
            est.append(state.position.copy())
        est = np.array(est)
        rf = float(np.sqrt(np.mean(np.sum((est - truth) ** 2, axis=1))))
        rm = float(np.sqrt(np.mean(np.sum((zs - truth) ** 2, axis=1))))
        wins += rf <= rm
    rmse_ok = wins == 20

    ok = mono_ok and r_ok and rmse_ok
    _report(
        11,
        "kalman em",
        ok,
        f"worst log-likelihood drop {worst_drop:.1e}, R diag error {r_err:.1%} (<= 20%), "
        f"filter beats measurements {wins}/20",
    )
    assert ok


def test_criterion_12_training_time_flatness():
    # Training time from bounded samples stays flat across three
    # decades of stream length while full-data training grows.  The
    # solver step is kept conservative so the line search accepts every
    # proposal and per-iteration work is identical across grid points;
    # all sample solves run out of one shared buffer so allocation
    # placement cannot skew the comparison.  The slope is fitted per
    # decade and the median of three measurement passes is judged.
    t0 = time.perf_counter()
    params = TrainParams(iterations=100, step_size=0.05)
    grid = (1000, 10000, 100000)
    sizes, mats = [], []
    for p in grid:
        tree = CoresetTree(256, 256)
        tree.push_rows(np.random.default_rng(0).standard_normal((p, 256)))
        s = hierarchical_sample(tree.snapshot())
        sizes.append(s.rows.rows)
        mats.append(np.array(s.rows.values))
    arena = np.empty((max(sizes), 256))

    def solve(i: int) -> float:
        rows = arena[: sizes[i]]
        rows[:] = mats[i]
        a = time.perf_counter()
        monotone_descent(
            np.zeros(256),
            lambda w: one_class_objective(w, rows, params.regularization),
            lambda w: one_class_subgradient(w, rows, params.regularization),
            params.iterations,
            params.step_size,
        )
        return time.perf_counter() - a

    ratios, last_ms = [], None
    for _trial in range(3):
        best = [float("inf")] * 3
        for i in range(3):
            solve(i)  # warmup
        for _round in range(10):
            for i in range(3):
                best[i] = min(best[i], solve(i))
        t = np.array(best)
        x = np.array([3.0, 4.0, 5.0])  # decades of stream length
        slope = float(np.sum((x - x.mean()) * (t - t.mean())) / np.sum((x - x.mean()) ** 2))
        ratios.append(abs(slope) / (0.05 * float(t.mean())))
        last_ms = [f"{v * 1e3:.2f}" for v in t]
    median_ratio = sorted(ratios)[1]
    flat_ok = median_ratio < 1.0

    full_t = []
    rng = np.random.default_rng(0)
    for p in grid:
        full = random_sample(rng.normal(size=(p, 256)), p, 0)
        a = time.perf_counter()
        train_one_class(full, params)
        full_t.append(time.perf_counter() - a)
    grow_ok = full_t[0] < full_t[1] < full_t[2]
    wall = time.perf_counter() - t0
    ok = flat_ok and grow_ok and wall < 120.0
    _report(
        12,
        "training time flatness",
        ok,
        f"sample ms {last_ms}, median slope/(5% of mean) {median_ratio:.2f} (< 1), "
        f"full ms {[f'{v * 1e3:.0f}' for v in full_t]} increasing {grow_ok}, wall {wall:.0f}s",
    )
    assert ok


def test_criterion_13_sampler_ordering():
    # Paired drifting streams: the hierarchical sampler leads. Gated:
    # h >= subsample per seed in at least 8 of 10, h >= random per seed
    # in at least 8 of 10, mean h >= the better baseline mean, and mean
    # h > the single collapsed summary (root). Subsample vs random is
    # only reported: both draw n rows evenly over the same raw history
    # and nothing promises an order between them (on unused seeds
    # 10-109, subsample >= random in 47/100, mean gap -0.006).
    rows = compare_samplers(
        io.read_stream_config("drift_stream"),
        [16],
        list(range(10)),
        tracker=TrackerParams(n=16, em_every=2),
        train_params=TrainParams(iterations=120),
        detect_params=DetectParams(threshold=0.0),
    )
    means = summarize_comparison(rows)
    by = {m: [r["success"] for r in rows if r["mode"] == m] for m in
          ("hierarchical", "subsample", "random", "root")}
    h, s, r = (means[(16, m)] for m in ("hierarchical", "subsample", "random"))
    root = means[(16, "root")]
    hs_seeds = sum(a >= b for a, b in zip(by["hierarchical"], by["subsample"]))
    hr_seeds = sum(a >= b for a, b in zip(by["hierarchical"], by["random"]))
    sr_seeds = sum(a >= b for a, b in zip(by["subsample"], by["random"]))
    mean_ok = h >= max(s, r)
    hs_ok = hs_seeds >= 8
    hr_ok = hr_seeds >= 8
    root_ok = h > root
    ok = mean_ok and hs_ok and hr_ok and root_ok
    _report(
        13,
        "sampler ordering",
        ok,
        f"means h={h:.3f} s={s:.3f} r={r:.3f} root={root:.3f}; h>=max(s,r) {mean_ok}; "
        f"h>=s in {hs_seeds}/10 (need 8); h>=r in {hr_seeds}/10 (need 8); h>root {root_ok}; "
        f"reported only: s>=r in {sr_seeds}/10, mean s-r {s - r:+.3f}",
    )
    assert ok


def test_criterion_14_end_to_end_determinism(tmp_path):
    # The same seeded tracking command twice gives byte-identical
    # console output and byte-identical result files.
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "corestream", "track",
                "--config", "drift_stream", "--n", "16", "--em-every", "2",
                "--iters", "120", "--threshold", "0.0", "--seed", "0",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((proc.stdout, out.read_bytes()))
    ok = outs[0][0] == outs[1][0] and outs[0][1] == outs[1][1]
    _report(
        14,
        "end-to-end determinism",
        ok,
        f"stdout identical {outs[0][0] == outs[1][0]}, "
        f"files identical {outs[0][1] == outs[1][1]} ({len(outs[0][1])} bytes)",
    )
    assert ok
