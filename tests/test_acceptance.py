"""Acceptance gate: eleven end-to-end checks of the shipped behaviour.

Every test measures the real pipeline at a pinned protocol, prints one
pass/fail line with the observed values, and asserts the criterion plus
its wall-clock budget.  Protocol constants live at the top of the file;
changing them invalidates the recorded baselines.
"""

import csv
import time

import numpy as np

from voxseg.attraction import (AttractionParams, build_shell_table,
                               decay_weights, plane_context, slice_context)
from voxseg.bench import BenchConfig, run_benchmark, run_sweep
from voxseg.cli import main
from voxseg.fcm import (FcmConfig, gmm_fcm, jm_cost, update_centers,
                        update_membership)
from voxseg.metrics import (defuzzify, error_counts, incorrect_segmentation,
                            over_segmentation, relative_improvement,
                            under_segmentation)
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import PsoConfig, pso_minimize
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import ifcm, pso_ifcm, pso_ifcm_3d
from voxseg.volume import LabelVolume, SliceRef, Volume, extract_slice

# benchmark protocol shared by the phantom-level criteria
DIMS = (96, 96, 96)
SHELLS = 4
SEEDS = (0, 1, 2, 3, 4)
DEPTH = 3
DECAY = 1.5
SWARM = 20
OPT_ITERS = 10
THREADS = 4


def bench_protocol(**overrides) -> BenchConfig:
    base = dict(algorithms=("3dpifcm",), noise_kinds=("gaussian",),
                noise_percents=(10.0,), seeds=SEEDS, dims=DIMS, shells=SHELLS,
                slice_spec="mid", depth=DEPTH, decay=DECAY, swarm_size=SWARM,
                pso_max_iter=OPT_ITERS, population=SWARM,
                generations=OPT_ITERS, probe_steps=1)
    base.update(overrides)
    return BenchConfig(**base)


def mean_incs(rows, algorithm: str, percent: float) -> float:
    vals = [float(r["IncS"]) for r in rows
            if r["algorithm"] == algorithm and r["cluster"] == "mean"
            and r["status"] == "ok"
            and r["noise_percent"] == format(percent, ".10g")]
    assert vals, f"no usable rows for {algorithm} at {percent}%"
    return float(np.mean(vals))


def test_criterion_01_decay_weight_values(criteria):
    w = decay_weights(1.1, 3)
    flat = decay_weights(100.0, 3)
    reps = 200
    started = time.perf_counter()
    for _ in range(reps):
        decay_weights(1.1, 3)
    per_call = (time.perf_counter() - started) / reps
    ok = (np.all(np.abs(w - (0.63, 0.25, 0.10)) <= 0.01)
          and np.all(np.abs(flat - 1.0 / 3.0) <= 0.01)
          and per_call < 1e-3)
    ok = criteria.add(1, bool(ok),
                      f"decay_weights(1.1,3)={np.round(w, 4).tolist()} vs "
                      f"(0.63,0.25,0.10) +-0.01; (100,3)={np.round(flat, 4).tolist()} "
                      f"vs uniform +-0.01; {per_call * 1e6:.1f} us/call (< 1 ms)")
    assert ok


def test_criterion_02_shell_neighbor_counts(criteria):
    table = build_shell_table(3)
    ok = table.counts == (6, 12, 8) and table.cumulative == (6, 18, 26)
    ok = criteria.add(2, ok,
                      f"shell sizes {table.counts}, cumulative {table.cumulative} "
                      f"== (6, 18, 26) exactly")
    assert ok


def test_criterion_03_zero_weight_reduction(criteria):
    started = time.perf_counter()
    cfg = FcmConfig(2.0, 0.01, 150)
    zero = AttractionParams(feature_weight=0.0, spatial_weight=0.0)
    agree = []
    for seed in (0, 1, 2):
        vol, _ = generate_phantom(PhantomSpec(dims=(64, 64, 64), num_shells=4))
        noisy = add_noise(vol, NoiseSpec("gaussian", 5.0, seed))
        ref = SliceRef("z", 32)
        plane = extract_slice(noisy, ref)
        base = gmm_fcm(plane, 4, cfg)
        expect = defuzzify(base.membership, plane.dims).labels
        runs = (
            ifcm(plane, zero, init=(base.membership, base.centers), cfg=cfg),
            pso_ifcm(plane, 4, cfg, AttractionParams(), fixed=(0.0, 0.0)),
            pso_ifcm_3d(noisy, ref, 4, DEPTH, DECAY, cfg, fixed=(0.0, 0.0)),
        )
        agree.append(all(np.array_equal(r.labels.labels, expect) for r in runs))
    elapsed = time.perf_counter() - started
    ok = all(agree) and elapsed < 120
    ok = criteria.add(3, ok,
                      f"weights (0,0) reproduce the plain-FCM labels exactly on "
                      f"3 seeded 5%-noise 64^3 phantoms; {elapsed:.1f}s (< 120 s)")
    assert ok


def test_criterion_04_low_error_at_ten_percent(criteria):
    started = time.perf_counter()
    rows, _ = run_benchmark(bench_protocol(), threads=THREADS)
    mean = mean_incs(rows, "3dpifcm", 10.0)
    elapsed = time.perf_counter() - started
    ok = mean < 0.01 and elapsed < 600
    ok = criteria.add(4, ok,
                      f"volumetric pipeline at 10% gaussian, 96^3, 5 seeds: "
                      f"mean IncS {mean:.5f} < 0.01; {elapsed:.0f}s (< 600 s)")
    assert ok


def test_criterion_05_error_rises_past_ten_percent(criteria):
    started = time.perf_counter()
    algorithms = ("fcm", "ifcm", "ifcmpso", "gaifcm", "3dpifcm")
    rows, _ = run_benchmark(bench_protocol(algorithms=algorithms,
                                           noise_percents=(10.0, 20.0)),
                            threads=THREADS)
    pairs = {alg: (mean_incs(rows, alg, 10.0), mean_incs(rows, alg, 20.0))
             for alg in algorithms}
    elapsed = time.perf_counter() - started
    ok = all(m20 > m10 for m10, m20 in pairs.values()) and elapsed < 1200
    detail = ", ".join(f"{alg} {m10:.3f}->{m20:.3f}"
                       for alg, (m10, m20) in pairs.items())
    ok = criteria.add(5, ok,
                      f"mean IncS strictly rises from 10% to 20% noise for "
                      f"every algorithm ({detail}); {elapsed:.0f}s (< 1200 s)")
    assert ok


def test_criterion_06_volumetric_beats_plain_fcm(criteria):
    started = time.perf_counter()
    rows, _ = run_benchmark(bench_protocol(algorithms=("fcm", "3dpifcm"),
                                           noise_percents=(5.0, 9.0)),
                            threads=THREADS)
    checks = []
    gains = {}
    for percent in (5.0, 9.0):
        ours = mean_incs(rows, "3dpifcm", percent)
        other = mean_incs(rows, "fcm", percent)
        gains[percent] = (other, ours, relative_improvement(other, ours))
        checks.append(ours <= other and gains[percent][2] > 0.0)
    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 1800
    detail = "; ".join(f"{p:g}%: fcm {o:.4f} vs ours {u:.4f} (+{g:.0f}%)"
                       for p, (o, u, g) in gains.items())
    ok = criteria.add(6, ok,
                      f"lower mean IncS than plain FCM with positive relative "
                      f"improvement at {detail}; {elapsed:.0f}s (< 1800 s)")
    assert ok


def test_criterion_07_swarm_sanity_on_sphere(criteria):
    started = time.perf_counter()
    cfg = PsoConfig(swarm_size=50, max_iter=200,
                    bounds=((-5.0, 5.0), (-5.0, 5.0)), seed=0)
    res = pso_minimize(lambda p: float(p[0] ** 2 + p[1] ** 2), cfg)
    elapsed = time.perf_counter() - started
    trace = np.asarray(res.trace)
    monotone = bool(np.all(np.diff(trace) <= 0.0))
    ok = res.value < 1e-4 and monotone and elapsed < 5
    ok = criteria.add(7, ok,
                      f"sphere minimum {res.value:.3g} < 1e-4 with swarm 50 / "
                      f"200 iterations, best-value trace non-increasing; "
                      f"{elapsed:.2f}s (< 5 s)")
    assert ok


def test_criterion_08_metric_hand_case(criteria):
    truth = LabelVolume((12, 1, 1), np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                                             dtype=np.uint8).reshape(12, 1, 1))
    pred = LabelVolume((12, 1, 1), np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0],
                                            dtype=np.uint8).reshape(12, 1, 1))
    counts = error_counts(pred, truth, 1)
    ratios = (under_segmentation(counts), over_segmentation(counts),
              incorrect_segmentation(counts))
    gain = relative_improvement(0.2, 0.1)
    ok = ratios == (0.25, 0.25, 0.25) and gain == 50.0
    ok = criteria.add(8, ok,
                      f"12-voxel hand case: (UnS, OS, IncS) = {ratios} == "
                      f"(0.25, 0.25, 0.25); improvement(0.2, 0.1) = {gain:g}% "
                      f"== 50%; exact")
    assert ok


def test_criterion_09_invariant_fuzz(criteria):
    started = time.perf_counter()
    rng = np.random.default_rng(20260822)
    contexts = 0

    # membership / center algebra on random distance matrices
    for _ in range(6000):
        n = int(rng.integers(4, 40))
        c = int(rng.integers(2, 5))
        m = float(rng.uniform(1.2, 3.0))
        d2 = rng.uniform(1e-6, 50.0, (n, c))
        if rng.random() < 0.1:
            d2[rng.integers(0, n), rng.integers(0, c)] = 0.0
        u = update_membership(d2, m)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        assert np.max(np.abs(u.sum(axis=1) - 1.0)) <= 1e-9
        data = rng.uniform(0.0, 255.0, n)
        centers, _, _ = update_centers(u, data, m)
        um = u ** m
        brute = np.sort((um * data[:, None]).sum(axis=0) / um.sum(axis=0))
        assert np.max(np.abs(centers - brute)) <= 1e-9
        contexts += 1

    # decay weight vectors over the whole parameter box
    for _ in range(2000):
        w = decay_weights(float(10 ** rng.uniform(-2, 2)),
                          int(rng.integers(2, 6)))
        assert np.all(w > 0.0) and np.all(np.diff(w) <= 1e-15)
        assert abs(w.sum() - 1.0) <= 1e-9
        contexts += 1

    # attraction terms stay inside [0, 1] on random planes
    for _ in range(1500):
        nx, ny = (int(v) for v in rng.integers(3, 8, 2))
        c = int(rng.integers(2, 5))
        ctx = plane_context(rng.uniform(0.0, 255.0, (nx, ny)),
                            level=int(rng.choice((2, 3))))
        u = rng.dirichlet(np.ones(c), size=nx * ny)
        h, f = ctx.attraction_terms(u, np.sort(rng.uniform(0, 255, c)), 2.0)
        assert np.all(h >= 0.0) and np.all(h <= 1.0)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        contexts += 1

    # and on random shell contexts reaching into small volumes
    for _ in range(500):
        dims = tuple(int(v) for v in rng.integers(3, 7, 3))
        vol = Volume(dims, rng.uniform(0, 255, dims).astype(np.float32), 255.0)
        ref = SliceRef("z", int(rng.integers(0, dims[2])))
        ctx = slice_context(vol, ref, int(rng.integers(2, 6)),
                            float(10 ** rng.uniform(-2, 2)))
        c = int(rng.integers(2, 5))
        u = rng.dirichlet(np.ones(c), size=dims[0] * dims[1])
        h, f = ctx.attraction_terms(u, np.sort(rng.uniform(0, 255, c)), 2.0)
        assert np.all(h >= 0.0) and np.all(h <= 1.0)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        contexts += 1

    # alternating updates never increase the clustering cost
    descents = 0
    for seed in range(50):
        r = np.random.default_rng(seed)
        data = np.concatenate([r.normal(40, 6, 80), r.normal(120, 8, 80),
                               r.normal(200, 7, 40)])
        centers = np.sort(r.uniform(0.0, 255.0, 3))
        u = update_membership((data[:, None] - centers) ** 2, 2.0)
        prev = np.inf
        for _ in range(20):
            centers, u, _ = update_centers(u, data, 2.0)
            d2 = (data[:, None] - centers) ** 2
            u = update_membership(d2, 2.0)
            cost = jm_cost(u, d2, 2.0)
            assert cost <= prev + 1e-9
            prev = cost
        descents += 1

    elapsed = time.perf_counter() - started
    ok = contexts == 10000 and descents == 50 and elapsed < 300
    ok = criteria.add(9, ok,
                      f"{contexts} fuzzed contexts: row sums within 1e-9, "
                      f"terms and weights in bounds, centers match the "
                      f"weighted-mean rule; {descents} seeded runs descend "
                      f"monotonically; {elapsed:.0f}s (< 300 s)")
    assert ok


def test_criterion_10_shell_decay_sweep_shape(criteria):
    started = time.perf_counter()
    grid = (0.01, 0.1, 0.2, 1.0, 10.0, 100.0)
    cfg = bench_protocol(noise_percents=(5.0,), seeds=(0, 1, 2))
    rows = run_sweep(cfg, "h", grid, "3dpifcm", threads=THREADS)
    means = [float(r["mean_incs"]) for r in rows]
    low = min(means)
    argmin = [h for h, v in zip(grid, means) if v <= low + 1e-12]
    interior = [h for h in argmin if h not in (grid[0], grid[-1])]
    elapsed = time.perf_counter() - started
    ok = bool(interior) and means[-1] > low and elapsed < 1800
    curve = ", ".join(f"h={h:g}: {v:.5f}" for h, v in zip(grid, means))
    ok = criteria.add(10, ok,
                      f"5%-noise sweep minimum {low:.5f} attained at interior "
                      f"h={interior} (argmin set {argmin}, h=100 gives "
                      f"{means[-1]:.5f}); curve [{curve}]; {elapsed:.0f}s (< 1800 s)")
    assert ok


def test_criterion_11_benchmark_determinism(criteria, tmp_path):
    started = time.perf_counter()

    def run(tag: str):
        report = tmp_path / f"report_{tag}.csv"
        compare = tmp_path / f"compare_{tag}.csv"
        code = main(["bench", "--algorithms", "fcm,3dpifcm",
                     "--percents", "15", "--seeds", "0,1",
                     "--dims", "16,16,16", "--shells", "2",
                     "--swarm", "4", "--opt-iters", "2",
                     "--report", str(report), "--compare", str(compare),
                     "--quiet"])
        assert code == 0
        return report, compare

    def strip_wall_time(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time_ms")
        return "\n".join(",".join(v for i, v in enumerate(row) if i != drop)
                         for row in rows)

    report_a, compare_a = run("a")
    report_b, compare_b = run("b")
    reports_equal = strip_wall_time(report_a) == strip_wall_time(report_b)
    compares_equal = compare_a.read_bytes() == compare_b.read_bytes()
    elapsed = time.perf_counter() - started
    ok = reports_equal and compares_equal
    ok = criteria.add(11, ok,
                      f"two identical bench invocations: report CSVs byte-equal "
                      f"after dropping wall_time_ms ({reports_equal}), comparison "
                      f"CSVs byte-equal ({compares_equal}); {elapsed:.1f}s")
    assert ok
