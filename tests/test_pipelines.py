"""End-to-end segmentation pipelines on generated volumes."""

import inspect
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxseg import attraction, pipelines
from voxseg.attraction import (AttractionParams, FACTOR_FLOOR, ifcm_step,
                               plane_context, slice_context)
from voxseg.errors import ValidationError
from voxseg.fcm import (FcmConfig, gmm_fcm, jm_cost, reorder, update_centers,
                        update_membership)
from voxseg.metrics import defuzzify, evaluate_labels
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import GaConfig, OptResult, PsoConfig, pso_minimize
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import (ALGORITHMS, _probe, ga_ifcm, ifcm, pso_ifcm, pso_ifcm_3d,
                               segment)
from voxseg.volume import SliceRef, extract_slice

CFG = FcmConfig()


def noisy_phantom(dims=(32, 32, 32), shells=4, percent=5.0, seed=0):
    vol, truth = generate_phantom(PhantomSpec(dims=dims, num_shells=shells))
    return add_noise(vol, NoiseSpec("gaussian", percent, seed=seed)), truth


def test_ifcm_zero_weights_reduces_to_plain_clustering():
    for seed in range(2):
        noisy, _ = noisy_phantom(seed=seed)
        ref = SliceRef("z", 16)
        sl = extract_slice(noisy, ref)
        base = gmm_fcm(sl, 4, CFG)
        res = ifcm(sl, AttractionParams(), init=(base.membership, base.centers))
        assert np.array_equal(res.membership, base.membership)
        assert res.iterations == 1  # the converged state is a fixed point
        assert np.array_equal(np.squeeze(res.labels.labels),
                              np.squeeze(defuzzify(base.membership, sl.dims).labels))


@pytest.mark.parametrize("runner", [pso_ifcm, ga_ifcm])
def test_optimised_pipelines_reduce_at_fixed_zero(runner):
    noisy, _ = noisy_phantom(seed=1)
    ref = SliceRef("z", 16)
    sl = extract_slice(noisy, ref)
    base = gmm_fcm(sl, 4, CFG)
    res = runner(sl, 4, fixed=(0.0, 0.0))
    assert np.array_equal(res.membership, base.membership)
    assert (res.feature_weight, res.spatial_weight) == (0.0, 0.0)
    assert res.iterations == 1


def test_volumetric_pipeline_reduces_at_fixed_zero():
    noisy, _ = noisy_phantom(seed=2)
    ref = SliceRef("z", 16)
    base = gmm_fcm(extract_slice(noisy, ref), 4, CFG)
    res = pso_ifcm_3d(noisy, ref, 4, fixed=(0.0, 0.0))
    assert np.array_equal(res.membership, base.membership)
    assert res.iterations == 1
    assert res.labels.dims == (32, 32, 1)


def test_clean_slice_exact_labels():
    vol, truth = generate_phantom(PhantomSpec(dims=(24, 24, 24), num_shells=2))
    ref = SliceRef("z", 12)
    sl = extract_slice(vol, ref)
    base = gmm_fcm(sl, 2, CFG)
    res = ifcm(sl, AttractionParams(feature_weight=0.5, spatial_weight=0.5),
               init=(base.membership, base.centers))
    assert res.labels == extract_slice(truth, ref)


def test_ifcm_requires_init():
    noisy, _ = noisy_phantom()
    sl = extract_slice(noisy, SliceRef("z", 16))
    with pytest.raises(TypeError):
        ifcm(sl, AttractionParams())
    bad_u = np.ones((5, 4)) / 4
    with pytest.raises(ValidationError):
        ifcm(sl, AttractionParams(), init=(bad_u, np.array([1.0, 2.0, 3.0, 4.0])))


def test_ifcm_accepts_fcm_result():
    vol, _ = generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2))
    sl = extract_slice(vol, SliceRef("z", 8))
    base = gmm_fcm(sl, 2, CFG)
    params = AttractionParams(feature_weight=0.5, spatial_weight=0.5)
    a = ifcm(sl, params, base)
    b = ifcm(sl, params, (base.membership, base.centers))
    assert np.array_equal(a.membership, b.membership)
    assert np.array_equal(a.centers, b.centers)


@pytest.mark.parametrize("init", [(1, 2, 3), None, np.ones((256, 2)) / 2],
                         ids=["triple", "none", "array"])
def test_ifcm_rejects_init_that_is_not_a_pair(init):
    vol, _ = generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2))
    sl = extract_slice(vol, SliceRef("z", 8))
    with pytest.raises(ValidationError):
        ifcm(sl, AttractionParams(), init)


def test_converge_rejects_invalid_membership(monkeypatch):
    # the result builder checks the memberships it reports at run time
    vol, _ = generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2))
    sl = extract_slice(vol, SliceRef("z", 8))
    base = gmm_fcm(sl, 2, CFG)
    monkeypatch.setattr("voxseg.pipelines.ifcm_step", lambda ctx, u, centers, params, cfg:
                        (None, 2.0 * u, centers, lambda: 0.0))
    with pytest.raises(ValidationError, match="membership"):
        ifcm(sl, AttractionParams(0.5, 0.5), base)


def test_converge_step_that_reorders_the_centers_aligns_before():
    # a settled fit handed over with its clusters listed high to low: the
    # first step sorts the centers, so settle must compare the memberships
    # in that new order, and then the run has already settled
    vol, _ = generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2))
    sl = extract_slice(add_noise(vol, NoiseSpec("gaussian", 5.0, 0)), SliceRef("z", 8))
    base = gmm_fcm(sl, 2, CFG)
    flipped = (base.membership[:, ::-1], base.centers[::-1])
    params = AttractionParams(0.0, 0.0)
    order, _, centers, _ = ifcm_step(plane_context(sl), *flipped, params, CFG)
    assert np.all(np.diff(centers) > 0)
    assert np.array_equal(reorder(flipped[0], order), base.membership)
    res = ifcm(sl, params, flipped, CFG)
    assert (res.iterations, res.stop_reason) == (1, "converged")
    assert res.labels == ifcm(sl, params, base, CFG).labels


def test_search_never_loses_to_no_attraction():
    # the no-attraction point is planted in the swarm, so the tuned
    # objective can only match or beat it
    noisy, _ = noisy_phantom(dims=(24, 24, 24), seed=3)
    ref = SliceRef("z", 12)
    ctx = slice_context(noisy, ref, 3, 1.5)
    state = gmm_fcm(extract_slice(noisy, ref), 4, CFG)
    h, f = ctx.attraction_terms(state.membership, state.centers, CFG.fuzziness)
    base = (ctx.data[:, None] - state.centers) ** 2

    def fitness(pos):
        factor = np.maximum(1.0 - pos[0] * h - pos[1] * f, FACTOR_FLOOR)
        d2 = base * factor
        u = update_membership(d2, CFG.fuzziness)
        cost = jm_cost(u, d2, CFG.fuzziness)
        update_centers(u, ctx.data, CFG.fuzziness)
        return cost

    res = pso_minimize(fitness, PsoConfig(swarm_size=10, max_iter=5, seed=0),
                       seed_points=[(0.0, 0.0)])
    assert res.value <= fitness(np.zeros(2)) + 1e-12


def test_volumetric_pipeline_deterministic():
    noisy, _ = noisy_phantom(seed=4)
    ref = SliceRef("z", 16)
    pso = PsoConfig(swarm_size=6, max_iter=3, seed=0)
    a = pso_ifcm_3d(noisy, ref, 4, decay=1.5, pso=pso)
    b = pso_ifcm_3d(noisy, ref, 4, decay=1.5, pso=pso)
    assert np.array_equal(a.membership, b.membership)
    assert np.array_equal(a.centers, b.centers)
    assert a.labels == b.labels
    assert (a.feature_weight, a.spatial_weight) == (b.feature_weight, b.spatial_weight)
    assert a.iterations == b.iterations


def test_result_fields_sane():
    noisy, _ = noisy_phantom(seed=5)
    ref = SliceRef("z", 16)
    res = pso_ifcm_3d(noisy, ref, 4, decay=1.5,
                      pso=PsoConfig(swarm_size=6, max_iter=3, seed=0))
    assert 0.0 <= res.feature_weight <= 1.0
    assert 0.0 <= res.spatial_weight <= 1.0
    assert res.iterations >= 1
    assert res.final_cost >= 0.0
    assert res.wall_time > 0.0
    assert res.membership.shape == (32 * 32, 4)
    assert np.all(np.diff(res.centers) >= 0)


def test_probe_steps_variants():
    noisy, _ = noisy_phantom(dims=(24, 24, 24), seed=6)
    ref = SliceRef("z", 12)
    pso = PsoConfig(swarm_size=5, max_iter=2, seed=1)
    one = pso_ifcm_3d(noisy, ref, 4, pso=pso, probe_steps=1)
    deep = pso_ifcm_3d(noisy, ref, 4, pso=pso, probe_steps=3)
    assert one.labels.dims == deep.labels.dims == (24, 24, 1)


@pytest.mark.parametrize("steps", [0, -3])
def test_probe_steps_below_one_rejected(steps):
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    ref = SliceRef("z", 8)
    sl = extract_slice(noisy, ref)
    with pytest.raises(ValidationError, match="probe_steps"):
        pso_ifcm(sl, 4, probe_steps=steps)
    with pytest.raises(ValidationError, match="probe_steps"):
        ga_ifcm(sl, 4, probe_steps=steps)
    with pytest.raises(ValidationError, match="probe_steps"):
        pso_ifcm_3d(noisy, ref, 4, probe_steps=steps)
    for algorithm in ALGORITHMS:
        # one rule for all five, though fcm and fixed-weight ifcm never probe
        with pytest.raises(ValidationError, match="probe_steps"):
            segment(algorithm, noisy, ref, 4, probe_steps=steps)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_given_start_is_the_start_segment_fits(algorithm):
    # the benchmark hands every cell the slice's gmm_fcm fit; it must be the
    # start the pipeline fits itself, in 2-D and through the 3-D context alike
    noisy, _ = noisy_phantom(dims=(16, 16, 16), percent=10.0)
    ref = SliceRef("z", 8)
    settings = (4, CFG, AttractionParams(0.5, 0.5, depth=2), PsoConfig(swarm_size=4, max_iter=2),
                GaConfig(population=4, generations=2))
    start = gmm_fcm(extract_slice(noisy, ref), 4, CFG)
    own = segment(algorithm, noisy, ref, *settings)
    given = segment(algorithm, noisy, ref, *settings, start=start)
    assert given.labels == own.labels
    assert np.array_equal(given.membership, own.membership)
    # the fits run cluster-major; the result is row-major either way
    assert own.membership.flags.c_contiguous and given.membership.flags.c_contiguous
    assert np.array_equal(given.centers, own.centers)
    assert (given.iterations, given.feature_weight, given.spatial_weight, given.final_cost,
            given.stop_reason) == (own.iterations, own.feature_weight, own.spatial_weight,
                                   own.final_cost, own.stop_reason)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_given_start_checked_before_any_search(monkeypatch, algorithm):
    # one rule for ifcm's init and segment's start: a row per voxel, a column
    # per cluster, and plain fcm needs the whole FcmResult
    monkeypatch.setattr(pipelines, "_probe", lambda *args: pytest.fail("a search ran"))
    monkeypatch.setattr(pipelines, "settle", lambda *args: pytest.fail("a loop ran"))
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    ref = SliceRef("z", 8)
    sl = extract_slice(noisy, ref)
    three = gmm_fcm(sl, 3, CFG)
    with pytest.raises(ValidationError, match="3 clusters, expected 4"):
        segment(algorithm, noisy, ref, 4, start=three)
    small, _ = noisy_phantom(dims=(12, 12, 12))
    with pytest.raises(ValidationError, match="match 256 voxels"):
        segment(algorithm, noisy, ref, 4,
                start=gmm_fcm(extract_slice(small, SliceRef("z", 6)), 4, CFG))
    pair = (three.membership, three.centers)
    if algorithm == "fcm":
        with pytest.raises(ValidationError, match="FcmResult"):
            segment(algorithm, noisy, ref, 3, start=pair)


def test_segment_rejects_unknown_algorithm():
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    with pytest.raises(ValidationError, match="unknown algorithm"):
        segment("kmeans", noisy, SliceRef("z", 8), 4)


def test_segment_rejects_more_clusters_than_uint8_labels_carry():
    noisy, _ = noisy_phantom(dims=(24, 24, 24))
    with pytest.raises(ValidationError, match="uint8"):
        segment("fcm", noisy, SliceRef("z", 12), 257, FcmConfig(max_iterations=3))


def test_wall_time_covers_the_start(monkeypatch):
    # each algorithm's clock covers its start and, but for plain fcm, which
    # builds none, its context: both are slowed
    def slow(real):
        def call(*args):
            time.sleep(0.2)
            return real(*args)
        return call

    for name, real in (("gmm_fcm", gmm_fcm), ("plane_context", plane_context),
                       ("slice_context", slice_context)):
        monkeypatch.setattr(pipelines, name, slow(real))
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    for algorithm in ALGORITHMS:
        res = segment(algorithm, noisy, SliceRef("z", 8), 2, FcmConfig(max_iterations=3),
                      AttractionParams(0.5, 0.5), PsoConfig(swarm_size=2, max_iter=1),
                      GaConfig(population=2, generations=1))
        assert res.wall_time >= (0.2 if algorithm == "fcm" else 0.4), algorithm


def test_plain_fcm_builds_no_context(monkeypatch):
    for name in ("plane_context", "slice_context"):
        monkeypatch.setattr(pipelines, name, lambda *args: pytest.fail("a context was built"))
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    ref = SliceRef("z", 8)
    res = segment("fcm", noisy, ref, 4, CFG)
    assert np.array_equal(res.membership, gmm_fcm(extract_slice(noisy, ref), 4, CFG).membership)


def test_entries_take_single_slice_volumes_only(monkeypatch):
    # one type check for every entry, and a volume of several planes fails
    # in its context, before any fit
    monkeypatch.setattr(pipelines, "gmm_fcm", lambda *args: pytest.fail("a fit ran"))
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    sl = extract_slice(noisy, SliceRef("z", 8))
    with pytest.raises(ValidationError, match="cannot segment a PlaneContext"):
        ifcm(plane_context(sl), AttractionParams(), (np.ones((256, 2)) / 2, np.ones(2)))
    with pytest.raises(ValidationError, match="cannot segment a ndarray"):
        pso_ifcm(sl.plane(), 4)
    for runner in (pso_ifcm, ga_ifcm):
        with pytest.raises(ValidationError, match="not a single slice"):
            runner(noisy, 4)


@pytest.mark.parametrize("runner, minimiser, cfg", [
    (pso_ifcm, "pso_minimize", PsoConfig(swarm_size=3, max_iter=2)),
    (ga_ifcm, "ga_minimize", GaConfig(population=3, generations=2))], ids=["pso", "ga"])
def test_search_runs_in_the_callers_box(monkeypatch, runner, minimiser, cfg):
    # the minimiser gets the config the caller handed over, box and all; a
    # box that leaves [0, 1]^2 fails at its first candidate
    boxes = []
    real = getattr(pipelines, minimiser)

    def spy(func, opt_cfg, seed_points=()):
        boxes.append(opt_cfg.bounds)
        return real(func, opt_cfg, seed_points)

    monkeypatch.setattr(pipelines, minimiser, spy)
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    sl = extract_slice(noisy, SliceRef("z", 8))
    box = ((0.25, 0.75), (0.25, 0.75))
    res = runner(sl, 2, CFG, None, replace(cfg, bounds=box))
    assert boxes == [box]
    assert 0.25 <= res.feature_weight <= 0.75 and 0.25 <= res.spatial_weight <= 0.75
    with pytest.raises(ValidationError, match="feature_weight must be in"):
        runner(sl, 2, CFG, None, replace(cfg, bounds=((1.5, 2.0), (0.0, 1.0))))


def spearman(a, b):
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    d2 = ((ra - rb) ** 2).sum()
    n = len(a)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def test_error_grows_with_noise():
    vol, truth = generate_phantom(PhantomSpec(dims=(32, 32, 32), num_shells=4))
    ref = SliceRef("z", 16)
    truth_sl = extract_slice(truth, ref)
    fixed_scores, tuned_scores = [], []
    for percent in (1.0, 5.0, 9.0, 13.0, 20.0):
        noisy = add_noise(vol, NoiseSpec("gaussian", percent, seed=0))
        sl = extract_slice(noisy, ref)
        base = gmm_fcm(sl, 4, CFG)
        res = ifcm(sl, AttractionParams(feature_weight=0.5, spatial_weight=0.5),
                   init=(base.membership, base.centers))
        fixed_scores.append(evaluate_labels(res.labels, truth_sl, 4)["mean_incs"])
        if percent >= 5.0:
            # the weight search saturates both attraction strengths, which
            # buys large mid-range gains at the price of a small error floor
            # near zero noise; the ordering therefore starts at 5%
            res3 = pso_ifcm_3d(noisy, ref, 4, decay=1.5,
                               pso=PsoConfig(swarm_size=6, max_iter=3, seed=0))
            tuned_scores.append(evaluate_labels(res3.labels, truth_sl, 4)["mean_incs"])
    assert all(a <= b for a, b in zip(fixed_scores, fixed_scores[1:]))
    assert spearman(np.arange(len(tuned_scores)), np.array(tuned_scores)) >= 0.8


def test_stop_reason_names_why_the_loop_ended():
    # acceptance protocol, z:48: the tuned 3-D run alternates between two
    # states until the cap; plain fcm and fixed-weight ifcm settle
    noisy, _ = noisy_phantom(dims=(96, 96, 96), percent=10.0)
    ref = SliceRef("z", 48)
    params = AttractionParams(0.5, 0.5, level=2, depth=3, decay=1.5)
    tuned = segment("3dpifcm", noisy, ref, 4, CFG, params,
                    PsoConfig(swarm_size=20, max_iter=10, seed=0))
    assert (tuned.iterations, tuned.stop_reason) == (150, "cycle")
    for algorithm in ("fcm", "ifcm"):
        res = segment(algorithm, noisy, ref, 4, CFG, params)
        assert res.stop_reason == "converged" and res.iterations < 150
    capped = segment("3dpifcm", noisy, ref, 4, FcmConfig(max_iterations=2), params,
                     fixed=(1.0, 1.0))
    assert (capped.iterations, capped.stop_reason) == (2, "cap")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("algorithm, spec",
                         [("ifcmpso", "z:48"), ("3dpifcm", "x:0"), ("3dpifcm", "x:40")])
def test_labels_hold_when_the_cap_moves_by_one(algorithm, spec):
    # acceptance protocol: a settled run ignores one more allowed step.  The
    # Picard step does not settle at the searched weights, so today 3,511
    # (z:48 ifcmpso, both runs "cycle"), 671 (x:0 3dpifcm, both "cap") and
    # 12 (x:40 3dpifcm, a plane holding all four labels, both "cycle") of
    # the 9,216 labels move
    noisy, _ = noisy_phantom(dims=(96, 96, 96), percent=10.0)
    params = AttractionParams(0.5, 0.5, level=2, depth=3, decay=1.5)
    labels = [segment(algorithm, noisy, SliceRef.parse(spec), 4,
                      FcmConfig(max_iterations=cap), params,
                      PsoConfig(swarm_size=20, max_iter=10, seed=0),
                      GaConfig(population=20, generations=10, seed=0)).labels
              for cap in (150, 151)]
    assert labels[0] == labels[1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_labels_hold_when_the_start_moves_by_one_ulp():
    # acceptance protocol, x:0 3dpifcm: a settled run forgets a one-ulp
    # nudge of its start's memberships.  Today 475 of the 9,216 labels move
    # (z:48 and x:40 move none, so they pin nothing)
    noisy, _ = noisy_phantom(dims=(96, 96, 96), percent=10.0)
    ref = SliceRef("x", 0)
    start = gmm_fcm(extract_slice(noisy, ref), 4, CFG)
    nudged = start._replace(membership=np.nextafter(start.membership, 2.0))
    labels = [segment("3dpifcm", noisy, ref, 4, CFG,
                      AttractionParams(0.5, 0.5, level=2, depth=3, decay=1.5),
                      PsoConfig(swarm_size=20, max_iter=10, seed=0), start=given).labels
              for given in (start, nudged)]
    assert labels[0] == labels[1]


@pytest.mark.parametrize("three_d", [False, True], ids=["2d", "3d"])
def test_probe_cost_never_rises_with_either_weight(three_d):
    # with one probe step the cost is J_m at the optimal memberships for
    # distances that shrink as either weight grows, so it cannot rise
    noisy, _ = noisy_phantom(dims=(24, 24, 24), percent=10.0, seed=7)
    ref = SliceRef("z", 12)
    params = AttractionParams(depth=3, decay=1.5)
    ctx = (slice_context(noisy, ref, 3, 1.5) if three_d
           else plane_context(extract_slice(noisy, ref)))
    start = gmm_fcm(extract_slice(noisy, ref), 4, CFG)
    propagate = _probe(ctx, start.membership, start.centers, CFG, params, 1)
    grid = np.linspace(0.0, 1.0, 11)
    for other in (0.0, 0.5, 1.0):
        for costs in ([propagate(w, other)[2]() for w in grid],
                      [propagate(other, w)[2]() for w in grid]):
            assert all(b <= a + 1e-12 * abs(a) for a, b in zip(costs, costs[1:]))


@pytest.mark.parametrize("steps", [1, 3])
def test_tuned_segment_converges_from_the_winning_probe(monkeypatch, steps):
    # the loop starts from the probe re-run at the minimiser's pick: one
    # probe beyond the search's evaluations, then the loop's iterations; a
    # step's cost is computed once per evaluation and once for settle's
    # result, never for the re-run probe
    counts = {"steps": 0, "evaluations": 0, "costs": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    def search(func, cfg, seed_points=()):
        return pso_minimize(counted("evaluations", func), cfg, seed_points)

    monkeypatch.setattr(pipelines, "ifcm_step", counted("steps", ifcm_step))
    monkeypatch.setattr(pipelines, "pso_minimize", search)
    monkeypatch.setattr(attraction, "jm_cost", counted("costs", jm_cost))
    noisy, _ = noisy_phantom(dims=(24, 24, 24), seed=6)
    ref = SliceRef("z", 12)
    res = pso_ifcm_3d(noisy, ref, 4, pso=PsoConfig(swarm_size=5, max_iter=2, seed=1),
                      probe_steps=steps)
    assert counts["steps"] == (counts["evaluations"] + 1) * steps + res.iterations
    assert counts["costs"] == counts["evaluations"] + 1
    monkeypatch.undo()
    # the same bits as probing the winner again and converging from there
    ctx = slice_context(noisy, ref, 3, 1.1)
    start = gmm_fcm(extract_slice(noisy, ref), 4, CFG)
    weights = (res.feature_weight, res.spatial_weight)
    probed = _probe(ctx, start.membership, start.centers, CFG, AttractionParams(),
                    steps)(*weights)
    again = pso_ifcm_3d(noisy, ref, 4, 3, 1.1, fixed=weights, init=probed[:2])
    assert np.array_equal(res.membership, again.membership)
    assert np.array_equal(res.centers, again.centers)
    assert res.iterations == again.iterations


def test_minimiser_pick_is_taken_though_never_evaluated(monkeypatch):
    # the minimiser owns the pick: the loop starts from the probe re-run
    # there, whether or not the search evaluated that position
    def stray(func, cfg, seed_points=()):
        value = func(np.zeros(2))
        return OptResult(np.array([0.5, 0.5]), value, np.array([value]))

    monkeypatch.setattr(pipelines, "pso_minimize", stray)
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    ref = SliceRef("z", 8)
    res = pso_ifcm_3d(noisy, ref, 2)
    assert (res.feature_weight, res.spatial_weight) == (0.5, 0.5)
    ctx = slice_context(noisy, ref, 3, 1.1)
    start = gmm_fcm(extract_slice(noisy, ref), 2, CFG)
    probed = _probe(ctx, start.membership, start.centers, CFG, AttractionParams(), 1)(0.5, 0.5)
    again = pso_ifcm_3d(noisy, ref, 2, 3, 1.1, fixed=(0.5, 0.5), init=probed[:2])
    assert np.array_equal(res.labels.labels, again.labels.labels)
    assert (res.stop_reason, res.iterations) == (again.stop_reason, again.iterations)


@pytest.mark.parametrize("three_d", [False, True], ids=["2d", "3d"])
def test_probe_runs_ifcm_step_from_the_start(three_d):
    # the probe's first step reuses the start's terms, yet gives the same
    # bits as ifcm_step gathering them itself; another candidate first
    # shows that the shared terms stay unchanged
    noisy, _ = noisy_phantom(dims=(24, 24, 24), percent=10.0, seed=7)
    ref = SliceRef("z", 12)
    params = AttractionParams(0.6, 0.3, depth=3, decay=1.5)
    ctx = (slice_context(noisy, ref, 3, 1.5) if three_d
           else plane_context(extract_slice(noisy, ref)))
    start = gmm_fcm(extract_slice(noisy, ref), 4, CFG)
    for steps in (1, 3):
        propagate = _probe(ctx, start.membership, start.centers, CFG, params, steps)
        propagate(0.2, 0.9)
        probed = propagate(0.6, 0.3)
        stepped = (start.membership, start.centers)
        for _ in range(steps):
            stepped = ifcm_step(ctx, *stepped[:2], params, CFG)[1:]
        assert np.array_equal(probed[0], stepped[0])
        assert np.array_equal(probed[1], stepped[1])
        assert probed[2]() == stepped[2]()


def test_geometry_defaults_are_attraction_params():
    # the contexts and the 3-D entry default their level, depth and decay to
    # AttractionParams'; this guards that the two stay in step.  The factory
    # names are the context classes, so they have no defaults of their own.
    assert attraction.plane_context is attraction.PlaneContext
    assert attraction.slice_context is attraction.SliceContext
    owner = AttractionParams()
    checked = [(entry.__name__, name)
               for entry in (attraction.PlaneContext, attraction.SliceContext,
                             pipelines.pso_ifcm_3d)
               for name, param in inspect.signature(entry).parameters.items()
               if name in ("level", "depth", "decay")
               and param.default == getattr(owner, name)]
    assert checked == [("PlaneContext", "level"), ("SliceContext", "depth"),
                       ("SliceContext", "decay"), ("pso_ifcm_3d", "depth"),
                       ("pso_ifcm_3d", "decay")]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    incs, feature_weight, spatial_weight = map(float, capsys.readouterr().out.split())
    assert 0.0 <= incs <= 1.0
    assert 0.0 <= feature_weight <= 1.0 and 0.0 <= spatial_weight <= 1.0
