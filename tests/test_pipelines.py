"""End-to-end segmentation pipelines on generated volumes."""

import numpy as np
import pytest

from voxseg.attraction import (AttractionParams, FACTOR_FLOOR, plane_context,
                               slice_context)
from voxseg.errors import ValidationError
from voxseg.fcm import (FcmConfig, gmm_fcm, jm_cost, update_centers,
                        update_membership)
from voxseg.metrics import defuzzify, evaluate_labels
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import PsoConfig, pso_minimize
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import (_initial_state, _probe, ga_ifcm, ifcm, pso_ifcm,
                               pso_ifcm_3d, segment)
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
    monkeypatch.setattr("voxseg.pipelines.ifcm_step",
                        lambda ctx, u, centers, params, cfg: (2.0 * u, centers, 0.0))
    with pytest.raises(ValidationError, match="membership"):
        ifcm(sl, AttractionParams(0.5, 0.5), base)


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


def test_segment_rejects_unknown_algorithm():
    noisy, _ = noisy_phantom(dims=(16, 16, 16))
    with pytest.raises(ValidationError, match="unknown algorithm"):
        segment("kmeans", noisy, SliceRef("z", 8), 4)


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


@pytest.mark.parametrize("three_d", [False, True], ids=["2d", "3d"])
def test_probe_cost_never_rises_with_either_weight(three_d):
    # with one probe step the cost is J_m at the optimal memberships for
    # distances that shrink as either weight grows, so it cannot rise
    noisy, _ = noisy_phantom(dims=(24, 24, 24), percent=10.0, seed=7)
    ref = SliceRef("z", 12)
    params = AttractionParams(depth=3, decay=1.5)
    ctx = (slice_context(noisy, ref, 3, 1.5) if three_d
           else plane_context(extract_slice(noisy, ref)))
    start = _initial_state(ctx, 4, CFG)
    propagate = _probe(ctx, start.membership, start.centers, CFG, params, 1)
    grid = np.linspace(0.0, 1.0, 11)
    for other in (0.0, 0.5, 1.0):
        for costs in ([propagate(w, other)[2] for w in grid],
                      [propagate(other, w)[2] for w in grid]):
            assert all(b <= a + 1e-12 * abs(a) for a, b in zip(costs, costs[1:]))
