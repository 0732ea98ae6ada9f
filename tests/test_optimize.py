"""Optimizer behaviour on analytic objectives."""

import numpy as np
import pytest

from voxseg import optimize
from voxseg.errors import ValidationError
from voxseg.optimize import GaConfig, PsoConfig, ga_minimize, pso_minimize

BOX = ((-5.0, 5.0), (-5.0, 5.0))


def sphere(p):
    return float((np.asarray(p) ** 2).sum())


@pytest.mark.parametrize("seed", range(5))
def test_pso_sphere(seed):
    res = pso_minimize(sphere, PsoConfig(bounds=BOX, swarm_size=50,
                                         max_iter=200, seed=seed))
    assert res.value < 1e-4
    assert np.all(np.abs(res.position) < 0.1)


def test_pso_trace_non_increasing():
    res = pso_minimize(sphere, PsoConfig(bounds=BOX, swarm_size=20,
                                         max_iter=50, seed=1))
    assert np.all(np.diff(res.trace) <= 0)
    assert res.value == res.trace[-1]
    assert len(res.trace) <= 51


def test_pso_respects_bounds():
    # optimum far outside the box: best position must sit on the edge
    shifted = lambda p: sphere(np.asarray(p) - 10.0)
    res = pso_minimize(shifted, PsoConfig(bounds=((0.0, 1.0), (0.0, 1.0)),
                                          swarm_size=30, max_iter=80, seed=2))
    assert np.all(res.position >= 0.0) and np.all(res.position <= 1.0)
    assert np.allclose(res.position, [1.0, 1.0], atol=1e-6)


def test_pso_deterministic():
    cfg = PsoConfig(bounds=BOX, swarm_size=25, max_iter=40, seed=3)
    a = pso_minimize(sphere, cfg)
    b = pso_minimize(sphere, cfg)
    assert np.array_equal(a.position, b.position)
    assert a.value == b.value and np.array_equal(a.trace, b.trace)
    c = pso_minimize(sphere, PsoConfig(bounds=BOX, swarm_size=25,
                                       max_iter=40, seed=4))
    assert not np.array_equal(a.position, c.position)


def test_pso_seed_point_cannot_be_beaten_on_sphere():
    res = pso_minimize(sphere, PsoConfig(bounds=BOX, swarm_size=10,
                                         max_iter=5, seed=5),
                       seed_points=[(0.0, 0.0)])
    assert res.value == 0.0
    assert np.array_equal(res.position, [0.0, 0.0])
    assert res.trace[0] == 0.0


def test_pso_seed_points_clipped():
    res = pso_minimize(sphere, PsoConfig(bounds=((0.5, 1.0), (0.5, 1.0)),
                                         swarm_size=8, max_iter=10, seed=6),
                       seed_points=[(-3.0, 9.0)])
    assert np.all(res.position >= 0.5) and np.all(res.position <= 1.0)


def test_pso_config_validation():
    with pytest.raises(ValidationError):
        PsoConfig(bounds=((1.0, 0.0),))  # inverted interval
    with pytest.raises(ValidationError):
        PsoConfig(swarm_size=1)
    with pytest.raises(ValidationError):
        PsoConfig(max_iter=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            PsoConfig(bounds=((0.0, bad), (0.0, 1.0)))
        with pytest.raises(ValidationError):
            PsoConfig(bounds=((-bad, 1.0),))


@pytest.mark.parametrize("seed", range(5))
def test_ga_sphere(seed):
    res = ga_minimize(sphere, GaConfig(bounds=BOX, population=40,
                                       generations=80, seed=seed))
    assert res.value < 1e-2


def test_ga_trace_non_increasing():
    res = ga_minimize(sphere, GaConfig(bounds=BOX, population=30,
                                       generations=40, seed=1))
    assert np.all(np.diff(res.trace) <= 0)
    assert res.value == res.trace[-1]


def test_ga_deterministic():
    cfg = GaConfig(bounds=BOX, population=20, generations=30, seed=2)
    a = ga_minimize(sphere, cfg)
    b = ga_minimize(sphere, cfg)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.trace, b.trace)


def test_ga_respects_bounds():
    shifted = lambda p: sphere(np.asarray(p) - 10.0)
    res = ga_minimize(shifted, GaConfig(bounds=((0.0, 1.0), (0.0, 1.0)),
                                        population=30, generations=60, seed=3))
    assert np.all(res.position >= 0.0) and np.all(res.position <= 1.0)
    assert np.allclose(res.position, [1.0, 1.0], atol=1e-3)


def test_ga_seed_point_survives_via_elitism():
    res = ga_minimize(sphere, GaConfig(bounds=BOX, population=10,
                                       generations=4, seed=4),
                      seed_points=[(0.0, 0.0)])
    assert res.value == 0.0


def test_ga_stalls_out_early():
    flat = lambda p: 1.0
    res = ga_minimize(flat, GaConfig(bounds=BOX, population=10,
                                     generations=50, seed=5))
    # stall rule: five generations without progress end the run
    assert len(res.trace) == 6


def test_ga_config_validation():
    with pytest.raises(ValidationError):
        GaConfig(population=1)
    with pytest.raises(ValidationError):
        GaConfig(generations=0)
    with pytest.raises(ValidationError):
        GaConfig(bounds=((0.0, 1.0), (np.nan, 1.0)))


def unmemoised(func, points, seen):
    """Reference evaluation: every position, repeated or not."""
    values = np.array([float(func(p)) for p in points])
    if not np.all(np.isfinite(values)):
        bad = points[int(np.flatnonzero(~np.isfinite(values))[0])]
        raise RuntimeError(f"objective returned a non-finite value at {bad.tolist()}")
    return values


@pytest.mark.parametrize("minimize, cfg", [
    (pso_minimize, PsoConfig(swarm_size=12, max_iter=15, seed=3)),
    (ga_minimize, GaConfig(population=12, generations=15, seed=3))])
def test_each_distinct_candidate_evaluated_once(monkeypatch, minimize, cfg):
    # the optimum sits on a corner of the unit box, so clamping makes the
    # swarm and the population land on exactly the same positions again
    def objective(p):
        calls.append(p.tobytes())
        return float(-p.sum() + 0.1 * np.sin(7 * p[0]))

    calls = []
    memoised = minimize(objective, cfg, seed_points=[(0.0, 0.0)])
    evaluated = calls
    calls = []
    monkeypatch.setattr(optimize, "_evaluate", unmemoised)
    reference = minimize(objective, cfg, seed_points=[(0.0, 0.0)])
    assert len(calls) > len(set(calls))
    assert evaluated == list(dict.fromkeys(calls))
    assert np.array_equal(memoised.position, reference.position)
    assert memoised.value == reference.value
    assert np.array_equal(memoised.trace, reference.trace)


@pytest.mark.parametrize("minimize, cfg", [
    (pso_minimize, PsoConfig(swarm_size=4, max_iter=3)),
    (ga_minimize, GaConfig(population=4, generations=3))])
def test_first_non_finite_value_is_reported(minimize, cfg):
    def objective(p):
        return np.nan if p[0] > 0.5 else float(p.sum())

    with pytest.raises(RuntimeError, match=r"non-finite value at \[0\.9, 0\.1\]"):
        minimize(objective, cfg, seed_points=[(0.0, 0.0), (0.9, 0.1)])


def bowl(p):
    a, b = p[0] - 0.3, p[1] + 1.2
    return float(a * a + 2.0 * b * b + 0.5 * a * b)


# each minimiser's exact answer on a tilted bowl: a change to its inertia,
# pulls, rates or stop threshold moves these bits (both runs stop early, the
# swarm on an improvement below 1e-8 and the GA on five flat generations)
PINNED = {
    "pso": (pso_minimize, PsoConfig(bounds=BOX, swarm_size=8, max_iter=60, seed=0),
            [0.2936708450450713, -1.2028094911794778],
            [2.9840439950057243, 2.9840439950057243, 2.9840439950057243,
             2.9840439950057243, 2.007357151101554, 1.6847869578006447,
             0.480555841145319, 0.06791605424556764, 0.016717022174132172,
             0.016717022174132172, 0.007868788601000903, 0.00639625380988392,
             0.004805813884322973, 0.0014301825400343203, 0.00042045207982103735,
             0.00010718051996040913, 6.473977517054705e-05, 6.473977517054705e-05,
             6.473977517054705e-05, 6.473553632833604e-05]),
    "ga": (ga_minimize, GaConfig(bounds=BOX, population=8, generations=60, seed=0),
           [0.10057835019724884, -1.1841246998387058],
           [2.9840439950057243, 2.9840439950057243, 0.4888533342470825,
            0.2892685254362488, *[0.07336709694535072] * 4, *[0.03869010544583391] * 6]),
}


@pytest.mark.parametrize("name", PINNED)
def test_minimiser_output_is_pinned(name):
    minimize, cfg, position, trace = PINNED[name]
    res = minimize(bowl, cfg)
    assert res.position.tolist() == position
    assert res.trace.tolist() == trace
    assert res.value == trace[-1]
