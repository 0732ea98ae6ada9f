"""Derivative-free minimisers: particle swarm and a real-coded GA.

A run chooses only the search box, the budget and the seed.  The swarm's
inertia and pulls (``_OMEGA`` = ``_PHIP`` = ``_PHIG`` = 0.5), the GA's rates
(``_CROSSOVER_RATE`` = 0.8, ``_MUTATION_RATE`` = ``_MUTATION_SIGMA`` = 0.1)
and their shared stop threshold (``_MIN_IMPROVEMENT`` = 1e-8) are constants.
Both are fully seeded and evaluate candidates in index order, with the
global best resolved by lowest particle index on ties, so repeated runs
with the same seed reproduce every trace value bit for bit.

The objective must be deterministic: each run evaluates a position only
the first time it appears and reuses that value when the swarm or the
population lands on exactly the same position again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from voxseg.errors import ValidationError

Bounds = tuple[tuple[float, float], ...]

_OMEGA = _PHIP = _PHIG = 0.5
_CROSSOVER_RATE, _MUTATION_RATE, _MUTATION_SIGMA = 0.8, 0.1, 0.1
_MIN_IMPROVEMENT = 1e-8


def _check_bounds(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if lo.size == 0 or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
        raise ValidationError(f"bounds must be non-empty finite (low, high) pairs, got {bounds!r}")
    return lo, hi


def _start(bounds: Bounds, size: int, seed: int, seed_points):
    """Bounds, the seeded generator and a uniform start population of
    ``size`` rows with ``seed_points`` planted (clipped) in the first ones."""
    lo, hi = _check_bounds(bounds)
    rng = np.random.default_rng(seed)
    pop = lo + rng.random((size, lo.size)) * (hi - lo)
    for row, point in zip(range(size), seed_points):
        pop[row] = np.clip(np.asarray(point, dtype=np.float64), lo, hi)
    return lo, hi, rng, pop


def _evaluate(func: Callable, points: np.ndarray, seen: dict) -> np.ndarray:
    """Values of ``points`` in index order, each new position's cached in ``seen``."""
    values = np.empty(len(points))
    for i, p in enumerate(points):
        key = p.tobytes()
        if key not in seen:
            seen[key] = float(func(p))
        values[i] = seen[key]
    if not np.all(np.isfinite(values)):
        bad = points[int(np.flatnonzero(~np.isfinite(values))[0])]
        raise RuntimeError(f"objective returned a non-finite value at {bad.tolist()}")
    return values


@dataclass
class PsoConfig:
    """Swarm box, budget and seed; the defaults suit a handful of dimensions,
    and the inertia, pulls and stop threshold are the module's constants."""

    bounds: Bounds = ((0.0, 1.0), (0.0, 1.0))
    swarm_size: int = 50
    max_iter: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_bounds(self.bounds)
        if int(self.swarm_size) < 2:
            raise ValidationError("swarm_size must be at least 2")
        if int(self.max_iter) < 1:
            raise ValidationError("max_iter must be at least 1")


class OptResult(NamedTuple):
    position: np.ndarray
    value: float
    trace: np.ndarray  # best objective value after each iteration


def pso_minimize(func: Callable[[np.ndarray], float], cfg: PsoConfig,
                 seed_points: Sequence[Sequence[float]] = ()) -> OptResult:
    """Global-best particle swarm minimisation.

    Parameters
    ----------
    func : callable
        Maps a position vector to a scalar objective value.
    cfg : PsoConfig
        Bounds, swarm size, iteration cap and seed.  The velocity update
        takes inertia ``_OMEGA`` = 0.5 and cognitive/social pulls ``_PHIP``
        = ``_PHIG`` = 0.5; an improvement of the global best, or a step of
        its position, smaller than ``_MIN_IMPROVEMENT`` = 1e-8 ends the run.
    seed_points : sequence of positions, optional
        Candidates planted into the initial swarm (clipped to bounds).

    Returns
    -------
    OptResult
        Best position, its value, and the non-increasing best-value trace
        (one entry for the initial swarm plus one per iteration).

    Velocities start uniform in +/-(high - low); each particle draws fresh
    per-dimension uniforms for both pulls every iteration; positions are
    clamped to the bounds after every move.
    """
    size = int(cfg.swarm_size)
    lo, hi, rng, x = _start(cfg.bounds, size, cfg.seed, seed_points)
    span, dim, seen = hi - lo, lo.size, {}
    v = rng.uniform(-span, span, (size, dim))

    fx = _evaluate(func, x, seen)
    pbest = x.copy()
    pbest_val = fx.copy()
    leader = int(np.argmin(pbest_val))
    gbest = pbest[leader].copy()
    gbest_val = float(pbest_val[leader])
    trace = [gbest_val]

    for _ in range(cfg.max_iter):
        rp = rng.random((size, dim))
        rg = rng.random((size, dim))
        v = _OMEGA * v + _PHIP * rp * (pbest - x) + _PHIG * rg * (gbest - x)
        x = np.clip(x + v, lo, hi)
        fx = _evaluate(func, x, seen)
        better = fx < pbest_val
        pbest[better] = x[better]
        pbest_val[better] = fx[better]
        leader = int(np.argmin(pbest_val))
        stop = False
        if pbest_val[leader] < gbest_val:
            drop = gbest_val - float(pbest_val[leader])
            step = float(np.linalg.norm(pbest[leader] - gbest))
            gbest = pbest[leader].copy()
            gbest_val = float(pbest_val[leader])
            stop = drop < _MIN_IMPROVEMENT or step < _MIN_IMPROVEMENT
        trace.append(gbest_val)
        if stop:
            break
    return OptResult(gbest, gbest_val, np.array(trace))


@dataclass
class GaConfig:
    """Real-coded GA box, budget and seed; the rates are the module's constants."""

    bounds: Bounds = ((0.0, 1.0), (0.0, 1.0))
    population: int = 50
    generations: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_bounds(self.bounds)
        if int(self.population) < 2:
            raise ValidationError("population must be at least 2")
        if int(self.generations) < 1:
            raise ValidationError("generations must be at least 1")


def ga_minimize(func: Callable[[np.ndarray], float], cfg: GaConfig,
                seed_points: Sequence[Sequence[float]] = ()) -> OptResult:
    """Tournament selection, per-gene blend crossover, Gaussian mutation.

    Parents cross with probability ``_CROSSOVER_RATE`` = 0.8, and each child
    gene mutates with probability ``_MUTATION_RATE`` = 0.1, by a normal draw
    of ``_MUTATION_SIGMA`` = 0.1 times its range.  One elite survives each
    generation unchanged, so the best-value trace never rises.  Stops after
    ``generations`` or once the best value has improved by less than
    ``_MIN_IMPROVEMENT`` = 1e-8 across the last five generations.
    """
    size = int(cfg.population)
    lo, hi, rng, pop = _start(cfg.bounds, size, cfg.seed, seed_points)
    dim, seen = lo.size, {}
    sigma = _MUTATION_SIGMA * (hi - lo)

    fit = _evaluate(func, pop, seen)
    elite_idx = int(np.argmin(fit))
    best = pop[elite_idx].copy()
    best_val = float(fit[elite_idx])
    trace = [best_val]

    def tournament() -> np.ndarray:
        a, b = rng.integers(0, size, 2)
        return pop[a] if fit[a] <= fit[b] else pop[b]

    for _ in range(cfg.generations):
        offspring = [best.copy()]
        while len(offspring) < size:
            pa, pb = tournament(), tournament()
            if rng.random() < _CROSSOVER_RATE:
                mix = rng.random(dim)
                children = (mix * pa + (1 - mix) * pb, (1 - mix) * pa + mix * pb)
            else:
                children = (pa.copy(), pb.copy())
            for child in children:
                if len(offspring) >= size:
                    break
                hit = rng.random(dim) < _MUTATION_RATE
                child = child + np.where(hit, rng.normal(0.0, sigma, dim), 0.0)
                offspring.append(np.clip(child, lo, hi))
        pop = np.stack(offspring)
        fit = _evaluate(func, pop, seen)
        elite_idx = int(np.argmin(fit))
        if fit[elite_idx] < best_val:
            best = pop[elite_idx].copy()
            best_val = float(fit[elite_idx])
        trace.append(best_val)
        if len(trace) > 5 and trace[-6] - trace[-1] < _MIN_IMPROVEMENT:
            break
    return OptResult(best, best_val, np.array(trace))
