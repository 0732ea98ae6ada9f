"""Derivative-free minimisers: particle swarm and a real-coded GA.

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


def _check_bounds(bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if lo.size == 0 or np.any(hi <= lo):
        raise ValidationError(f"bounds must be non-empty (low, high) pairs, got {bounds!r}")
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
    """Swarm settings; the defaults suit a handful of dimensions."""

    bounds: Bounds = ((0.0, 1.0), (0.0, 1.0))
    swarm_size: int = 50
    omega: float = 0.5
    phip: float = 0.5
    phig: float = 0.5
    max_iter: int = 20
    minstep: float = 1e-8
    minfunc: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        _check_bounds(self.bounds)
        if int(self.swarm_size) < 2:
            raise ValidationError("swarm_size must be at least 2")
        if int(self.max_iter) < 1:
            raise ValidationError("max_iter must be at least 1")
        for name in ("omega", "phip", "phig"):
            if not np.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise ValidationError(f"{name} must be finite and non-negative")


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
        Bounds, swarm size, inertia ``omega``, cognitive/social pulls
        ``phip``/``phig``, iteration cap and the two stop thresholds:
        an improvement of the global best smaller than ``minfunc`` or a
        best-position step smaller than ``minstep`` ends the run.
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
        v = cfg.omega * v + cfg.phip * rp * (pbest - x) + cfg.phig * rg * (gbest - x)
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
            stop = drop < cfg.minfunc or step < cfg.minstep
        trace.append(gbest_val)
        if stop:
            break
    return OptResult(gbest, gbest_val, np.array(trace))


@dataclass
class GaConfig:
    """Real-coded genetic algorithm settings."""

    bounds: Bounds = ((0.0, 1.0), (0.0, 1.0))
    population: int = 50
    generations: int = 20
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    mutation_sigma: float = 0.1  # as a fraction of each dimension's range
    minfunc: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        _check_bounds(self.bounds)
        if int(self.population) < 2:
            raise ValidationError("population must be at least 2")
        if int(self.generations) < 1:
            raise ValidationError("generations must be at least 1")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1]")
        if self.mutation_sigma <= 0:
            raise ValidationError("mutation_sigma must be positive")


def ga_minimize(func: Callable[[np.ndarray], float], cfg: GaConfig,
                seed_points: Sequence[Sequence[float]] = ()) -> OptResult:
    """Tournament selection, per-gene blend crossover, Gaussian mutation.

    One elite survives each generation unchanged, so the best-value trace
    never rises.  Stops after ``generations`` or once the best value has
    improved by less than ``minfunc`` across the last five generations.
    """
    size = int(cfg.population)
    lo, hi, rng, pop = _start(cfg.bounds, size, cfg.seed, seed_points)
    dim, seen = lo.size, {}
    sigma = cfg.mutation_sigma * (hi - lo)

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
            if rng.random() < cfg.crossover_rate:
                mix = rng.random(dim)
                children = (mix * pa + (1 - mix) * pb, (1 - mix) * pa + mix * pb)
            else:
                children = (pa.copy(), pb.copy())
            for child in children:
                if len(offspring) >= size:
                    break
                hit = rng.random(dim) < cfg.mutation_rate
                child = child + np.where(hit, rng.normal(0.0, sigma, dim), 0.0)
                offspring.append(np.clip(child, lo, hi))
        pop = np.stack(offspring)
        fit = _evaluate(func, pop, seen)
        elite_idx = int(np.argmin(fit))
        if fit[elite_idx] < best_val:
            best = pop[elite_idx].copy()
            best_val = float(fit[elite_idx])
        trace.append(best_val)
        if len(trace) > 5 and trace[-6] - trace[-1] < cfg.minfunc:
            break
    return OptResult(best, best_val, np.array(trace))
