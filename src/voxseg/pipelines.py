"""End-to-end segmentation pipelines.

All five algorithms run the same stages: one neighbour context per slice
(in-plane in 2-D; shells into adjacent slices for ``3dpifcm``), one
GMM-seeded fuzzy c-means start, then weights that are given (``ifcm``) or
tuned by probing a few attraction steps from that start, then attraction
steps run by :func:`voxseg.fcm.settle`, fuzzy c-means' own loop.  Probe and
loop run the same step, :func:`voxseg.attraction.ifcm_step`.
Plain ``fcm`` skips the weights and that run: its start is its answer.
Every result names why its loop stopped and takes its labels from
:func:`voxseg.metrics.defuzzify`.
:func:`segment` picks the algorithm by id for the CLI and the benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from voxseg.attraction import (AttractionParams, NeighbourContext, ifcm_step,
                               plane_context, slice_context)
from voxseg.errors import ValidationError
from voxseg.fcm import FcmConfig, FcmResult, check_membership, fcm, gmm_init, settle
from voxseg.metrics import defuzzify
from voxseg.optimize import GaConfig, PsoConfig, ga_minimize, pso_minimize
from voxseg.volume import LabelVolume, SliceRef, Volume, extract_slice

ALGORITHMS = ("fcm", "ifcm", "ifcmpso", "gaifcm", "3dpifcm")
WEIGHT_BOUNDS = ((0.0, 1.0), (0.0, 1.0))


@dataclass
class SegmentationResult:
    membership: np.ndarray
    centers: np.ndarray
    labels: LabelVolume
    feature_weight: float | None     # None for plain fcm, which has no weights
    spatial_weight: float | None
    iterations: int
    final_cost: float
    wall_time: float
    stop_reason: str                 # "converged", "cycle" or "cap", from fcm.settle


def _context(domain, params: AttractionParams):
    if isinstance(domain, NeighbourContext):
        return domain
    if isinstance(domain, Volume):
        return plane_context(domain, params.level)
    raise ValidationError(f"cannot segment a {type(domain).__name__}")


def _initial_state(ctx, clusters: int, cfg: FcmConfig):
    centers0 = gmm_init(ctx.data, clusters, scale=ctx.intensity_max)
    return fcm(ctx.data, clusters, cfg, init_centers=centers0)


def _converge(ctx, state, params: AttractionParams | None, cfg: FcmConfig,
              started: float) -> SegmentationResult:
    """Settle attraction updates at ``params`` from ``state``, a (u, centers)
    pair or fit, check the memberships and package the result.  Plain fcm
    passes ``params=None`` and its fit, as its start is its answer."""
    if params is None:
        weights, fit = (None, None), state
    else:
        weights = (float(params.feature_weight), float(params.spatial_weight))
        fit = settle(lambda u, centers: ifcm_step(ctx, u, centers, params, cfg),
                     state[0], state[1], cfg)
    check_membership(fit.membership)
    return SegmentationResult(
        membership=fit.membership, centers=fit.centers,
        labels=defuzzify(fit.membership, ctx.label_dims),
        feature_weight=weights[0], spatial_weight=weights[1],
        iterations=fit.iterations, final_cost=float(fit.cost),
        wall_time=time.perf_counter() - started, stop_reason=fit.stop_reason)


def _probe(ctx, u0, centers0, cfg: FcmConfig, params: AttractionParams,
           steps: int):
    """Objective for weight search: cost after ``steps`` runs of
    :func:`ifcm_step` from the frozen starting state.

    The neighbourhood terms depend only on the start state, so they are
    gathered once and every candidate's first step reuses them.
    """
    terms = ctx.attraction_terms(u0, centers0, cfg.fuzziness)

    def propagate(feature_weight: float, spatial_weight: float):
        p = replace(params, feature_weight=feature_weight, spatial_weight=spatial_weight)
        _, u, centers, cost = ifcm_step(ctx, u0, centers0, p, cfg, terms)
        for _ in range(steps - 1):
            _, u, centers, cost = ifcm_step(ctx, u, centers, p, cfg)
        return u, centers, cost

    return propagate


def _search(propagate, minimize, opt_cfg):
    """Weights ``minimize`` picks over the probe ``propagate``, the no-attraction point planted,
    and the state kept from the first strictly lowest candidate: the minimisers' tie rule."""
    kept = [np.inf, None, None]     # cost, weights, (u, centers)

    def objective(pos):
        u, centers, cost = propagate(pos[0], pos[1])
        if cost < kept[0]:
            kept[:] = cost, (float(pos[0]), float(pos[1])), (u, centers)
        return cost

    best = minimize(objective, opt_cfg, seed_points=[(0.0, 0.0)])
    if kept[1] != tuple(best.position.tolist()):
        raise RuntimeError(f"the probe kept {kept[1]}, the search chose {best.position}")
    return kept[1], kept[2]


def ifcm(domain, params: AttractionParams, init,
         cfg: FcmConfig | None = None) -> SegmentationResult:
    """Attraction-distance clustering at fixed weights.

    ``domain`` is a single-slice volume, a plane context, or a slice
    context; ``init`` is the (membership, centers) start state, or the
    :class:`voxseg.fcm.FcmResult` of a :func:`voxseg.fcm.gmm_fcm` fit.
    """
    cfg = cfg or FcmConfig()
    started = time.perf_counter()
    ctx = _context(domain, params)
    if isinstance(init, FcmResult):
        init = (init.membership, init.centers)
    if not isinstance(init, (tuple, list)) or len(init) != 2:
        raise ValidationError("init must be a (membership, centers) pair or an FcmResult")
    u, centers = init
    u = np.asarray(u, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64).ravel()
    if u.shape != (ctx.data.size, centers.size):
        raise ValidationError(f"init shapes {u.shape} / {centers.shape} do not "
                              f"match {ctx.data.size} voxels")
    return _converge(ctx, (u, centers), params, cfg, started)


def _tuned(build, clusters: int, cfg: FcmConfig | None, params: AttractionParams,
           minimize, opt_cfg, fixed, probe_steps: int) -> SegmentationResult:
    """The weight-tuned pipelines: fit the starting state on the context
    ``build()`` returns, then converge from it at the ``fixed`` weights, or
    from the state :func:`_search` kept at the weights it picked."""
    if probe_steps < 1:
        raise ValidationError(f"probe_steps must be >= 1, got {probe_steps}")
    cfg = cfg or FcmConfig()
    opt_cfg = replace(opt_cfg, bounds=WEIGHT_BOUNDS)
    started = time.perf_counter()
    ctx = build()
    state, weights = _initial_state(ctx, clusters, cfg), fixed
    if weights is None:
        # the probe, holding the start and its terms, goes once the search ends
        weights, state = _search(_probe(ctx, state.membership, state.centers, cfg,
                                        params, probe_steps), minimize, opt_cfg)
    tuned = replace(params, feature_weight=weights[0], spatial_weight=weights[1])
    return _converge(ctx, state, tuned, cfg, started)


def pso_ifcm(img, clusters: int, cfg: FcmConfig | None = None,
             params: AttractionParams | None = None,
             pso: PsoConfig | None = None,
             fixed: tuple[float, float] | None = None,
             probe_steps: int = 1) -> SegmentationResult:
    """Swarm-tuned attraction clustering of a 2-D image.

    The swarm searches (feature_weight, spatial_weight) in [0, 1]^2 with
    the no-attraction point planted in the initial swarm; ``fixed``
    bypasses the search entirely and runs at the given weights.
    """
    params = params or AttractionParams()
    return _tuned(lambda: _context(img, params), clusters, cfg, params,
                  pso_minimize, pso or PsoConfig(), fixed, probe_steps)


def ga_ifcm(img, clusters: int, cfg: FcmConfig | None = None,
            params: AttractionParams | None = None,
            ga: GaConfig | None = None,
            fixed: tuple[float, float] | None = None,
            probe_steps: int = 1) -> SegmentationResult:
    """Genetic-algorithm-tuned attraction clustering of a 2-D image."""
    params = params or AttractionParams()
    return _tuned(lambda: _context(img, params), clusters, cfg, params,
                  ga_minimize, ga or GaConfig(), fixed, probe_steps)


def pso_ifcm_3d(vol: Volume, ref: SliceRef, clusters: int,
                depth: int = AttractionParams.depth, decay: float = AttractionParams.decay,
                cfg: FcmConfig | None = None, pso: PsoConfig | None = None,
                fixed: tuple[float, float] | None = None,
                probe_steps: int = 1) -> SegmentationResult:
    """Swarm-tuned clustering of one slice with 3-D shell neighbourhoods.

    Identical to :func:`pso_ifcm` except that attraction terms gather
    neighbours through the shell table, reaching into adjacent slices of
    ``vol``; the returned labels cover just the addressed slice.
    """
    params = AttractionParams(depth=depth, decay=decay)
    return _tuned(lambda: slice_context(vol, ref, depth, decay), clusters, cfg,
                  params, pso_minimize, pso or PsoConfig(), fixed, probe_steps)


def segment(algorithm: str, vol: Volume, ref: SliceRef, clusters: int,
            cfg: FcmConfig | None = None, params: AttractionParams | None = None,
            pso: PsoConfig | None = None, ga: GaConfig | None = None,
            fixed: tuple[float, float] | None = None,
            probe_steps: int = 1) -> SegmentationResult:
    """Segment slice ``ref`` of ``vol`` with one of :data:`ALGORITHMS`.

    The single algorithm dispatch behind ``voxseg segment`` and the
    benchmark.  ``params`` holds the weights ``ifcm`` runs at, the 2-D
    level and the 3-D depth and decay; ``fixed`` skips the weight search
    of the tuned algorithms.  Plain ``fcm`` reports no weights (None).
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    cfg = cfg or FcmConfig()
    params = params or AttractionParams()
    if algorithm == "3dpifcm":
        return pso_ifcm_3d(vol, ref, clusters, params.depth, params.decay, cfg,
                           pso, fixed, probe_steps)
    ctx = plane_context(extract_slice(vol, ref), params.level)
    if algorithm == "ifcmpso":
        return pso_ifcm(ctx, clusters, cfg, params, pso, fixed, probe_steps)
    if algorithm == "gaifcm":
        return ga_ifcm(ctx, clusters, cfg, params, ga, fixed, probe_steps)
    started = time.perf_counter()
    state = _initial_state(ctx, clusters, cfg)
    if algorithm == "ifcm":
        # the wall time covers the start, as it does for the other four
        return replace(ifcm(ctx, params, state, cfg),
                       wall_time=time.perf_counter() - started)
    return _converge(ctx, state, None, cfg, started)
