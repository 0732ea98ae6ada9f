"""End-to-end segmentation pipelines.

All five algorithms run one body, four stages on one clock: build the
neighbour context of the slice (in-plane in 2-D; shells into adjacent
slices for ``3dpifcm``); take the start, a GMM-seeded fuzzy c-means fit or
a given one (``ifcm``'s ``init``, or the fit the benchmark hands
:func:`segment` as ``start``), checked by one rule; take the weights, given
(``ifcm``) or tuned by probing a few attraction steps from that start; then
settle attraction steps with :func:`voxseg.fcm.settle`, fuzzy c-means' own loop,
from that start, or from the probe re-run at the minimiser's pick when tuned.  Probe
and loop run the same step, :func:`voxseg.attraction.ifcm_step`.
Plain ``fcm`` takes no weights and skips that loop: its start is its answer.
``wall_time`` covers all four stages, though not the fit of a given start.
Every result names why its loop stopped and takes its labels from
:func:`voxseg.metrics.defuzzify`.
:func:`segment` picks the algorithm by id for the CLI and the benchmark, and
:func:`plane_reach` says how many planes on each side of the slice it reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from voxseg.attraction import (AttractionParams, NeighbourContext, build_shell_table,
                               ifcm_step, plane_context, slice_context)
from voxseg.errors import ValidationError
from voxseg.fcm import FcmConfig, FcmResult, check_membership, fcm, gmm_init, settle
from voxseg.metrics import defuzzify
from voxseg.optimize import GaConfig, PsoConfig, ga_minimize, pso_minimize
from voxseg.volume import LabelVolume, SliceRef, Volume, extract_slice

ALGORITHMS = ("fcm", "ifcm", "ifcmpso", "gaifcm", "3dpifcm")
WEIGHT_BOUNDS = ((0.0, 1.0), (0.0, 1.0))


@dataclass
class SegmentationResult:
    membership: np.ndarray           # (n, c), row-major whatever layout the fit ran in
    centers: np.ndarray
    labels: LabelVolume
    feature_weight: float | None     # None for plain fcm, which has no weights
    spatial_weight: float | None
    iterations: int
    final_cost: float
    wall_time: float                 # context, start, weights and settle
    stop_reason: str                 # "converged", "cycle" or "cap", from fcm.settle


def _context(domain, params: AttractionParams):
    if isinstance(domain, NeighbourContext):
        return domain
    if isinstance(domain, Volume):
        return plane_context(domain, params.level)
    raise ValidationError(f"cannot segment a {type(domain).__name__}")


def _initial_state(ctx, clusters: int, cfg: FcmConfig):
    return fcm(ctx.data, gmm_init(ctx.data, clusters, scale=ctx.intensity_max), cfg)


def _given_start(ctx, init, clusters: int | None, whole: bool):
    """``init``, a (membership, centers) pair or an FcmResult, checked
    against ``ctx`` (one row per voxel) and ``clusters`` (one column each,
    when given) and cast to float64.  ``whole`` (plain fcm, whose start is
    its answer) needs the FcmResult, since a pair has no iterations to
    report, and gets it back as it is."""
    if whole and not isinstance(init, FcmResult):
        raise ValidationError("plain fcm needs an FcmResult start: a bare pair has no "
                              "iterations, cost or stop reason to report")
    pair = (init.membership, init.centers) if isinstance(init, FcmResult) else init
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise ValidationError("init must be a (membership, centers) pair or an FcmResult")
    u = np.asarray(pair[0], dtype=np.float64)
    centers = np.asarray(pair[1], dtype=np.float64).ravel()
    if u.shape != (ctx.data.size, centers.size):
        raise ValidationError(f"init shapes {u.shape} / {centers.shape} do not "
                              f"match {ctx.data.size} voxels")
    if clusters is not None and centers.size != clusters:
        raise ValidationError(f"init holds {centers.size} clusters, expected {clusters}")
    return init if whole else (u, centers)


def _probe(ctx, u0, centers0, cfg: FcmConfig, params: AttractionParams,
           steps: int):
    """Probe for weight search: the state after ``steps`` runs of :func:`ifcm_step`
    from the frozen starting state, and the last step's cost as a function.

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
    """The weights ``minimize`` picks over the probe ``propagate``, the no-attraction
    point planted, and the state the probe reaches there, which the loop starts from."""
    position = minimize(lambda p: propagate(*p)[2](), opt_cfg, seed_points=[(0.0, 0.0)]).position
    return position, propagate(*position)[:2]


def _pipeline(build, clusters, cfg: FcmConfig | None, params: AttractionParams,
              weights=None, search=None, init=None, probe_steps: int = 1):
    """Every algorithm's four stages on one clock: ``build()`` the context;
    take the start, ``init`` when given or when ``clusters`` is None, else a
    fit for ``clusters``;
    take the weights, none (plain fcm), the given pair, or else ``search``'s
    (minimiser, config) pick over the probe of the start; settle at the
    weights, from the probe re-run at a searched pick, and build the result."""
    if probe_steps < 1:
        raise ValidationError(f"probe_steps must be >= 1, got {probe_steps}")
    cfg = cfg or FcmConfig()
    started = time.perf_counter()
    ctx = build()
    state = (_initial_state(ctx, clusters, cfg) if init is None and clusters is not None
             else _given_start(ctx, init, clusters, weights is None and search is None))
    if weights is None and search is not None:
        # the probe, holding the start and its terms, goes once the search ends
        weights, state = _search(_probe(ctx, state[0], state[1], cfg, params, probe_steps),
                                 search[0], replace(search[1], bounds=WEIGHT_BOUNDS))
    if weights is not None:
        weights = (float(weights[0]), float(weights[1]))
        tuned = replace(params, feature_weight=weights[0], spatial_weight=weights[1])
        state = settle(lambda u, centers: ifcm_step(ctx, u, centers, tuned, cfg),
                       state[0], state[1], cfg)
    check_membership(state.membership)
    feature_weight, spatial_weight = weights or (None, None)
    return SegmentationResult(
        membership=np.ascontiguousarray(state.membership), centers=state.centers,
        labels=defuzzify(state.membership, ctx.label_dims),
        feature_weight=feature_weight, spatial_weight=spatial_weight,
        iterations=state.iterations, final_cost=float(state.cost),
        wall_time=time.perf_counter() - started, stop_reason=state.stop_reason)


def ifcm(domain, params: AttractionParams, init,
         cfg: FcmConfig | None = None) -> SegmentationResult:
    """Attraction-distance clustering at fixed weights.

    ``domain`` is a single-slice volume, a plane context, or a slice
    context; ``init`` is the (membership, centers) start state, or the
    :class:`voxseg.fcm.FcmResult` of a :func:`voxseg.fcm.gmm_fcm` fit.
    """
    return _pipeline(lambda: _context(domain, params), None, cfg, params,
                     (params.feature_weight, params.spatial_weight), init=init)


def pso_ifcm(img, clusters: int, cfg: FcmConfig | None = None,
             params: AttractionParams | None = None,
             pso: PsoConfig | None = None,
             fixed: tuple[float, float] | None = None,
             probe_steps: int = 1, *, init=None) -> SegmentationResult:
    """Swarm-tuned attraction clustering of a 2-D image.

    The swarm searches (feature_weight, spatial_weight) in [0, 1]^2 with
    the no-attraction point planted in the initial swarm; ``fixed``
    bypasses the search entirely and runs at the given weights.  ``init``,
    a start as :func:`ifcm` takes it, replaces the GMM-seeded fit.
    """
    params = params or AttractionParams()
    return _pipeline(lambda: _context(img, params), clusters, cfg, params, fixed,
                     (pso_minimize, pso or PsoConfig()), init, probe_steps)


def ga_ifcm(img, clusters: int, cfg: FcmConfig | None = None,
            params: AttractionParams | None = None,
            ga: GaConfig | None = None,
            fixed: tuple[float, float] | None = None,
            probe_steps: int = 1, *, init=None) -> SegmentationResult:
    """Genetic-algorithm-tuned attraction clustering of a 2-D image; ``init``
    as in :func:`pso_ifcm`."""
    params = params or AttractionParams()
    return _pipeline(lambda: _context(img, params), clusters, cfg, params, fixed,
                     (ga_minimize, ga or GaConfig()), init, probe_steps)


def pso_ifcm_3d(vol: Volume, ref: SliceRef, clusters: int,
                depth: int = AttractionParams.depth, decay: float = AttractionParams.decay,
                cfg: FcmConfig | None = None, pso: PsoConfig | None = None,
                fixed: tuple[float, float] | None = None,
                probe_steps: int = 1, *, init=None) -> SegmentationResult:
    """Swarm-tuned clustering of one slice with 3-D shell neighbourhoods.

    Identical to :func:`pso_ifcm` except that attraction terms gather
    neighbours through the shell table, reaching into adjacent slices of
    ``vol``; the returned labels cover just the addressed slice.
    """
    return _pipeline(lambda: slice_context(vol, ref, depth, decay), clusters, cfg,
                     AttractionParams(depth=depth, decay=decay), fixed,
                     (pso_minimize, pso or PsoConfig()), init, probe_steps)


def plane_reach(algorithm: str, params: AttractionParams) -> int:
    """How many planes on each side of its slice :func:`segment` reads: the
    shells' reach for ``3dpifcm``, none for the in-plane algorithms."""
    return build_shell_table(params.depth).reach if algorithm == "3dpifcm" else 0


def segment(algorithm: str, vol: Volume, ref: SliceRef, clusters: int,
            cfg: FcmConfig | None = None, params: AttractionParams | None = None,
            pso: PsoConfig | None = None, ga: GaConfig | None = None,
            fixed: tuple[float, float] | None = None,
            probe_steps: int = 1, *, start=None) -> SegmentationResult:
    """Segment slice ``ref`` of ``vol`` with one of :data:`ALGORITHMS`.

    The single algorithm dispatch behind ``voxseg segment`` and the
    benchmark.  ``params`` holds the weights ``ifcm`` runs at, the 2-D
    level and the 3-D depth and decay; ``fixed`` skips the weight search
    of the tuned algorithms.  ``ifcm`` runs as :func:`pso_ifcm` fixed at
    ``params``' weights.  Plain ``fcm`` reports no weights (None).
    ``start``, the :func:`voxseg.fcm.gmm_fcm` fit of the slice, replaces the
    fit every algorithm would make (the 2-D and 3-D contexts of a slice hold
    the same data), so the benchmark fits it once per noise field; plain
    ``fcm`` returns it whole.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    params = params or AttractionParams()
    if algorithm == "3dpifcm":
        return pso_ifcm_3d(vol, ref, clusters, params.depth, params.decay, cfg,
                           pso, fixed, probe_steps, init=start)
    img = extract_slice(vol, ref)
    if algorithm == "fcm":
        return _pipeline(lambda: _context(img, params), clusters, cfg, params,
                         init=start, probe_steps=probe_steps)
    if algorithm == "gaifcm":
        return ga_ifcm(img, clusters, cfg, params, ga, fixed, probe_steps, init=start)
    if algorithm == "ifcm":
        fixed = (params.feature_weight, params.spatial_weight)
    return pso_ifcm(img, clusters, cfg, params, pso, fixed, probe_steps, init=start)
