"""End-to-end segmentation pipelines.

All five algorithms run one body on one clock, handed the slice to segment
as a single-slice :class:`voxseg.volume.Volume`: build the slice's
neighbour context (in-plane in 2-D; shells into adjacent slices of its
volume for ``3dpifcm``); take the start, :func:`voxseg.fcm.gmm_fcm`'s fit
of the slice or a given one (``ifcm``'s ``init``, or the fit the benchmark
hands :func:`segment` as ``start``), checked by one rule; take the weights,
given (``ifcm``) or tuned by probing a few attraction steps from that
start; then settle attraction steps with :func:`voxseg.fcm.settle`, fuzzy
c-means' own loop, from that start, or from the probe re-run at the
minimiser's pick when tuned.  Probe and loop run the same step,
:func:`voxseg.attraction.ifcm_step`.  Plain ``fcm`` takes no weights and
builds no context: its start is its answer.  ``wall_time`` covers every
stage an algorithm runs, though not the fit of a given start.  Every result
names why its loop stopped and takes its labels, in the slice's dims, from
:func:`voxseg.metrics.defuzzify`.
:func:`segment` picks the algorithm by id for the CLI and the benchmark, and
:func:`plane_reach` says how many planes on each side of the slice it reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from voxseg.attraction import (AttractionParams, build_shell_table, ifcm_step,
                               plane_context, slice_context)
from voxseg.errors import ValidationError
from voxseg.fcm import FcmConfig, FcmResult, check_membership, gmm_fcm, settle
from voxseg.metrics import defuzzify
from voxseg.optimize import GaConfig, PsoConfig, ga_minimize, pso_minimize
from voxseg.volume import LabelVolume, SliceRef, Volume, extract_slice

ALGORITHMS = ("fcm", "ifcm", "ifcmpso", "gaifcm", "3dpifcm")


@dataclass
class SegmentationResult:
    membership: np.ndarray           # (n, c), row-major whatever layout the fit ran in
    centers: np.ndarray
    labels: LabelVolume
    feature_weight: float | None     # None for plain fcm, which has no weights
    spatial_weight: float | None
    iterations: int
    final_cost: float
    wall_time: float                 # the stages run: context, start, weights, settle
    stop_reason: str                 # "converged", "cycle" or "cap", from fcm.settle


def _given_start(img: Volume, init, clusters: int | None, whole: bool):
    """``init``, a (membership, centers) pair or an FcmResult, checked
    against ``img`` (one row per voxel) and ``clusters`` (one column each,
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
    if u.shape != (img.data.size, centers.size):
        raise ValidationError(f"init shapes {u.shape} / {centers.shape} do not "
                              f"match {img.data.size} voxels")
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


def _pipeline(img: Volume, build, clusters, cfg: FcmConfig | None, params: AttractionParams,
              weights=None, search=None, init=None, probe_steps: int = 1):
    """Every algorithm's stages on one clock, for the single-slice volume
    ``img``: ``build()`` its neighbour context, unless no step will run
    (plain fcm, with neither weights nor ``search``); take the start,
    ``init`` when given or when ``clusters`` is None, else the
    :func:`gmm_fcm` fit of ``img`` for ``clusters``;
    take the weights, none (plain fcm), the given pair, or else ``search``'s
    (minimiser, config) pick over the probe of the start; settle at the
    weights, from the probe re-run at a searched pick, and build the result,
    labelled in ``img``'s dims."""
    if probe_steps < 1:
        raise ValidationError(f"probe_steps must be >= 1, got {probe_steps}")
    if not isinstance(img, Volume):
        raise ValidationError(f"cannot segment a {type(img).__name__}")
    cfg = cfg or FcmConfig()
    whole = weights is None and search is None  # plain fcm: its start is its answer
    started = time.perf_counter()
    # built before the fit, so that a slice it refuses costs no fit
    ctx = None if whole else build()
    state = (gmm_fcm(img, clusters, cfg) if init is None and clusters is not None
             else _given_start(img, init, clusters, whole))
    if weights is None and search is not None:
        # the probe, holding the start and its terms, goes once the search ends
        weights, state = _search(_probe(ctx, state[0], state[1], cfg, params, probe_steps),
                                 *search)
    if weights is not None:
        weights = (float(weights[0]), float(weights[1]))
        tuned = replace(params, feature_weight=weights[0], spatial_weight=weights[1])
        state = settle(lambda u, centers: ifcm_step(ctx, u, centers, tuned, cfg),
                       state[0], state[1], cfg)
    check_membership(state.membership)
    feature_weight, spatial_weight = weights or (None, None)
    return SegmentationResult(
        membership=np.ascontiguousarray(state.membership), centers=state.centers,
        labels=defuzzify(state.membership, img.dims),
        feature_weight=feature_weight, spatial_weight=spatial_weight,
        iterations=state.iterations, final_cost=float(state.cost),
        wall_time=time.perf_counter() - started, stop_reason=state.stop_reason)


def ifcm(img: Volume, params: AttractionParams, init,
         cfg: FcmConfig | None = None) -> SegmentationResult:
    """Attraction-distance clustering of a single-slice volume at fixed weights.

    ``init`` is the (membership, centers) start state, or the
    :class:`voxseg.fcm.FcmResult` of a :func:`voxseg.fcm.gmm_fcm` fit.
    """
    return _pipeline(img, lambda: plane_context(img, params.level), None, cfg, params,
                     (params.feature_weight, params.spatial_weight), init=init)


def pso_ifcm(img: Volume, clusters: int, cfg: FcmConfig | None = None,
             params: AttractionParams | None = None,
             pso: PsoConfig | None = None,
             fixed: tuple[float, float] | None = None,
             probe_steps: int = 1, *, init=None) -> SegmentationResult:
    """Swarm-tuned attraction clustering of a single-slice volume.

    The swarm searches (feature_weight, spatial_weight) in ``pso``'s
    bounds, [0, 1]^2 by default, with the no-attraction point planted in
    the initial swarm; ``fixed`` bypasses the search entirely and runs at
    the given weights.  ``init``, a start as :func:`ifcm` takes it,
    replaces the GMM-seeded fit.
    """
    params = params or AttractionParams()
    return _pipeline(img, lambda: plane_context(img, params.level), clusters, cfg, params,
                     fixed, (pso_minimize, pso or PsoConfig()), init, probe_steps)


def ga_ifcm(img: Volume, clusters: int, cfg: FcmConfig | None = None,
            params: AttractionParams | None = None,
            ga: GaConfig | None = None,
            fixed: tuple[float, float] | None = None,
            probe_steps: int = 1, *, init=None) -> SegmentationResult:
    """Genetic-algorithm-tuned attraction clustering of a single-slice
    volume; the search box, ``fixed`` and ``init`` as in :func:`pso_ifcm`."""
    params = params or AttractionParams()
    return _pipeline(img, lambda: plane_context(img, params.level), clusters, cfg, params,
                     fixed, (ga_minimize, ga or GaConfig()), init, probe_steps)


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
    return _pipeline(extract_slice(vol, ref), lambda: slice_context(vol, ref, depth, decay),
                     clusters, cfg, AttractionParams(depth=depth, decay=decay), fixed,
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
    ``start``, the :func:`voxseg.fcm.gmm_fcm` fit of the slice, is the fit
    every algorithm would make itself, so the benchmark fits it once per
    noise field; plain ``fcm`` returns it whole.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    params = params or AttractionParams()
    if algorithm == "3dpifcm":
        return pso_ifcm_3d(vol, ref, clusters, params.depth, params.decay, cfg,
                           pso, fixed, probe_steps, init=start)
    img = extract_slice(vol, ref)
    if algorithm == "fcm":
        return _pipeline(img, None, clusters, cfg, params, init=start, probe_steps=probe_steps)
    if algorithm == "gaifcm":
        return ga_ifcm(img, clusters, cfg, params, ga, fixed, probe_steps, init=start)
    if algorithm == "ifcm":
        fixed = (params.feature_weight, params.spatial_weight)
    return pso_ifcm(img, clusters, cfg, params, pso, fixed, probe_steps, init=start)
