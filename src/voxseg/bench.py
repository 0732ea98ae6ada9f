"""Benchmark harness: algorithm x noise matrix with CSV reporting.

A run builds (or loads) its volume once and cuts the truth to the scored
slice (of a truth file it reads only that plane), which checks the slice
before any cell runs; a sweep is one run over every grid point.  The unit
of work is one noise field: for each (kind, percent, seed) the run
touches, :func:`prepare_field` corrupts the volume once and fits the
slice's start once, with :func:`voxseg.fcm.gmm_fcm` as every pipeline
fits it, and every cell on that
field (each algorithm, and each grid point of an ``h`` or ``v`` sweep)
segments from that shared start and scores the labels against the truth
slice.  A cell's ``wall_time_ms`` is
its field's noise-and-start time plus its own, so a row still reads as
the cost of running that cell alone.  Rows come out in config order and
all randomness is seeded per field and cell, so two runs of the same
config, in one process or over a worker pool, produce identical reports
except for wall-clock columns.
The slice rule of every front end is :func:`resolve_slice` and :func:`cut_to_plane`.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import NamedTuple

import numpy as np

from voxseg.attraction import AttractionParams
from voxseg.errors import UndefinedMetricError, ValidationError
from voxseg.fcm import FcmConfig, FcmResult, gmm_fcm
from voxseg.metrics import evaluate_labels, relative_improvement
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import GaConfig, PsoConfig
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import ALGORITHMS, segment
from voxseg.volume import (MAX_CLUSTERS, LabelVolume, SliceRef, Volume, extract_slice,
                           load_labels, load_volume, read_dims)

SCORE_COLUMNS = ("cluster", "UnS", "OS", "IncS")
REPORT_COLUMNS = ("algorithm", "noise_kind", "noise_percent", "seed", *SCORE_COLUMNS,
                  "lambda", "xi", "h", "v", "iterations", "wall_time_ms", "status",
                  "stop_reason")
COMPARISON_COLUMNS = ("algorithm_a", "noise_kind", "noise_percent",
                      "mean_incs_a", "mean_incs_3dpifcm", "relative_improvement_pct")


@dataclass
class BenchConfig:
    """One run's settings, in field order filling the noise matrix, the source (a
    ``PhantomSpec``, or a volume and its labels) and its scored slice, the cluster
    count, ``FcmConfig``, ``AttractionParams`` (its weights are plain ifcm's), the
    ``PsoConfig`` and ``GaConfig`` budgets, the weight probe and the scoring."""

    algorithms: tuple[str, ...] = ("fcm", "3dpifcm")
    noise_kinds: tuple[str, ...] = ("gaussian",)
    noise_percents: tuple[float, ...] = (5.0,)
    seeds: tuple[int, ...] = (0, 1, 2)
    dims: tuple[int, int, int] = (96, 96, 96)
    shells: int = 4
    clusters: int | None = None      # defaults to the shell count
    slice_spec: str = "mid"          # "mid" or an axis:index reference
    volume_path: str | None = None   # segment an external volume instead
    truth_path: str | None = None
    fuzziness: float = FcmConfig.fuzziness
    tolerance: float = FcmConfig.tolerance
    max_iterations: int = FcmConfig.max_iterations
    level: int = AttractionParams.level
    depth: int = AttractionParams.depth
    decay: float = AttractionParams.decay
    feature_weight: float = 0.5      # fixed weights for the plain ifcm entry
    spatial_weight: float = 0.5
    swarm_size: int = PsoConfig.swarm_size
    pso_max_iter: int = PsoConfig.max_iter
    population: int = GaConfig.population
    generations: int = GaConfig.generations
    probe_steps: int = 1
    literal_incs: bool = False
    per_cluster: bool = False

    def __post_init__(self):
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValidationError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
        if not self.algorithms or not self.noise_kinds or not self.noise_percents or not self.seeds:
            raise ValidationError("benchmark matrix must have at least one cell")
        if (self.volume_path is None) != (self.truth_path is None):
            raise ValidationError("volume_path and truth_path must be given together")
        if self.cluster_count < 1:
            raise ValidationError(f"cluster count must be >= 1, got {self.cluster_count}")
        if self.cluster_count > MAX_CLUSTERS:
            raise ValidationError(
                f"cluster count must be <= {MAX_CLUSTERS}, got {self.cluster_count}")
        if int(self.probe_steps) < 1:
            raise ValidationError(f"probe_steps must be >= 1, got {self.probe_steps}")
        # build what every cell builds, so a bad setting fails here, once,
        # instead of filling every row of the report with the same error
        self.fcm_config(), self.attraction_params(), self.pso_config(0), self.ga_config(0)
        for kind, percent, seed in product(self.noise_kinds, self.noise_percents, self.seeds):
            NoiseSpec(kind, percent, seed)
        if self.volume_path is None:
            self.phantom_spec()  # the phantom's own shape checks
            resolve_slice(self.slice_spec, self.dims).plane_dims(self.dims)

    @property
    def cluster_count(self) -> int:
        return int(self.clusters) if self.clusters is not None else int(self.shells)

    def _build(self, component, **extra):
        """``component`` from this config's fields of the same names, plus ``extra``."""
        return component(**{f.name: vars(self)[f.name] for f in fields(component)
                            if f.name in vars(self)}, **extra)

    def phantom_spec(self) -> PhantomSpec:
        return self._build(PhantomSpec, num_shells=self.shells)

    def fcm_config(self) -> FcmConfig:
        return self._build(FcmConfig)

    def attraction_params(self) -> AttractionParams:
        return self._build(AttractionParams)

    def pso_config(self, seed: int) -> PsoConfig:
        return self._build(PsoConfig, max_iter=self.pso_max_iter, seed=seed)

    def ga_config(self, seed: int) -> GaConfig:
        return self._build(GaConfig, seed=seed)

    def segment(self, algorithm: str, vol, ref: SliceRef, seed: int, fixed=None, start=None):
        """:func:`voxseg.pipelines.segment` of plane ``ref`` of ``vol`` at these settings,
        both optimisers seeded with ``seed``; ``fixed`` weights skip the search, and
        ``start`` is the shared fit a benchmark field hands its cells."""
        return segment(algorithm, vol, ref, self.cluster_count, self.fcm_config(),
                       self.attraction_params(), self.pso_config(seed),
                       self.ga_config(seed), fixed, self.probe_steps, start=start)


def resolve_slice(spec: str, dims: tuple[int, int, int]) -> SliceRef:
    """The plane ``spec`` names in a volume of ``dims``: ``"mid"`` (the
    middle z plane) or ``axis:index``, unchecked against ``dims``."""
    if spec == "mid":
        return SliceRef("z", dims[2] // 2)
    return SliceRef.parse(spec)


def cut_to_plane(grid, ref: SliceRef, dims: tuple[int, int, int], what: str = "truth"):
    """``grid``, a label grid or the path of a label file, as plane ``ref`` of
    a volume of ``dims``: kept whole when it has the plane's dims, else cut to
    the plane, and of a file only what is kept is read.  IndexError when
    ``ref`` lies outside ``dims`` or ``grid``; ValidationError when the cut lacks them."""
    plane = ref.plane_dims(dims)
    if isinstance(grid, LabelVolume):
        held = grid.dims
        cut = grid if held == plane else extract_slice(grid, ref)
    else:
        held = read_dims(grid)
        cut = load_labels(grid, None if held == plane else ref)
    if cut.dims != plane:
        raise ValidationError(f"{what} dims {held} do not cover slice dims {plane}")
    return cut


def _source(cfg: BenchConfig):
    """The volume, its scored plane, and the truth cut to that plane.  Of a
    truth file only that plane is read; the volume is read whole, since each
    field's noise is drawn over all of it."""
    if cfg.volume_path is not None:
        vol, truth = load_volume(cfg.volume_path), cfg.truth_path
    else:
        vol, truth = generate_phantom(cfg.phantom_spec())
    ref = resolve_slice(cfg.slice_spec, vol.dims)
    return vol, ref, cut_to_plane(truth, ref, vol.dims)


def _fmt(x) -> str:
    return format(x, ".10g") if isinstance(x, float) else str(x)


def score_rows(scores: dict, per_cluster: bool = True) -> list[dict]:
    """UnS/OS/IncS rows of ``evaluate_labels`` scores at ``.10g``: one per
    cluster when ``per_cluster``, then the mean."""
    lines = [(e["cluster"], e["uns"], e["os"], e["incs"])
             for e in (scores["per_cluster"] if per_cluster else ())]
    lines.append(("mean", scores["mean_uns"], scores["mean_os"], scores["mean_incs"]))
    return [{"cluster": cluster, "UnS": _fmt(uns), "OS": _fmt(os), "IncS": _fmt(incs)}
            for cluster, uns, os, incs in lines]


class Field(NamedTuple):
    """One noise setting of a run's source, and what every cell on it shares."""
    kind: str
    percent: float
    seed: int
    noisy: Volume | None      # None when ``failure`` is set
    ref: SliceRef
    truth: LabelVolume        # cut to ``ref``
    start: FcmResult | None   # the GMM-seeded fcm fit of the noisy slice
    seconds: float            # time spent corrupting and fitting
    failure: Exception | None


def prepare_field(cfg: BenchConfig, source, kind: str, percent: float, seed: int) -> Field:
    """``source``, the run's (volume, slice, truth slice), corrupted once at one noise
    setting, with the start every algorithm would fit, the :func:`gmm_fcm` fit of
    its slice, fitted once; a failure is kept for the cells."""
    vol, ref, truth = source
    started = time.perf_counter()
    noisy = start = failure = None
    try:
        noisy = add_noise(vol, NoiseSpec(kind, percent, seed))
        start = gmm_fcm(extract_slice(noisy, ref), cfg.cluster_count, cfg.fcm_config())
        for shared in (start.membership, start.centers):
            shared.flags.writeable = False   # a cell writing to them would leak into the next
    except Exception as exc:  # every cell on the field records it
        noisy, failure = None, exc
    return Field(kind, percent, seed, noisy, ref, truth, start,
                 time.perf_counter() - started, failure)


def run_cell(cfg: BenchConfig, field: Field, algorithm: str) -> list[dict]:
    """One matrix cell on ``field``; failures, the field's own too, land in the status
    column, not the caller."""
    started = time.perf_counter()
    base = {"algorithm": algorithm, "noise_kind": field.kind,
            "noise_percent": _fmt(float(field.percent)), "seed": field.seed,
            "lambda": "", "xi": "", "h": "", "v": "", "iterations": "", "stop_reason": ""}
    try:
        if field.failure is not None:
            raise field.failure
        # the fixed weights reach ifcm only: the tuned algorithms search
        result = cfg.segment(algorithm, field.noisy, field.ref, field.seed, start=field.start)
        scores = evaluate_labels(result.labels, field.truth, cfg.cluster_count,
                                 cfg.literal_incs)
    except Exception as exc:  # keep the sweep alive; the row records why
        status, rows = f"error: {exc}", [dict.fromkeys(SCORE_COLUMNS, "")]
    else:
        status, info = "ok", {"iterations": result.iterations, "stop_reason": result.stop_reason}
        if result.feature_weight is not None:
            info.update({"lambda": result.feature_weight, "xi": result.spatial_weight})
        if algorithm == "3dpifcm":
            info.update({"h": cfg.decay, "v": cfg.depth})
        base.update({k: _fmt(v) if isinstance(v, float) else v for k, v in info.items()})
        rows = score_rows(scores, cfg.per_cluster)
    wall_time_ms = _fmt((field.seconds + time.perf_counter() - started) * 1000.0)
    return [dict(base, **row, wall_time_ms=wall_time_ms, status=status) for row in rows]


def _run_field(cfg: BenchConfig, source, cells, kind: str, percent: float,
               seed: int) -> list[list[dict]]:
    """Rows of each (config, algorithm) cell in ``cells`` on one field of ``source``, fitted
    at ``cfg``; the field is dropped on return, so a process holds one at a time."""
    field = prepare_field(cfg, source, kind, percent, seed)
    return [run_cell(point, field, algorithm) for point, algorithm in cells]


_worker_source = None  # a pool worker's copy of the run's source, handed over once


def _share(source) -> None:
    global _worker_source
    _worker_source = source


def _worker_field(cfg: BenchConfig, *job) -> list[list[dict]]:
    return _run_field(cfg, _worker_source, *job)


def _run(cfg: BenchConfig, points: list[BenchConfig], threads: int, log) -> list[list[dict]]:
    """Report rows of each config in ``points``, which differ from ``cfg`` only in their
    algorithms, noise settings and attraction geometry, all on the one source ``cfg`` builds.
    Each (kind, percent, seed) any point touches is one field, prepared once for all its
    cells; fields run in this process, or over one pool of at most one worker per field,
    each handed the source once.  Cells are logged as their field finishes, and rows
    come back in config order."""
    if int(threads) < 1:
        raise ValidationError("threads must be at least 1")
    source = _source(cfg)
    cells = {}   # (kind, percent, seed) -> the (point index, algorithm) cells on that field
    for i, point in enumerate(points):
        for algorithm, *noise in product(point.algorithms, point.noise_kinds,
                                         point.noise_percents, point.seeds):
            cells.setdefault(tuple(noise), []).append((i, algorithm))
    jobs = [(cfg, tuple((points[i], algorithm) for i, algorithm in on_field), *noise)
            for noise, on_field in cells.items()]
    done, workers = {}, min(int(threads), len(jobs))
    with (ProcessPoolExecutor(workers, initializer=_share, initargs=(source,))
          if workers > 1 else nullcontext()) as pool:
        fields = (pool.map(_worker_field, *zip(*jobs)) if pool
                  else (_run_field(cfg, source, *job[1:]) for job in jobs))
        for (noise, on_field), groups in zip(cells.items(), fields):
            for (i, algorithm), group in zip(on_field, groups):
                if log is not None:
                    kind, percent, seed = noise
                    mean = next((r["IncS"] for r in group if r["cluster"] == "mean"), "")
                    log(f"{algorithm} {kind} {percent}% seed={seed} "
                        f"IncS={mean or 'n/a'} [{group[-1]['status']}]")
                done[(i, algorithm, *noise)] = group
    return [[row for cell in product(point.algorithms, point.noise_kinds,
                                     point.noise_percents, point.seeds)
             for row in done[(i, *cell)]] for i, point in enumerate(points)]


def run_benchmark(cfg: BenchConfig, threads: int = 1,
                  log=None) -> tuple[list[dict], list[dict]]:
    """Run the whole matrix; returns (report rows, comparison rows)."""
    rows, = _run(cfg, [cfg], threads, log)
    return rows, comparison_rows(cfg, rows)


def _mean_incs(rows: list[dict]) -> float | None:
    """Mean IncS of the ok mean rows in ``rows``; None when there are none."""
    vals = [float(r["IncS"]) for r in rows if r["cluster"] == "mean" and r["status"] == "ok"]
    return float(np.mean(vals)) if vals else None


def comparison_rows(cfg: BenchConfig, rows: list[dict]) -> list[dict]:
    """Mean-IncS comparison of every other algorithm against 3dpifcm."""
    if "3dpifcm" not in cfg.algorithms:
        return []

    def mean_incs(algorithm, kind, percent):
        return _mean_incs([r for r in rows if (r["algorithm"], r["noise_kind"], r["noise_percent"])
                           == (algorithm, kind, _fmt(float(percent)))])

    out = []
    others = [algorithm for algorithm in cfg.algorithms if algorithm != "3dpifcm"]
    for algorithm, kind, percent in product(others, cfg.noise_kinds, cfg.noise_percents):
        ours = mean_incs("3dpifcm", kind, percent)
        other = mean_incs(algorithm, kind, percent)
        if ours is None or other is None:
            continue
        try:
            gain = _fmt(relative_improvement(other, ours))
        except UndefinedMetricError:
            gain = ""
        out.append({"algorithm_a": algorithm, "noise_kind": kind,
                    "noise_percent": _fmt(float(percent)),
                    "mean_incs_a": _fmt(other), "mean_incs_3dpifcm": _fmt(ours),
                    "relative_improvement_pct": gain})
    return out


def run_sweep(cfg: BenchConfig, param: str, grid, algorithm: str,
              threads: int = 1, log=None) -> list[dict]:
    """Vary one hyperparameter over ``grid`` with everything else fixed."""
    if param not in ("h", "v", "percent"):
        raise ValidationError(f"sweep parameter must be h, v or percent, got {param!r}")
    if not len(grid):
        raise ValidationError("sweep grid must have at least one value")
    if param == "v" and not all(float(value).is_integer() for value in grid):
        raise ValidationError(f"v counts shells, so it must be a whole number: {list(grid)}")
    # every grid point's config is built, and so checked, before any cell runs
    points = [replace(cfg, algorithms=(algorithm,), **(
        {"decay": float(value)} if param == "h" else
        {"depth": int(value)} if param == "v" else
        {"noise_percents": (float(value),)})) for value in grid]
    out = []
    for value, point, rows in zip(grid, points, _run(cfg, points, threads, log)):
        mean = _mean_incs(rows)
        out.append({
            "param": param,
            "value": _fmt(float(value)),
            "algorithm": algorithm,
            "noise_kind": ",".join(point.noise_kinds),
            "noise_percent": ",".join(_fmt(float(p)) for p in point.noise_percents),
            "seeds": ",".join(str(s) for s in point.seeds),
            "mean_incs": "" if mean is None else _fmt(mean),
        })
    return out


SWEEP_COLUMNS = ("param", "value", "algorithm", "noise_kind", "noise_percent",
                 "seeds", "mean_incs")


def write_csv(rows: list[dict], columns, path_or_handle) -> None:
    if hasattr(path_or_handle, "write"):
        writer = csv.DictWriter(path_or_handle, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return
    with open(path_or_handle, "w", newline="") as fh:
        write_csv(rows, columns, fh)
