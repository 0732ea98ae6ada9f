"""The benchmark's workloads: inputs, one op, and the check of its output.

In every workload one op segments and scores one slice, through a different
public entry point of voxseg each time:

* ``segment-3d-96``: ``pipelines.pso_ifcm_3d`` plus ``metrics.evaluate_labels``
  at the acceptance protocol (96^3 four-shell phantom, 10 % gaussian noise,
  mid z slice, depth 3, decay 1.5, swarm 20 x 10, one probe step).  A block
  holds several noise fields, because a single field decides alone whether
  the converge loop stops early or runs to the cap.
* ``matrix-2d-96``: ``bench.run_benchmark`` with ``threads=1`` over
  fcm/ifcm/ifcmpso/gaifcm x gaussian/poisson x 10/20 %.  One op is one noise
  setting run through all four algorithms (four cells, four slices): a
  single cell would not do, because the swarm cells cost three to five times
  the fcm and ifcm ones, and the median of 16 such cells falls on that step.
* ``segment-3d-paper``: in-process ``cli.main(["segment", ...])`` with
  ``--algo 3dpifcm`` on 181x217x181 VXF files written by the set-up.

The workload seed fixes every noise and optimiser seed.  Ops run in whole
blocks, the same list of inputs each time, so accuracy and iteration counts
repeat exactly at one seed however fast the machine is.

The program's modules are looked up at call time (``_vox("pipelines")``),
so that spans patched in by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NOISE_PERCENT = 10.0
DEPTH = 3
DECAY = 1.5


def _vox(module: str):
    # importlib, not attribute access: the package's ``fcm`` attribute is
    # the function re-exported in voxseg/__init__, not the module
    return importlib.import_module("voxseg." + module)


@dataclass(frozen=True)
class Scale:
    dims: tuple[int, int, int]        # segment-3d-96 and matrix-2d-96
    paper_dims: tuple[int, int, int]  # segment-3d-paper
    shells: int                       # also the cluster count
    swarm: int                        # PSO swarm size and GA population
    opt_iters: int                    # PSO iterations and GA generations
    fields: int                       # noise fields per segment-3d-96 block


FULL = Scale((96, 96, 96), (181, 217, 181), 4, 20, 10, 10)
SMOKE = Scale((16, 16, 16), (16, 16, 16), 2, 4, 2, 2)


@dataclass
class Outcome:
    """What the check found: problems (empty when the op passed), and per
    segmented slice its mean IncS and its fit's iteration count against
    ``cap``."""

    problems: list[str] = field(default_factory=list)
    incs: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    cap: int = 0


def check_segmentation(labels, membership, truth_slice, clusters: int) -> list[str]:
    """Problems with one segmented slice; an empty list means it passed."""
    problems = []
    if labels.dims != truth_slice.dims:
        problems.append(f"label dims {labels.dims} differ from the truth "
                        f"slice's {truth_slice.dims}")
    top = int(labels.labels.max())
    if top >= clusters:
        problems.append(f"label {top} >= c = {clusters}")
    try:
        _vox("fcm").check_membership(membership)
    except _vox("errors").ValidationError as exc:
        problems.append(f"membership rejected: {exc}")
    return problems


def _incs_problem(incs: float) -> list[str]:
    return [] if 0.0 <= incs <= 1.0 else [f"mean IncS {incs} outside [0, 1]"]


class Workload:
    """Base: in-process set-up, repeated to time it."""

    name = ""
    setup_in_child = False

    def __init__(self, seed: int, scale: Scale, work_dir: Path):
        self.seed = int(seed)
        self.scale = scale
        self.work_dir = Path(work_dir)
        self.clusters = scale.shells

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Load what the checks need once the inputs exist."""

    def block(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> Outcome:
        raise NotImplementedError

    def _phantom(self, dims):
        spec = _vox("phantom").PhantomSpec(dims=dims, num_shells=self.scale.shells)
        return _vox("phantom").generate_phantom(spec)


class Segment3d96(Workload):
    name = "segment-3d-96"

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        k = scale.fields
        self.noise_seeds = [self.seed * k + j for j in range(k)]
        self.cfg = _vox("fcm").FcmConfig()

    def setup(self):
        self.noisy = None
        vol, truth = self._phantom(self.scale.dims)
        self.ref = _vox("volume").SliceRef("z", self.scale.dims[2] // 2)
        self.truth_slice = _vox("volume").extract_slice(truth, self.ref)
        spec = _vox("noise").NoiseSpec
        self.noisy = [_vox("noise").add_noise(vol, spec("gaussian", NOISE_PERCENT, s))
                      for s in self.noise_seeds]

    def block(self):
        return list(range(len(self.noise_seeds)))

    def run(self, op):
        pso = _vox("optimize").PsoConfig(swarm_size=self.scale.swarm,
                                         max_iter=self.scale.opt_iters,
                                         seed=self.noise_seeds[op])
        result = _vox("pipelines").pso_ifcm_3d(self.noisy[op], self.ref, self.clusters,
                                               DEPTH, DECAY, self.cfg, pso, probe_steps=1)
        scores = _vox("metrics").evaluate_labels(result.labels, self.truth_slice,
                                                 self.clusters)
        return result, scores

    def check(self, op, out):
        result, scores = out
        problems = check_segmentation(result.labels, result.membership,
                                      self.truth_slice, self.clusters)
        incs = float(scores["mean_incs"])
        return Outcome(problems + _incs_problem(incs), [incs], [result.iterations],
                       self.cfg.max_iterations)


class Matrix2d96(Workload):
    name = "matrix-2d-96"
    ALGORITHMS = ("fcm", "ifcm", "ifcmpso", "gaifcm")
    KINDS = ("gaussian", "poisson")
    PERCENTS = (10.0, 20.0)

    def setup(self):
        # pre-flight: every class must reach the scored slice, or no cell
        # of the matrix could be scored
        bench = _vox("bench")
        _, truth = self._phantom(self.scale.dims)
        ref = bench.resolve_slice("mid", self.scale.dims)
        present = np.unique(_vox("volume").extract_slice(truth, ref).labels)
        if present.size != self.clusters:
            raise RuntimeError(f"mid slice holds classes {present.tolist()}, "
                               f"expected {self.clusters}")
        s = self.scale
        self.settings = [
            bench.BenchConfig(algorithms=self.ALGORITHMS, noise_kinds=(kind,),
                              noise_percents=(percent,), seeds=(self.seed,),
                              dims=s.dims, shells=s.shells, slice_spec="mid",
                              depth=DEPTH, decay=DECAY, swarm_size=s.swarm,
                              pso_max_iter=s.opt_iters, population=s.swarm,
                              generations=s.opt_iters, probe_steps=1)
            for kind in self.KINDS for percent in self.PERCENTS]

    def block(self):
        return list(range(len(self.settings)))

    def run(self, op):
        rows, _ = _vox("bench").run_benchmark(self.settings[op], threads=1)
        return rows

    def check(self, op, rows):
        cfg = self.settings[op]
        if len(rows) != len(self.ALGORITHMS):
            return Outcome([f"expected {len(self.ALGORITHMS)} report rows, got {len(rows)}"])
        problems, incs, iterations = [], [], []
        for algorithm, row in zip(self.ALGORITHMS, rows):
            if row["status"] != "ok":
                problems.append(f"{algorithm} row status {row['status']!r}")
                continue
            want = {"algorithm": algorithm, "noise_kind": cfg.noise_kinds[0],
                    "noise_percent": format(cfg.noise_percents[0], ".10g"),
                    "seed": self.seed, "cluster": "mean"}
            problems += [f"row {k}={row[k]!r}, expected {v!r}"
                         for k, v in want.items() if row[k] != v]
            incs.append(float(row["IncS"]))
            problems += _incs_problem(incs[-1])
            iterations.append(int(row["iterations"]))
        return Outcome(problems, incs, iterations, cfg.max_iterations)


class SegmentPaper(Workload):
    name = "segment-3d-paper"
    # the set-up's volumes are several times the op's working set; set up
    # in a child so the peak RSS of this process is the ops' own
    setup_in_child = True

    def __init__(self, seed, scale, work_dir):
        super().__init__(seed, scale, work_dir)
        self.dims = scale.paper_dims
        self.ref_text = f"z:{self.dims[2] // 2}"
        self.noisy_path = self.work_dir / "noisy.vxf"
        self.truth_path = self.work_dir / "truth.vxf"
        self.labels_path = self.work_dir / "labels.vxf"
        self.membership_path = self.work_dir / "membership.npy"
        self.scores_path = self.work_dir / "scores.csv"

    def setup(self):
        vol, truth = self._phantom(self.dims)
        spec = _vox("noise").NoiseSpec("gaussian", NOISE_PERCENT, self.seed)
        noisy = _vox("noise").add_noise(vol, spec)
        _vox("volume").save_volume(noisy, self.noisy_path)
        _vox("volume").save_volume(truth, self.truth_path)

    def after_setup(self):
        volume = _vox("volume")
        self.truth_slice = volume.extract_slice(volume.load_labels(self.truth_path),
                                                volume.SliceRef.parse(self.ref_text))

    def block(self):
        return [0]

    def run(self, op):
        for path in (self.labels_path, self.membership_path, self.scores_path):
            path.unlink(missing_ok=True)
        s = self.scale
        argv = ["segment", "--in", str(self.noisy_path), "--algo", "3dpifcm",
                "--slice", self.ref_text, "--c", str(self.clusters),
                "--h", str(DECAY), "--v", str(DEPTH), "--swarm", str(s.swarm),
                "--opt-iters", str(s.opt_iters), "--probe-steps", "1",
                "--seed", str(self.seed), "--out", str(self.labels_path),
                "--membership", str(self.membership_path),
                "--truth", str(self.truth_path), "--metrics", str(self.scores_path)]
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = _vox("cli").main(argv)
        return code, log.getvalue()

    def check(self, op, out):
        code, log = out
        if code != 0:
            return Outcome([f"voxseg segment exited {code}: {log.strip()}"])
        labels = _vox("volume").load_labels(self.labels_path)
        problems = check_segmentation(labels, np.load(self.membership_path),
                                      self.truth_slice, self.clusters)
        with open(self.scores_path, newline="") as fh:
            mean = [r for r in csv.DictReader(fh) if r["cluster"] == "mean"]
        if len(mean) != 1:
            return Outcome(problems + ["scores CSV has no single mean row"])
        incs = float(mean[0]["IncS"])
        if not problems:
            again = _vox("metrics").evaluate_labels(labels, self.truth_slice,
                                                    self.clusters)["mean_incs"]
            if format(again, ".10g") != mean[0]["IncS"]:
                problems.append(f"scores CSV IncS {mean[0]['IncS']} != {again:.10g} "
                                "recomputed from the label file")
        found = re.search(r": (\d+) iterations,", log)
        if found is None:
            problems.append("no iteration count in the segment log")
        iterations = int(found.group(1)) if found else 0
        return Outcome(problems + _incs_problem(incs), [incs], [iterations],
                       _vox("fcm").FcmConfig().max_iterations)


WORKLOADS = {w.name: w for w in (Segment3d96, Matrix2d96, SegmentPaper)}
