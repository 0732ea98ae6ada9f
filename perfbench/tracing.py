"""Span tracing at voxseg's module boundaries, applied from outside ``src/``.

:func:`patched` swaps each public function listed in :data:`TARGETS` for a
recording wrapper, in its own module and in every voxseg module that bound
the same object with ``from ... import``; the two ``attraction_terms``
methods are swapped on their classes.  Spans are kept in memory as
``[name, start, end, parent, op, info]`` lists and written out once, at
the end of a run.  Nothing is recorded while no op is open, so checks and
bookkeeping done by the benchmark between ops stay out of the trace.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

_FLOAT_BYTES = 8


def _iterations(args, kwargs, out):
    return out.iterations


def _iterations_and_cap(args, kwargs, out):
    from voxseg.fcm import FcmConfig
    cfg = next((a for a in (*args, *kwargs.values()) if isinstance(a, FcmConfig)),
               FcmConfig())
    return [out.iterations, cfg.max_iterations]


def _gather_bytes(args, kwargs, out):
    # computed, not measured: every offset reads one membership row per voxel
    ctx, centers = args[0], args[2]
    offsets = (len(ctx.offsets) if hasattr(ctx, "offsets")
               else sum(ctx.table.counts))
    return offsets * ctx.data.size * np.asarray(centers).size * _FLOAT_BYTES


def _on_bound(args, kwargs, out):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])
    return float(np.any((out.position <= lo) | (out.position >= hi)))


def _size_of_path(index):
    def info(args, kwargs, out):
        path = args[index] if len(args) > index else kwargs["path"]
        return os.path.getsize(path)
    return info


# (module, attribute, span name, info recorded from (args, kwargs, result))
TARGETS = (
    ("voxseg.fcm", "gmm_init", "fcm.gmm_init", None),
    ("voxseg.fcm", "fcm", "fcm.fcm", _iterations),
    ("voxseg.fcm", "gmm_fcm", "fcm.gmm_fcm", None),
    ("voxseg.fcm", "update_membership", "fcm.update_membership", None),
    ("voxseg.fcm", "update_centers", "fcm.update_centers", None),
    ("voxseg.fcm", "jm_cost", "fcm.jm_cost", None),
    ("voxseg.attraction", "PlaneContext.attraction_terms", "attraction.terms2d", _gather_bytes),
    ("voxseg.attraction", "SliceContext.attraction_terms", "attraction.terms3d", _gather_bytes),
    ("voxseg.attraction", "ifcm_step", "attraction.step", None),
    ("voxseg.attraction", "plane_context", "attraction.context", None),
    ("voxseg.attraction", "slice_context", "attraction.context", None),
    ("voxseg.optimize", "pso_minimize", "optimize.search", _on_bound),
    ("voxseg.optimize", "ga_minimize", "optimize.search", _on_bound),
    ("voxseg.pipelines", "ifcm", "pipelines.segment", _iterations_and_cap),
    ("voxseg.pipelines", "pso_ifcm", "pipelines.segment", _iterations_and_cap),
    ("voxseg.pipelines", "ga_ifcm", "pipelines.segment", _iterations_and_cap),
    ("voxseg.pipelines", "pso_ifcm_3d", "pipelines.segment", _iterations_and_cap),
    ("voxseg.phantom", "generate_phantom", "phantom.generate", None),
    ("voxseg.noise", "add_noise", "noise.add", None),
    ("voxseg.bench", "run_cell", "bench.cell", None),
    ("voxseg.volume", "load_volume", "volume.load", _size_of_path(0)),
    ("voxseg.volume", "load_labels", "volume.load", _size_of_path(0)),
    ("voxseg.volume", "save_volume", "volume.save", _size_of_path(1)),
    ("voxseg.metrics", "evaluate_labels", "metrics.evaluate", None),
    ("voxseg.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def in_op(self, op_id):
        """Record spans under ``op_id`` (an int, or "setup") while open."""
        self.op = op_id
        self._stack.clear()
        try:
            yield
        finally:
            self.op = None

    def wrap(self, name, fn, info=None, wrap_first_arg=None):
        """``fn`` recording a ``name`` span per call while an op is open.

        ``wrap_first_arg`` names a span to put around the callable passed
        as the first argument (the optimisers' objective).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if wrap_first_arg is not None:
                args = (tracer.wrap(wrap_first_arg, args[0]),) + args[1:]
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                      tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def _voxseg_modules():
    return [m for n, m in list(sys.modules.items())
            if (n == "voxseg" or n.startswith("voxseg.")) and m is not None]


@contextmanager
def patched(tracer: Tracer):
    """Route every call to a :data:`TARGETS` entry through ``tracer``."""
    for module_name in {t[0] for t in TARGETS}:
        importlib.import_module(module_name)
    modules = _voxseg_modules()
    undo = []
    try:
        for module_name, attr, name, info in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                places = [owner]
            else:
                places = None
            original = getattr(owner, attr)
            first = "optimize.eval" if name == "optimize.search" else None
            wrapper = tracer.wrap(name, original, info, first)
            if places is None:
                places = [m for m in modules if vars(m).get(attr) is original]
            for place in places:
                undo.append((place, attr, original))
                setattr(place, attr, wrapper)
        yield tracer
    finally:
        for place, attr, original in reversed(undo):
            setattr(place, attr, original)


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def _names_above(spans, index):
    names = set()
    parent = spans[index][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer totals over the traced ops, each divided by ``ops``.

    Spans recorded under the "setup" op count once, undivided, towards
    ``phantom.busy_s`` and ``noise.busy_s`` (busy time of one set-up plus
    one op).
    """
    selfs = self_times(spans)
    total = {}
    self_total = {}
    calls = {}
    infos = {}
    setup_self = {}
    for i, s in enumerate(spans):
        name = s[0]
        if s[4] == "setup":
            setup_self[name] = setup_self.get(name, 0.0) + selfs[i]
            continue
        total[name] = total.get(name, 0.0) + s[2] - s[1]
        self_total[name] = self_total.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        if s[5] is not None:
            infos.setdefault(name, []).append(s[5])

    def per_op(table, *names):
        return sum(table.get(n, 0.0) for n in names) / ops

    def mean_info(name):
        vals = infos.get(name, [])
        return float(np.mean(vals)) if vals else 0.0

    def info_per_op(*names):
        return sum(sum(infos.get(n, [])) for n in names) / ops

    converge_steps = sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0] == "attraction.step" and s[4] != "setup"
        and "pipelines.segment" in (above := _names_above(spans, i))
        and "optimize.search" not in above)
    segments = infos.get("pipelines.segment", [])
    seg_iters = [it for it, _ in segments]
    return {
        "fcm.gmm_init_s": per_op(self_total, "fcm.gmm_init"),
        "fcm.gmm_init_calls": per_op(calls, "fcm.gmm_init"),
        "fcm.fcm_s": per_op(self_total, "fcm.fcm", "fcm.gmm_fcm"),
        "fcm.fcm_iterations": mean_info("fcm.fcm"),
        "fcm.update_membership_s": per_op(self_total, "fcm.update_membership"),
        "fcm.update_membership_calls": per_op(calls, "fcm.update_membership"),
        "fcm.update_centers_s": per_op(self_total, "fcm.update_centers"),
        "fcm.jm_cost_s": per_op(self_total, "fcm.jm_cost"),
        "attraction.terms_s": per_op(self_total, "attraction.terms2d", "attraction.terms3d"),
        "attraction.terms2d_calls": per_op(calls, "attraction.terms2d"),
        "attraction.terms3d_calls": per_op(calls, "attraction.terms3d"),
        "attraction.step_self_s": per_op(self_total, "attraction.step"),
        "attraction.step_calls": per_op(calls, "attraction.step"),
        "attraction.context_s": per_op(self_total, "attraction.context"),
        "attraction.gather_bytes": info_per_op("attraction.terms2d", "attraction.terms3d"),
        "optimize.search_s": per_op(total, "optimize.search"),
        "optimize.evaluations": per_op(calls, "optimize.eval"),
        "optimize.eval_s": per_op(total, "optimize.eval"),
        "optimize.self_s": per_op(self_total, "optimize.search"),
        "optimize.weights_on_bound_frac": mean_info("optimize.search"),
        "pipelines.segment_s": per_op(total, "pipelines.segment"),
        "pipelines.self_s": per_op(self_total, "pipelines.segment"),
        "pipelines.iterations": float(np.mean(seg_iters)) if seg_iters else 0.0,
        "pipelines.s_per_iteration": (converge_steps / sum(seg_iters)
                                      if sum(seg_iters) else 0.0),
        "phantom.busy_s": setup_self.get("phantom.generate", 0.0)
                          + per_op(self_total, "phantom.generate"),
        "noise.busy_s": setup_self.get("noise.add", 0.0) + per_op(self_total, "noise.add"),
        "volume.bytes_read": info_per_op("volume.load"),
        "volume.bytes_written": info_per_op("volume.save"),
        "bench.cell_self_s": per_op(self_total, "bench.cell"),
        "volume.load_s": per_op(self_total, "volume.load"),
        "volume.save_s": per_op(self_total, "volume.save"),
        "cli.self_s": per_op(self_total, "cli.main"),
        "metrics.evaluate_s": per_op(self_total, "metrics.evaluate"),
    }
