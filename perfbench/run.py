"""voxseg's benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload segment-3d-96 --seed 0 --seconds 10 --trace 0

Each invocation runs one workload in a fresh process as a closed loop with
one client: it sets the workload up (several times, to time the set-up),
then runs whole blocks of ops until ``--seconds`` of op time have passed,
checks every op's output, and prints two JSON lines on stdout.  A run always
measures at least one block, so a block longer than ``--seconds`` sets the
run's length: at full scale a block takes about 42 s on segment-3d-96
(10 ops), 17 s on matrix-2d-96 (4 ops) and 20 s on segment-3d-paper (one op,
so its ``op_s_p50`` is that one sample).  The first records the
environment (core count, Python and numpy versions, seed, the number of
samples behind each statistic) and the deterministic accuracy figures; the
last is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, once plain and once traced inside :func:`tracing.patched`, the order
alternating from op to op, and reports per-layer metrics from the traced
copies; the first line adds the self times of the layers only one
workload enters (bench cells, the CLI, volume I/O), and the spans go to
``.bench_work/trace-<workload>-seed<n>.jsonl``.
``--smoke`` shrinks every workload (16^3 phantom, 2 shells, swarm 4 x 2) so
a run takes seconds; the benchmark's tests use it.

The program is imported from ``src/`` next to this directory; without it
the command exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one client and no helper threads: pin numpy's native pools before import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

import tracing  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

# name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_s_p50": ("s", "lower"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "mean_incs": ("frac", "lower"),
    "capped_frac": ("frac", "lower"),
    "fcm.gmm_init_s": ("s", "lower"),
    "fcm.gmm_init_calls": ("count", "lower"),
    "fcm.fcm_s": ("s", "lower"),
    "fcm.fcm_iterations": ("count", "lower"),
    "fcm.update_membership_s": ("s", "lower"),
    "fcm.update_membership_calls": ("count", "lower"),
    "fcm.update_centers_s": ("s", "lower"),
    "fcm.jm_cost_s": ("s", "lower"),
    "attraction.terms_s": ("s", "lower"),
    "attraction.terms2d_calls": ("count", "lower"),
    "attraction.terms3d_calls": ("count", "lower"),
    "attraction.step_self_s": ("s", "lower"),
    "attraction.step_calls": ("count", "lower"),
    "attraction.context_s": ("s", "lower"),
    "attraction.gather_bytes": ("computed_B", "lower"),
    "optimize.search_s": ("s", "lower"),
    "optimize.evaluations": ("count", "lower"),
    "optimize.eval_s": ("s", "lower"),
    "optimize.self_s": ("s", "lower"),
    "optimize.weights_on_bound_frac": ("frac", "lower"),
    "pipelines.segment_s": ("s", "lower"),
    "pipelines.self_s": ("s", "lower"),
    "pipelines.iterations": ("count", "lower"),
    "pipelines.s_per_iteration": ("s", "lower"),
    "phantom.busy_s": ("s", "lower"),
    "noise.busy_s": ("s", "lower"),
    "volume.bytes_read": ("B", "lower"),
    "volume.bytes_written": ("B", "lower"),
    # bench.cell_self_s, cli.self_s, volume.load_s and volume.save_s go to
    # the first output line instead: each is spent by one workload only, and
    # would read a constant 0 s on the other two
    "metrics.evaluate_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.ops": ("count", "higher"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="op time to measure, in whole blocks (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="16^3 phantom, 2 shells, swarm 4 x 2")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Put ``src/`` first on the path and import voxseg from there."""
    if not (SRC / "voxseg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no voxseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import voxseg  # noqa: F401


def timed_op(workload, op, scope=None):
    """Run one op, timing only the program's call; the check runs untimed
    and outside ``scope`` (the tracer's op, when tracing)."""
    started = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            out = workload.run(op)
    except Exception as exc:  # a failing op is counted, and the run goes on
        return time.perf_counter() - started, Outcome([f"{type(exc).__name__}: {exc}"])
    elapsed = time.perf_counter() - started
    try:
        return elapsed, workload.check(op, out)
    except Exception as exc:
        return elapsed, Outcome([f"check failed: {type(exc).__name__}: {exc}"])


def measure(workload, seconds: float, tracer=None):
    """Whole blocks of ops until ``seconds`` of op time have been measured.

    Returns ``(records, traced)`` where records are ``(op, seconds,
    outcome)``.  With a tracer each op runs twice, once plain and once with
    the program patched, and ``traced`` holds the patched copies; which copy
    runs first alternates from op to op (starting with the seed's parity, so
    a one-op block alternates across seeds), so neither always finds the
    caches warm.
    """
    records, traced = [], []
    clock = 0.0
    while clock < seconds:
        for op in workload.block():
            if tracer is None:
                elapsed, outcome = timed_op(workload, op)
                records.append((op, elapsed, outcome))
                clock += elapsed
                continue
            traced_first = (workload.seed + len(traced)) % 2 == 1
            for with_spans in (traced_first, not traced_first):
                if not with_spans:
                    records.append((op, *timed_op(workload, op)))
                    continue
                with tracing.patched(tracer):
                    elapsed, outcome = timed_op(workload, op, tracer.in_op(len(traced)))
                traced.append((op, elapsed, outcome))
                clock += elapsed
    return records, traced


def accuracy(records) -> dict:
    """Mean IncS and capped share over the slices of one pass of the block
    (ops repeat exactly, so further passes add nothing)."""
    first = {}
    for op, _, outcome in records:
        first.setdefault(op, outcome)
    good = [o for o in first.values() if not o.problems]
    incs = [x for o in good for x in o.incs]
    capped = [it >= o.cap for o in good for it in o.iterations]
    return {
        "mean_incs": statistics.fmean(incs) if incs else float("nan"),
        "capped_frac": statistics.fmean(capped) if capped else float("nan"),
    }


def _time_setups(workload) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return times


def _setup_times(workload, args) -> list[float]:
    if workload.setup_in_child:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--work-dir", str(workload.work_dir)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        times = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    else:
        times = _time_setups(workload)
    workload.after_setup()
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _environment(args) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def _metric(table, name, value):
    return {"value": float(value), "unit": table[name][0]}


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (detail, result)."""
    WORK.mkdir(exist_ok=True)
    work_dir = Path(args.work_dir) if args.work_dir else WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL, work_dir)
    try:
        if args.setup_child:
            return {}, {"setup_s": _time_setups(workload)}
        detail = {"env": _environment(args)}
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.patched(tracer), tracer.in_op("setup"):
                workload.setup()
            workload.after_setup()
            records, traced = measure(workload, args.seconds, tracer)
            spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            plain = sum(t for _, t, _ in records)
            with_spans = sum(t for _, t, _ in traced)
            values = {**accuracy(traced), **tracing.layer_metrics(tracer.spans, len(traced)),
                      "trace.overhead_frac": with_spans / plain - 1.0,
                      "trace.ops": len(traced)}
            metrics = {name: _metric(PER_LAYER, name, values[name]) for name in PER_LAYER}
            detail["one_workload_layers"] = {k: v for k, v in values.items()
                                             if k not in PER_LAYER}
            detail["spans"] = str(spans_path.relative_to(ROOT))
            detail["samples"] = {"trace.ops": len(traced)}
            records = records + traced
        else:
            setups = _setup_times(workload, args)
            records, _ = measure(workload, args.seconds)
            durations = [t for _, t, _ in records]
            failed = sum(1 for _, _, o in records if o.problems)
            values = {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(durations) / sum(durations),
                "op_s_p50": statistics.median(durations),
                "ok_frac": (len(records) - failed) / len(records),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: _metric(END_TO_END, name, values[name]) for name in END_TO_END}
            detail["accuracy"] = accuracy(records)
            detail["samples"] = {"op_s_p50": len(records), "setup_s": len(setups)}
        failures = [f"op {op}: {'; '.join(o.problems)}" for op, _, o in records if o.problems]
        detail["failures"] = failures[:10]
        result = {"correct": not failures, "attempted": len(records),
                  "failed": len(failures), "metrics": metrics}
        return detail, result
    finally:
        if not args.work_dir:
            shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    detail, result = run(args)
    if args.setup_child:
        print(json.dumps(result))
        return 0
    for line in detail["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
