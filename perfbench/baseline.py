"""Run the benchmark over several seeds and summarise each metric.

From the repository root::

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

Every workload in BENCHMARK.json runs once per seed untraced and once,
at the first seed, traced; each run is its own process, one after another.
The output keeps every run's two JSON lines as the command printed them
and its wall time (``wall_s``, set-up and imports included), plus, per
workload and end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1))


def one_run(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    detail, result = done.stdout.strip().splitlines()[-2:]
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall_s,
            **json.loads(detail), "result": json.loads(result)}


def summarise(runs, names) -> dict:
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"),
                   help="a range lo-hi, at least two seeds")
    p.add_argument("--out", default=None, help="JSON file for all runs and the summary")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "runs": [], "summary": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(spec, workload, seed, 0) for seed in args.seeds]
        report["runs"].extend(runs)
        report["runs"].append(one_run(spec, workload, args.seeds[0], 1))
        report["summary"][workload] = summarise(runs, names)
        for name, s in report["summary"][workload].items():
            print(f"{workload:18s} {name:12s} median {s['median']:.6g}  "
                  f"spread {s['spread']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
