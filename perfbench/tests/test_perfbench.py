"""Tests of the benchmark itself, on its smoke scale.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import argparse
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def _args(workload, seed=0, trace=0, seconds=0.01):
    return argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace,
                              smoke=True, setup_child=False, work_dir=None)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    detail, result = run.run(_args(workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = detail["env"]
    assert env["nproc"] >= 1 and env["seed"] == 0 and env["numpy"] == np.__version__
    assert detail["samples"]["op_s_p50"] == result["attempted"]


@pytest.mark.parametrize("workload, entry", [("segment-3d-96", "attraction.terms3d_calls"),
                                             ("matrix-2d-96", "attraction.terms2d_calls"),
                                             ("segment-3d-paper", "volume.bytes_read")])
def test_traced_run_reports_every_layer_and_unpatches(workload, entry):
    pipelines = importlib.import_module("voxseg.pipelines")
    before = pipelines.pso_ifcm_3d
    detail, result = run.run(_args(workload, trace=1))
    assert result["correct"]
    assert list(result["metrics"]) == list(run.PER_LAYER)
    assert set(detail["one_workload_layers"]) == {
        "bench.cell_self_s", "cli.self_s", "volume.load_s", "volume.save_s"}
    assert pipelines.pso_ifcm_3d is before
    assert result["metrics"]["trace.ops"]["value"] >= 1
    assert result["metrics"][entry]["value"] > 0
    # every time is measured on every workload, never a constant 0 s
    assert all(m["value"] > 0 for m in result["metrics"].values() if m["unit"] == "s")


def test_plain_copies_run_unpatched_and_the_order_alternates(monkeypatch):
    pipelines = importlib.import_module("voxseg.pipelines")
    original = pipelines.pso_ifcm_3d
    real = workloads.Segment3d96.run
    patched = []

    def spy(self, op):
        patched.append(pipelines.pso_ifcm_3d is not original)
        return real(self, op)

    monkeypatch.setattr(workloads.Segment3d96, "run", spy)
    _, result = run.run(_args("segment-3d-96", trace=1))
    assert result["correct"]
    # the smoke block holds two ops; seed 0 starts with the plain copy
    assert patched == [False, True, True, False]


def test_checks_stay_out_of_the_trace():
    # the paper check reloads the label file; only the CLI's own loads of
    # the noisy and truth volumes may count
    _, result = run.run(_args("segment-3d-paper", trace=1))
    header = 4 + 13  # magic, dtype code and dims
    noisy, truth = header + 4 + 4 * 16 ** 3, header + 16 ** 3
    assert result["metrics"]["volume.bytes_read"]["value"] == noisy + truth


def test_accuracy_repeats_exactly_at_one_seed():
    first, _ = run.run(_args("segment-3d-96", seed=3))
    again, _ = run.run(_args("segment-3d-96", seed=3, seconds=0.2))
    assert first["accuracy"] == again["accuracy"]


def _corrupt_labels(result):
    labels = result.labels.labels.copy()
    labels.flat[0] = 7
    return dataclasses.replace(result, labels=type(result.labels)(result.labels.dims, labels))


def _corrupt_dims(result):
    nx, ny, _ = result.labels.dims
    flat = np.zeros((nx, ny, 2), dtype=np.uint8)
    return dataclasses.replace(result, labels=type(result.labels)((nx, ny, 2), flat))


def _corrupt_membership(result):
    return dataclasses.replace(result, membership=result.membership * 0.5)


@pytest.mark.parametrize("corrupt", [_corrupt_labels, _corrupt_dims, _corrupt_membership])
def test_corrupted_result_counts_as_failed(monkeypatch, corrupt):
    real = workloads.Segment3d96.run

    def corrupted(self, op):
        result, scores = real(self, op)
        return corrupt(result), scores

    monkeypatch.setattr(workloads.Segment3d96, "run", corrupted)
    detail, result = run.run(_args("segment-3d-96"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert detail["failures"]


def test_failed_bench_row_counts_as_failed(monkeypatch):
    real = workloads.Matrix2d96.run

    def broken(self, op):
        rows = real(self, op)
        rows[0]["status"] = "error: injected"
        return rows

    monkeypatch.setattr(workloads.Matrix2d96, "run", broken)
    _, result = run.run(_args("matrix-2d-96"))
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None],
             ["d", 5.0, 9.0, 0, 0, None]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_converge_time_excludes_search_steps():
    spans = [["pipelines.segment", 0.0, 10.0, -1, 0, [2, 150]],
             ["optimize.search", 0.0, 4.0, 0, 0, 1.0],
             ["attraction.step", 1.0, 2.0, 1, 0, None],
             ["attraction.step", 5.0, 6.0, 0, 0, None],
             ["attraction.step", 6.0, 8.0, 0, 0, None]]
    layers = tracing.layer_metrics(spans, ops=1)
    assert layers["pipelines.s_per_iteration"] == 1.5
    assert layers["pipelines.iterations"] == 2
    assert layers["optimize.weights_on_bound_frac"] == 1.0
    assert layers["attraction.step_self_s"] == 4.0 / 1


def test_benchmark_json_matches_the_command():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "matrix-2d-96",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
