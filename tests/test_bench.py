"""Benchmark harness: cell rows, comparisons, sweeps, CSV output."""

import io
from dataclasses import replace

import numpy as np
import pytest

from voxseg import bench
from voxseg.attraction import AttractionParams
from voxseg.bench import (ALGORITHMS, COMPARISON_COLUMNS, REPORT_COLUMNS,
                          SWEEP_COLUMNS, BenchConfig, comparison_rows,
                          prepare_field, resolve_slice, run_benchmark, run_cell,
                          run_sweep, write_csv)
from voxseg.errors import ValidationError
from voxseg.fcm import FcmConfig, gmm_fcm
from voxseg.metrics import defuzzify, evaluate_labels, relative_improvement
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import GaConfig, PsoConfig
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.volume import SliceRef, extract_slice, load_labels, save_volume


def small_config(**overrides) -> BenchConfig:
    base = dict(algorithms=("fcm",), noise_kinds=("gaussian",),
                noise_percents=(5.0,), seeds=(0,), dims=(24, 24, 24), shells=2,
                swarm_size=4, pso_max_iter=2, population=6, generations=2)
    base.update(overrides)
    return BenchConfig(**base)


def cell(cfg: BenchConfig, algorithm: str, *noise):
    """``run_cell`` on the field at ``noise`` of the source a run of ``cfg`` builds."""
    return run_cell(cfg, prepare_field(cfg, bench._source(cfg), *noise), algorithm)


def reference_scores(cfg: BenchConfig, kind: str, percent: float, seed: int):
    # mirror of the fcm cell: phantom -> noise -> slice -> fcm -> score
    vol, truth = generate_phantom(PhantomSpec(dims=cfg.dims, num_shells=cfg.shells))
    noisy = add_noise(vol, NoiseSpec(kind, percent, seed))
    ref = resolve_slice(cfg.slice_spec, vol.dims)
    plane = extract_slice(noisy, ref)
    fit = gmm_fcm(plane, cfg.cluster_count, cfg.fcm_config())
    labels = defuzzify(fit.membership, plane.dims)
    scores = evaluate_labels(labels, extract_slice(truth, ref),
                             cfg.cluster_count, cfg.literal_incs)
    return scores, fit.iterations


class TestResolveSlice:
    def test_mid_is_middle_z_plane(self):
        ref = resolve_slice("mid", (24, 24, 24))
        assert (ref.axis, ref.index) == ("z", 12)
        ref = resolve_slice("mid", (10, 10, 31))
        assert (ref.axis, ref.index) == ("z", 15)

    def test_explicit_reference_passes_through(self):
        ref = resolve_slice("y:3", (24, 24, 24))
        assert (ref.axis, ref.index) == ("y", 3)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValidationError):
            resolve_slice("q:1", (24, 24, 24))


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            small_config(algorithms=("fcm", "kmeans"))

    def test_empty_matrix_axis(self):
        with pytest.raises(ValidationError):
            small_config(seeds=())
        with pytest.raises(ValidationError):
            small_config(noise_percents=())
        with pytest.raises(ValidationError):
            small_config(algorithms=())

    def test_volume_requires_truth(self):
        with pytest.raises(ValidationError):
            small_config(volume_path="vol.vxf")
        with pytest.raises(ValidationError):
            small_config(truth_path="truth.vxf")

    @pytest.mark.parametrize("bad", [
        {"fuzziness": 0.5}, {"tolerance": 0.0}, {"max_iterations": 0},
        {"depth": 9}, {"level": 1}, {"decay": 0.0}, {"feature_weight": 1.5},
        {"swarm_size": 1}, {"pso_max_iter": 0}, {"population": 1}, {"generations": 0},
        {"noise_kinds": ("gaussian", "speckle")}, {"noise_percents": (5.0, 150.0)},
        {"seeds": (0, -1)}, {"clusters": 0}, {"clusters": -2}, {"clusters": 257},
        {"slice_spec": "q:1"},
        {"dims": (8, 8)}, {"dims": (0, 8, 8)}, {"shells": 1}, {"dims": (4, 4, 4), "shells": 4},
    ], ids=lambda bad: next(iter(bad)))
    def test_bad_setting_fails_when_built(self, bad):
        # refused once, not in an error row for every cell
        with pytest.raises(ValidationError):
            small_config(**bad)

    @pytest.mark.parametrize("spec", ["z:24", "x:30"])
    def test_slice_off_the_phantom_fails_when_built(self, monkeypatch, spec):
        # checked against dims alone: no phantom is built for it
        monkeypatch.setattr(bench, "generate_phantom",
                            lambda *args: pytest.fail("a phantom was built"))
        with pytest.raises(IndexError, match="out of range for dims"):
            small_config(slice_spec=spec)
        small_config(slice_spec="z:23")

    def test_phantom_dims_keep_the_phantom_check(self):
        # malformed dims get the phantom's typed error, not the slice check's
        with pytest.raises(ValidationError, match="three positive integers"):
            run_benchmark(small_config(dims=(24, 24)))

    def test_method_defaults_are_their_owners(self):
        # BenchConfig takes each method default from the class that checks
        # it; only the fixed ifcm weights are its own
        cfg = BenchConfig()
        assert cfg.fcm_config() == FcmConfig()
        assert cfg.attraction_params() == AttractionParams(0.5, 0.5)
        assert cfg.pso_config(3) == PsoConfig(seed=3)
        assert cfg.ga_config(3) == GaConfig(seed=3)

    def test_cluster_count_defaults_to_shells(self):
        assert small_config(shells=3).cluster_count == 3
        assert small_config(shells=3, clusters=2).cluster_count == 2


class TestRunCell:
    def test_fcm_mean_row_matches_direct_scoring(self):
        cfg = small_config()
        rows = cell(cfg, "fcm", "gaussian", 5.0, 0)
        assert len(rows) == 1
        row = rows[0]
        scores, iterations = reference_scores(cfg, "gaussian", 5.0, 0)
        assert row["algorithm"] == "fcm"
        assert row["noise_kind"] == "gaussian"
        assert row["noise_percent"] == "5"
        assert row["seed"] == 0
        assert row["cluster"] == "mean"
        assert row["UnS"] == format(scores["mean_uns"], ".10g")
        assert row["OS"] == format(scores["mean_os"], ".10g")
        assert row["IncS"] == format(scores["mean_incs"], ".10g")
        assert row["iterations"] == iterations
        assert (row["lambda"], row["xi"], row["h"], row["v"]) == ("", "", "", "")
        assert row["status"] == "ok"
        assert float(row["wall_time_ms"]) > 0.0
        assert set(row) == set(REPORT_COLUMNS)

    def test_per_cluster_rows_precede_mean(self):
        cfg = small_config(per_cluster=True)
        rows = cell(cfg, "fcm", "gaussian", 5.0, 0)
        assert len(rows) == cfg.cluster_count + 1
        assert [r["cluster"] for r in rows] == [0, 1, "mean"]
        scores, _ = reference_scores(cfg, "gaussian", 5.0, 0)
        for row, entry in zip(rows, scores["per_cluster"]):
            assert row["cluster"] == entry["cluster"]
            assert row["IncS"] == format(entry["incs"], ".10g")

    def test_literal_error_share(self):
        cfg = small_config(literal_incs=True, noise_percents=(20.0,))
        rows = cell(cfg, "fcm", "gaussian", 20.0, 0)
        scores, _ = reference_scores(cfg, "gaussian", 20.0, 0)
        assert rows[0]["IncS"] == format(scores["mean_incs"], ".10g")
        assert float(rows[0]["IncS"]) > 0.0
        plain, _ = reference_scores(replace(cfg, literal_incs=False),
                                    "gaussian", 20.0, 0)
        assert scores["mean_incs"] != plain["mean_incs"]

    def test_volumetric_pipeline_reports_its_settings(self):
        cfg = small_config(dims=(16, 16, 16), decay=1.5, depth=2)
        rows = cell(cfg, "3dpifcm", "gaussian", 5.0, 0)
        row = rows[0]
        assert row["status"] == "ok"
        assert row["h"] == "1.5"
        assert row["v"] == 2
        assert 0.0 <= float(row["lambda"]) <= 1.0
        assert 0.0 <= float(row["xi"]) <= 1.0
        assert row["iterations"] >= 1

    def test_failure_becomes_status_row(self):
        cfg = small_config()
        rows = cell(cfg, "fcm", "gaussian", 150.0, 0)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"].startswith("error:")
        assert (row["cluster"], row["UnS"], row["OS"], row["IncS"], row["stop_reason"]) == \
            ("", "", "", "", "")
        assert row["wall_time_ms"] != ""

    def test_external_volume_source(self, tmp_path):
        cfg = small_config()
        external = external_config(tmp_path, cfg)
        assert strip_times(cell(external, "fcm", "gaussian", 5.0, 0)) == \
            strip_times(cell(cfg, "fcm", "gaussian", 5.0, 0))

    def test_single_slice_truth_scores_like_the_full_truth(self, tmp_path):
        cfg = small_config(slice_spec="y:5")
        external = external_config(tmp_path, cfg)
        truth = extract_slice(load_labels(external.truth_path), SliceRef("y", 5))
        save_volume(truth, external.truth_path)
        assert strip_times(cell(external, "fcm", "gaussian", 5.0, 0)) == \
            strip_times(cell(cfg, "fcm", "gaussian", 5.0, 0))


def external_config(tmp_path, cfg, truth_dims=None):
    """``cfg`` on its phantom saved to disk, the truth built at ``truth_dims``."""
    vol, _ = generate_phantom(PhantomSpec(dims=cfg.dims, num_shells=cfg.shells))
    _, truth = generate_phantom(PhantomSpec(dims=truth_dims or cfg.dims,
                                            num_shells=cfg.shells))
    save_volume(vol, tmp_path / "vol.vxf")
    save_volume(truth, tmp_path / "truth.vxf")
    return replace(cfg, volume_path=str(tmp_path / "vol.vxf"),
                   truth_path=str(tmp_path / "truth.vxf"))


def strip_times(rows):
    return [{k: v for k, v in row.items() if k != "wall_time_ms"} for row in rows]


class TestRunBenchmark:
    def test_rows_follow_config_order(self):
        cfg = small_config(algorithms=("fcm", "ifcm"), seeds=(0, 1))
        rows, _ = run_benchmark(cfg)
        key = [(r["algorithm"], r["seed"]) for r in rows]
        assert key == [("fcm", 0), ("fcm", 1), ("ifcm", 0), ("ifcm", 1)]

    def test_repeat_runs_identical_up_to_wall_time(self):
        cfg = small_config(algorithms=("fcm", "ifcm"))
        first, first_cmp = run_benchmark(cfg)
        second, second_cmp = run_benchmark(cfg)
        assert strip_times(first) == strip_times(second)
        assert first_cmp == second_cmp

    def test_worker_processes_match_serial_run(self):
        # each worker runs whole fields, so its cells share a field's start
        cfg = small_config(algorithms=("fcm", "ifcm", "3dpifcm"), seeds=(0, 1))
        serial, _ = run_benchmark(cfg, threads=1)
        parallel, _ = run_benchmark(cfg, threads=2)
        assert strip_times(serial) == strip_times(parallel)
        sweep = [run_sweep(cfg, "percent", (5.0, 9.0), "fcm", threads=threads)
                 for threads in (1, 2)]
        assert sweep[0] == sweep[1]

    def test_pool_opens_no_more_workers_than_fields(self, monkeypatch):
        # a worker past the field count would be forked and handed the source
        # for nothing, so one field runs in this process and two get two workers
        cfg = small_config(algorithms=("fcm", "3dpifcm"))
        serial, serial_cmp = run_benchmark(cfg, threads=1)
        pools = []

        class Counted(bench.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", Counted)
        threaded, threaded_cmp = run_benchmark(cfg, threads=2)
        assert pools == []
        assert strip_times(threaded) == strip_times(serial) and threaded_cmp == serial_cmp
        run_benchmark(replace(cfg, algorithms=("fcm",), seeds=(0, 1)), threads=3)
        assert pools == [2]

    @pytest.mark.parametrize("source", ["phantom", "volume"])
    def test_source_built_once_per_run(self, tmp_path, monkeypatch, source):
        # every cell, and every sweep grid point, shares the one build
        cfg = small_config(algorithms=("fcm", "ifcm"), seeds=(0, 1))
        if source == "volume":
            cfg = external_config(tmp_path, cfg)
        builds = []
        for name in ("generate_phantom", "load_volume", "load_labels"):
            real = getattr(bench, name)
            monkeypatch.setattr(bench, name, lambda *args, real=real, name=name:
                                builds.append(name) or real(*args))
        once = ["generate_phantom"] if source == "phantom" else ["load_volume", "load_labels"]
        run_benchmark(cfg)
        assert builds == once
        builds.clear()
        run_sweep(cfg, "h", (1.0, 1.5, 2.0), "3dpifcm")
        assert builds == once

    @pytest.mark.parametrize("spec, plane", [("mid", (24, 24, 1)), ("x:0", (1, 24, 24))])
    def test_only_the_truths_scored_plane_is_read(self, tmp_path, monkeypatch, spec, plane):
        # the volume is read whole, as each field's noise is drawn over all of it
        cfg = external_config(tmp_path, small_config(slice_spec=spec))
        read = []
        for name in ("load_volume", "load_labels"):
            def spy(*args, real=getattr(bench, name)):
                grid = real(*args)
                read.append(grid.dims)
                return grid
            monkeypatch.setattr(bench, name, spy)
        run_benchmark(cfg)
        run_sweep(cfg, "percent", (5.0,), "fcm")
        assert read == [(24, 24, 24), plane] * 2

    def test_threaded_sweep_opens_one_pool(self, monkeypatch):
        # one pool for the whole grid; its workers get the source once, so
        # each task carries only its configs and field: the run's config, the
        # (config, algorithm) cells on the field, and its kind, percent and seed
        pools, sent = [], set()

        class Counted(bench.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

            def map(self, fn, *columns):
                columns = [list(column) for column in columns]
                sent.update(type(arg).__name__ for column in columns for arg in column)
                return super().map(fn, *columns)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", Counted)
        rows = run_sweep(small_config(), "percent", (5.0, 9.0, 12.0), "fcm", threads=2)
        assert len(rows) == 3 and all(row["mean_incs"] for row in rows)
        assert pools == [2]
        assert sent == {"BenchConfig", "tuple", "str", "float", "int"}

    def test_thread_count_validated(self):
        with pytest.raises(ValidationError):
            run_benchmark(small_config(), threads=0)

    @pytest.mark.parametrize("spec, truth_dims, error", [
        ("mid", (16, 16, 16), ValidationError), ("z:30", None, IndexError),
        ("x:20", (16, 24, 24), IndexError),
    ])
    def test_loaded_slice_checked_before_any_cell(self, tmp_path, monkeypatch, spec,
                                                  truth_dims, error):
        # the slice must lie inside the loaded volume, and the truth cover it
        cfg = replace(external_config(tmp_path, small_config(), truth_dims), slice_spec=spec)
        monkeypatch.setattr(bench, "segment", lambda *args, **kwargs: pytest.fail("a cell ran"))
        with pytest.raises(error):
            run_benchmark(cfg)
        with pytest.raises(error):
            run_sweep(cfg, "percent", (5.0, 9.0), "fcm")

    def test_log_line_per_cell(self):
        cfg = small_config(seeds=(0, 1))
        lines = []
        rows, _ = run_benchmark(cfg, log=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("fcm gaussian 5.0% seed=0 IncS=")
        assert lines[0].endswith("[ok]")


def counted(monkeypatch, name, calls, fail=lambda *args: False):
    """``bench.<name>`` counting its calls into ``calls``, raising where ``fail`` says."""
    real = getattr(bench, name)

    def call(*args):
        calls.append(name)
        if fail(*args):
            raise RuntimeError(f"{name} failed")
        return real(*args)

    monkeypatch.setattr(bench, name, call)


class TestSharedField:
    def test_one_noise_draw_and_one_start_per_field(self, monkeypatch):
        calls = []
        for name in ("add_noise", "gmm_fcm"):
            counted(monkeypatch, name, calls)
        cfg = small_config(algorithms=("fcm", "ifcm", "ifcmpso", "gaifcm"), seeds=(0, 1),
                           dims=(16, 16, 16))
        rows, _ = run_benchmark(cfg)
        assert [r["status"] for r in rows] == ["ok"] * 8
        assert sorted(calls) == ["add_noise"] * 2 + ["gmm_fcm"] * 2
        calls.clear()
        rows = run_sweep(replace(cfg, depth=2), "h", (0.5, 1.0, 1.5), "3dpifcm")
        assert all(row["mean_incs"] for row in rows)
        assert sorted(calls) == ["add_noise"] * 2 + ["gmm_fcm"] * 2

    def test_cells_match_their_own_noise_and_start(self):
        # a cell on the shared field reports what segmenting the field alone does
        cfg = small_config(algorithms=ALGORITHMS, dims=(16, 16, 16), depth=2)
        rows, _ = run_benchmark(cfg)
        vol, ref, truth = bench._source(cfg)
        noisy = add_noise(vol, NoiseSpec("gaussian", 5.0, 0))
        for algorithm, row in zip(ALGORITHMS, rows):
            result = cfg.segment(algorithm, noisy, ref, 0)
            scores = evaluate_labels(result.labels, truth, cfg.cluster_count)
            assert row["IncS"] == format(scores["mean_incs"], ".10g"), algorithm
            assert row["iterations"] == result.iterations, algorithm
            assert row["stop_reason"] == result.stop_reason, algorithm

    def test_failed_start_fails_only_its_fields_rows(self, monkeypatch):
        # the start fit raises on seed 1's field; seed 0's cells still run
        calls, seeds = [], []
        real_noise = bench.add_noise
        monkeypatch.setattr(bench, "add_noise",
                            lambda vol, spec: seeds.append(spec.seed) or real_noise(vol, spec))
        counted(monkeypatch, "gmm_fcm", calls, fail=lambda *args: seeds[-1] == 1)
        cfg = small_config(algorithms=("fcm", "ifcm", "3dpifcm"), seeds=(0, 1),
                           dims=(16, 16, 16), depth=2)
        rows, comparison = run_benchmark(cfg)
        assert [(r["algorithm"], r["seed"]) for r in rows] == [
            (algorithm, seed) for algorithm in cfg.algorithms for seed in (0, 1)]
        for row in rows:
            if row["seed"] == 1:
                assert row["status"] == "error: gmm_fcm failed"
                assert row["IncS"] == "" and row["wall_time_ms"] != ""
            else:
                assert row["status"] == "ok"
        assert len(comparison) == 2 and len(calls) == 2


class TestComparison:
    def test_rows_against_reference_means(self):
        cfg = small_config(algorithms=("fcm", "3dpifcm"), dims=(16, 16, 16),
                           noise_percents=(15.0,), seeds=(0, 1))
        rows, comparison = run_benchmark(cfg)

        def mean_incs(algorithm):
            vals = [float(r["IncS"]) for r in rows
                    if r["algorithm"] == algorithm and r["cluster"] == "mean"]
            return float(np.mean(vals))

        assert len(comparison) == 1
        row = comparison[0]
        assert row["algorithm_a"] == "fcm"
        assert row["noise_kind"] == "gaussian"
        assert row["noise_percent"] == "15"
        assert float(row["mean_incs_a"]) == pytest.approx(mean_incs("fcm"), rel=1e-9)
        assert float(row["mean_incs_3dpifcm"]) == pytest.approx(
            mean_incs("3dpifcm"), rel=1e-9)
        assert mean_incs("fcm") > 0.0
        expected = relative_improvement(mean_incs("fcm"), mean_incs("3dpifcm"))
        assert float(row["relative_improvement_pct"]) == pytest.approx(
            expected, rel=1e-6)
        assert set(row) == set(COMPARISON_COLUMNS)

    def test_gain_left_blank_when_reference_is_perfect(self):
        # the reference run makes no errors here, so the percent gain has
        # no defined value and the column stays empty
        cfg = small_config(algorithms=("fcm", "3dpifcm"), dims=(16, 16, 16),
                           seeds=(0, 1))
        rows, comparison = run_benchmark(cfg)
        assert comparison[0]["mean_incs_a"] == "0"
        assert comparison[0]["relative_improvement_pct"] == ""

    def test_empty_without_volumetric_entry(self):
        cfg = small_config(algorithms=("fcm", "ifcm"))
        rows, comparison = run_benchmark(cfg)
        assert comparison == []

    def test_failed_cells_drop_out_of_the_means(self):
        cfg = small_config(algorithms=("fcm", "3dpifcm"))
        rows, _ = run_benchmark(cfg)
        # forge an extra failed cell; it must not influence the means
        forged = rows + [dict(rows[0], status="error: boom", IncS="99")]
        assert comparison_rows(cfg, forged) == comparison_rows(cfg, rows)


class TestSweep:
    def test_noise_axis(self):
        cfg = small_config()
        rows = run_sweep(cfg, "percent", (5.0, 9.0), "fcm")
        assert [r["value"] for r in rows] == ["5", "9"]
        for row, percent in zip(rows, (5.0, 9.0)):
            assert row["param"] == "percent"
            assert row["algorithm"] == "fcm"
            assert row["noise_kind"] == "gaussian"
            assert row["noise_percent"] == row["value"]
            assert row["seeds"] == "0"
            scores, _ = reference_scores(cfg, "gaussian", percent, 0)
            assert float(row["mean_incs"]) == pytest.approx(
                scores["mean_incs"], abs=1e-12)
            assert set(row) == set(SWEEP_COLUMNS)

    def test_shell_decay_axis_overrides_config(self):
        cfg = small_config(dims=(16, 16, 16), depth=2)
        rows = run_sweep(cfg, "h", (0.9,), "3dpifcm")
        assert rows[0]["value"] == "0.9"
        bench_rows, _ = run_benchmark(replace(cfg, algorithms=("3dpifcm",),
                                              decay=0.9))
        assert float(rows[0]["mean_incs"]) == pytest.approx(
            float(bench_rows[0]["IncS"]), abs=1e-12)

    def test_depth_axis_coerces_to_int(self):
        cfg = small_config(dims=(16, 16, 16))
        rows = run_sweep(cfg, "v", (2.0,), "3dpifcm")
        assert rows[0]["value"] == "2"
        assert rows[0]["mean_incs"] != ""

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError):
            run_sweep(small_config(), "m", (2.0,), "fcm")

    @pytest.mark.parametrize("param, grid", [("v", (2.0, 9.0)), ("h", (1.0, 0.0)),
                                             ("percent", (5.0, 150.0)), ("v", (2.0, 2.5))])
    def test_bad_grid_value_fails_before_any_cell(self, monkeypatch, param, grid):
        monkeypatch.setattr(bench, "run_cell",
                            lambda *args, **kwargs: pytest.fail("a cell ran"))
        with pytest.raises(ValidationError):
            run_sweep(small_config(), param, grid, "3dpifcm")

    def test_empty_grid_fails_before_the_source_is_built(self, monkeypatch):
        monkeypatch.setattr(bench, "_source", lambda cfg: pytest.fail("the source was built"))
        with pytest.raises(ValidationError, match="at least one value"):
            run_sweep(small_config(), "h", [], "3dpifcm")


class TestWriteCsv:
    ROWS = [{"param": "h", "value": "1.5", "algorithm": "3dpifcm",
             "noise_kind": "gaussian", "noise_percent": "5", "seeds": "0,1",
             "mean_incs": "0.01"}]

    def test_handle_output(self):
        buf = io.StringIO()
        write_csv(self.ROWS, SWEEP_COLUMNS, buf)
        assert buf.getvalue() == (
            "param,value,algorithm,noise_kind,noise_percent,seeds,mean_incs\n"
            'h,1.5,3dpifcm,gaussian,5,"0,1",0.01\n')

    def test_path_output_uses_unix_line_endings(self, tmp_path):
        out = tmp_path / "sweep.csv"
        write_csv(self.ROWS, SWEEP_COLUMNS, out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[0] == ",".join(SWEEP_COLUMNS)
