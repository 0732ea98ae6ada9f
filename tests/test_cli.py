"""End-to-end command-line flows, run in process through main()."""

import csv
import re
import subprocess
import sys
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from voxseg import bench, cli
from voxseg.attraction import AttractionParams
from voxseg.bench import (ALGORITHMS, COMPARISON_COLUMNS, REPORT_COLUMNS, SCORE_COLUMNS,
                          SWEEP_COLUMNS, BenchConfig, run_benchmark, score_rows, write_csv)
from voxseg.cli import main
from voxseg.fcm import FcmConfig, gmm_fcm
from voxseg.metrics import defuzzify, evaluate_labels
from voxseg.noise import NoiseSpec, add_noise
from voxseg.optimize import GaConfig, PsoConfig
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import segment
from voxseg.volume import (LabelVolume, SliceRef, extract_slice, load_labels,
                           load_volume, save_volume)

DIMS = (24, 24, 24)


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_assets")
    vol, truth = generate_phantom(PhantomSpec(dims=DIMS, num_shells=2))
    noisy = add_noise(vol, NoiseSpec("gaussian", 5.0, 0))
    paths = {"vol": root / "vol.vxf", "truth": root / "truth.vxf",
             "noisy": root / "noisy.vxf"}
    save_volume(vol, paths["vol"])
    save_volume(truth, paths["truth"])
    save_volume(noisy, paths["noisy"])
    return paths


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_no_command_shows_help_and_fails(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_phantom_writes_volume_and_labels(tmp_path):
    out = tmp_path / "p.vxf"
    labels = tmp_path / "t.vxf"
    code = main(["phantom", "--out", str(out), "--labels", str(labels),
                 "--dims", "24,24,24", "--shells", "2", "--quiet"])
    assert code == 0
    vol = load_volume(out)
    truth = load_labels(labels)
    ref_vol, ref_truth = generate_phantom(PhantomSpec(dims=DIMS, num_shells=2))
    assert vol.dims == DIMS
    assert np.array_equal(vol.data, ref_vol.data)
    assert np.array_equal(truth.labels, ref_truth.labels)


def test_phantom_rejects_bad_dims(tmp_path, capsys):
    out = tmp_path / "p.vxf"
    assert main(["phantom", "--out", str(out), "--dims", "24,24"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_phantom_defaults_are_phantom_spec_defaults(monkeypatch):
    specs = []

    def spy(spec):
        specs.append(spec)
        raise RuntimeError("stopped by the spy")

    monkeypatch.setattr(cli, "generate_phantom", spy)
    assert main(["phantom", "--out", "unused.vxf", "--quiet"]) == 2
    assert specs == [PhantomSpec()]


def test_noise_matches_library(assets, tmp_path):
    out = tmp_path / "n.vxf"
    code = main(["noise", "--in", str(assets["vol"]), "--out", str(out),
                 "--kind", "gaussian", "--percent", "9", "--seed", "3",
                 "--quiet"])
    assert code == 0
    expected = add_noise(load_volume(assets["vol"]),
                         NoiseSpec("gaussian", 9.0, 3))
    assert np.array_equal(load_volume(out).data, expected.data)


def test_noise_missing_input(tmp_path, capsys):
    code = main(["noise", "--in", str(tmp_path / "absent.vxf"),
                 "--out", str(tmp_path / "n.vxf"),
                 "--kind", "gaussian", "--percent", "5"])
    assert code == 1
    assert not (tmp_path / "n.vxf").exists()


def test_noise_corrupt_input(tmp_path, capsys):
    bad = tmp_path / "bad.vxf"
    bad.write_bytes(b"not a volume at all")
    code = main(["noise", "--in", str(bad), "--out", str(tmp_path / "n.vxf"),
                 "--kind", "gaussian", "--percent", "5"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_segment_fcm_full_outputs(assets, tmp_path):
    out = tmp_path / "seg.vxf"
    pgm = tmp_path / "seg.pgm"
    member = tmp_path / "seg.npy"
    metrics = tmp_path / "seg.csv"
    code = main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--slice", "z:12", "--c", "2", "--out", str(out),
                 "--pgm", str(pgm), "--membership", str(member),
                 "--truth", str(assets["truth"]), "--metrics", str(metrics),
                 "--quiet"])
    assert code == 0

    labels = load_labels(out)
    assert labels.dims == (24, 24, 1)

    plane = extract_slice(load_volume(assets["noisy"]), SliceRef("z", 12))
    fit = gmm_fcm(plane, 2, FcmConfig(2.0, 0.01, 150))
    expected = defuzzify(fit.membership, plane.dims)
    assert np.array_equal(labels.labels, expected.labels)

    membership = np.load(member)
    assert membership.shape == (24 * 24, 2)
    assert membership.flags.c_contiguous  # the file's bytes do not follow the fit's layout
    assert np.allclose(membership.sum(axis=1), 1.0, atol=1e-9)

    assert pgm.read_bytes().startswith(b"P5\n24 24\n255\n")

    truth_slice = extract_slice(load_labels(assets["truth"]), SliceRef("z", 12))
    scores = evaluate_labels(labels, truth_slice, 2)
    rows = read_csv(metrics)
    assert [r["cluster"] for r in rows] == ["0", "1", "mean"]
    assert rows[-1]["IncS"] == format(scores["mean_incs"], ".10g")


def test_segment_runs_are_deterministic(assets, tmp_path):
    args = ["segment", "--in", str(assets["noisy"]), "--algo", "ifcmpso",
            "--slice", "z:12", "--c", "2", "--swarm", "4", "--opt-iters", "2",
            "--quiet"]
    first = tmp_path / "a.vxf"
    second = tmp_path / "b.vxf"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_segment_weight_flags_must_pair(assets, tmp_path, capsys):
    out = tmp_path / "seg.vxf"
    code = main(["segment", "--in", str(assets["noisy"]), "--algo", "ifcm",
                 "--lam", "0.4", "--out", str(out)])
    assert code == 1
    assert "--lam and --xi" in capsys.readouterr().err
    assert not out.exists()


def test_segment_unknown_algorithm(assets, tmp_path, capsys):
    code = main(["segment", "--in", str(assets["noisy"]), "--algo", "kmeans",
                 "--out", str(tmp_path / "seg.vxf")])
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_segment_rejects_probe_steps_below_one(assets, tmp_path, capsys, steps):
    # rejected up front, also where nothing would probe (fcm) and in bench
    out = tmp_path / "seg.vxf"
    for algorithm in ("ifcmpso", "fcm"):
        code = main(["segment", "--in", str(assets["noisy"]), "--algo", algorithm,
                     "--slice", "z:12", "--c", "2", "--swarm", "4", "--opt-iters", "2",
                     "--probe-steps", steps, "--out", str(out), "--quiet"])
        assert code == 1
        assert "probe_steps" in capsys.readouterr().err
        assert not out.exists()
    report = tmp_path / "report.csv"
    code = main(["bench", "--algorithms", "fcm,ifcmpso", "--percents", "5",
                 "--seeds", "0", "--dims", "16,16,16", "--shells", "2",
                 "--probe-steps", steps, "--report", str(report), "--quiet"])
    assert code == 1
    assert "probe_steps" in capsys.readouterr().err
    assert not report.exists()


@pytest.fixture
def reads(monkeypatch):
    """(type, dims) of every grid the front ends load, through either module."""
    seen = []
    for module, name in product((bench, cli), ("load_volume", "load_labels")):
        def spy(*args, real=getattr(module, name)):
            grid = real(*args)
            seen.append((type(grid).__name__, grid.dims))
            return grid
        monkeypatch.setattr(module, name, spy)
    return seen


def test_segment_holds_only_the_truth_slice(assets, tmp_path, reads, capsys):
    # no full-size truth is ever read: only its scored plane, and for fcm
    # only that plane of the volume
    code = main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--slice", "z:12", "--c", "2", "--out", str(tmp_path / "seg.vxf"),
                 "--truth", str(assets["truth"]),
                 "--metrics", str(tmp_path / "seg.csv")])
    assert code == 0
    assert reads == [("Volume", (24, 24, 1)), ("LabelVolume", (24, 24, 1))]
    # the log names why the run stopped, after the iteration count
    assert re.search(r"z:12: \d+ iterations, stop=converged, -, wrote",
                     capsys.readouterr().err)


@pytest.fixture(scope="module")
def box(tmp_path_factory):
    """A noisy 14 x 12 x 10 phantom and a truth with both labels on every plane."""
    root = tmp_path_factory.mktemp("box")
    vol, _ = generate_phantom(PhantomSpec(dims=(14, 12, 10), num_shells=2))
    truth = LabelVolume(vol.dims, np.random.default_rng(9).integers(0, 2, vol.dims))
    save_volume(add_noise(vol, NoiseSpec("gaussian", 8.0, 0)), root / "noisy.vxf")
    save_volume(truth, root / "truth.vxf")
    return root


@pytest.mark.parametrize("algorithm, depth", [("fcm", 3), ("ifcmpso", 3),
                                              ("3dpifcm", 3), ("3dpifcm", 5)])
@pytest.mark.parametrize("axis", "xyz")
@pytest.mark.parametrize("where", ["first", "inner", "last"])
def test_segment_of_the_planes_in_reach_writes_the_whole_volume_outputs(
        box, tmp_path, reads, algorithm, depth, axis, where):
    # the CLI reads the planes the algorithm's neighbourhood reaches and the
    # truth's plane; its files are byte for byte those of pipelines.segment
    # run on the whole volume
    dims = (14, 12, 10)
    n = dims["xyz".index(axis)]
    ref = SliceRef(axis, {"first": 0, "inner": 1, "last": n - 1}[where])
    flags = ["--slice", f"{axis}:{ref.index}", "--c", "2", "--v", str(depth),
             "--swarm", "4", "--opt-iters", "2", "--seed", "0", "--quiet"]
    got = {name: tmp_path / f"cli.{name}" for name in ("vxf", "npy", "csv")}
    assert main(["segment", "--in", str(box / "noisy.vxf"), "--algo", algorithm,
                 "--out", str(got["vxf"]), "--membership", str(got["npy"]),
                 "--truth", str(box / "truth.vxf"), "--metrics", str(got["csv"]),
                 *flags]) == 0
    reach = {3: 1, 5: 2}[depth] if algorithm == "3dpifcm" else 0
    slab = tuple(len(ref.window(dims, reach)) if a == axis else d
                 for a, d in zip("xyz", dims))
    plane = ref.plane_dims(dims)
    assert reads == [("Volume", slab), ("LabelVolume", plane)]

    result = segment(algorithm, load_volume(box / "noisy.vxf"), ref, 2, FcmConfig(),
                     AttractionParams(depth=depth), PsoConfig(swarm_size=4, max_iter=2, seed=0))
    want = {name: tmp_path / f"lib.{name}" for name in ("vxf", "npy", "csv")}
    save_volume(result.labels, want["vxf"])
    np.save(want["npy"], result.membership)
    truth = extract_slice(load_labels(box / "truth.vxf"), ref)
    write_csv(score_rows(evaluate_labels(result.labels, truth, 2)), SCORE_COLUMNS, want["csv"])
    for name in want:
        assert got[name].read_bytes() == want[name].read_bytes(), name


def test_eval_slice_reads_only_the_scored_plane(box, tmp_path, reads):
    pred = box / "truth.vxf"
    shifted = tmp_path / "shifted.vxf"
    labels = load_labels(pred).labels
    save_volume(LabelVolume(labels.shape, np.roll(labels, 1, axis=1)), shifted)
    got, want = tmp_path / "eval.csv", tmp_path / "whole.csv"
    assert main(["eval", "--pred", str(shifted), "--truth", str(pred), "--slice", "y:4",
                 "--out", str(got), "--quiet"]) == 0
    assert reads == [("LabelVolume", (14, 1, 10))] * 2
    ref = SliceRef("y", 4)
    scores = evaluate_labels(extract_slice(load_labels(shifted), ref),
                             extract_slice(load_labels(pred), ref), 2)
    write_csv(score_rows(scores), SCORE_COLUMNS, want)
    assert got.read_bytes() == want.read_bytes()


def test_segment_rejects_truth_that_does_not_cover_the_slice(assets, tmp_path,
                                                             monkeypatch, capsys):
    small = tmp_path / "small.vxf"
    save_volume(generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2))[1], small)
    calls = []
    monkeypatch.setattr(bench, "segment", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "seg.vxf"
    code = main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--slice", "z:12", "--c", "2", "--out", str(out),
                 "--truth", str(small)])
    assert code == 1
    assert ("truth dims (16, 16, 16) do not cover slice dims (24, 24, 1)"
            in capsys.readouterr().err)
    assert calls == [] and not out.exists()


def segment_fcm(volume, out, *flags):
    return main(["segment", "--in", str(volume), "--algo", "fcm", "--c", "2",
                 "--out", str(out), "--quiet", *flags])


def test_segment_mid_is_the_middle_z_plane(assets, tmp_path):
    mid, z12 = tmp_path / "mid.vxf", tmp_path / "z12.vxf"
    assert segment_fcm(assets["noisy"], mid, "--slice", "mid") == 0
    assert segment_fcm(assets["noisy"], z12, "--slice", f"z:{DIMS[2] // 2}") == 0
    assert mid.read_bytes() == z12.read_bytes()


@pytest.mark.parametrize("depth, plane", [(24, "z:12"), (60, "z:30"), (61, "z:60")])
def test_segment_default_plane(tmp_path, capsys, depth, plane):
    # z:60 once the volume is deeper than 60 planes, else the middle one
    vol, _ = generate_phantom(PhantomSpec(dims=(8, 8, depth), num_shells=2))
    save_volume(add_noise(vol, NoiseSpec("gaussian", 5.0, 0)), tmp_path / "vol.vxf")
    assert main(["segment", "--in", str(tmp_path / "vol.vxf"), "--algo", "fcm",
                 "--c", "2", "--out", str(tmp_path / "seg.vxf")]) == 0
    assert f"fcm on {plane}: " in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["z:12", "mid", "x:5"])
def test_segment_scores_a_full_and_a_single_slice_truth_alike(assets, tmp_path, spec):
    plane = tmp_path / "plane.vxf"
    save_volume(extract_slice(load_labels(assets["truth"]), bench.resolve_slice(spec, DIMS)),
                plane)
    for name, truth in (("full", assets["truth"]), ("plane", plane)):
        assert segment_fcm(assets["noisy"], tmp_path / f"{name}.vxf", "--slice", spec,
                           "--truth", str(truth), "--metrics", str(tmp_path / f"{name}.csv")) == 0
    assert (tmp_path / "full.csv").read_text() == (tmp_path / "plane.csv").read_text()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_segment_agrees_with_one_bench_cell(tmp_path, monkeypatch, algorithm):
    # both front ends dispatch through pipelines.segment; the same volume,
    # slice, seed and optimiser budget must give the same labels and score,
    # and eval must score the written labels to the same mean row
    dims = (16, 16, 16)
    vol, truth = generate_phantom(PhantomSpec(dims=dims, num_shells=2))
    noisy_path, truth_path = tmp_path / "noisy.vxf", tmp_path / "truth.vxf"
    save_volume(add_noise(vol, NoiseSpec("gaussian", 15.0, 0)), noisy_path)
    save_volume(truth, truth_path)
    out, metrics = tmp_path / "seg.vxf", tmp_path / "seg.csv"
    assert main(["segment", "--in", str(noisy_path), "--algo", algorithm,
                 "--slice", "z:8", "--c", "2", "--swarm", "4", "--opt-iters", "2",
                 "--population", "4", "--seed", "0", "--out", str(out),
                 "--truth", str(truth_path), "--metrics", str(metrics),
                 "--quiet"]) == 0
    evaluated = tmp_path / "eval.csv"
    assert main(["eval", "--pred", str(out), "--truth", str(truth_path), "--slice", "z:8",
                 "--out", str(evaluated), "--quiet"]) == 0
    assert read_csv(evaluated)[-1] == read_csv(metrics)[-1]

    real, cell_results = bench.segment, []

    def spy(*args, **kwargs):
        cell_results.append(real(*args, **kwargs))
        return cell_results[-1]

    monkeypatch.setattr(bench, "segment", spy)
    cfg = BenchConfig(algorithms=(algorithm,), noise_kinds=("gaussian",),
                      noise_percents=(15.0,), seeds=(0,), dims=dims, shells=2,
                      swarm_size=4, pso_max_iter=2, population=4, generations=2)
    rows, _ = run_benchmark(cfg)
    assert rows[-1]["status"] == "ok"
    assert len(cell_results) == 1
    assert np.array_equal(load_labels(out).labels, cell_results[0].labels.labels)
    assert read_csv(metrics)[-1]["IncS"] == rows[-1]["IncS"]


def test_eval_matches_library_scoring(assets, tmp_path):
    seg = tmp_path / "seg.vxf"
    assert main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--slice", "z:12", "--c", "2", "--out", str(seg),
                 "--quiet"]) == 0
    report = tmp_path / "eval.csv"
    code = main(["eval", "--pred", str(seg), "--truth", str(assets["truth"]),
                 "--slice", "z:12", "--out", str(report), "--quiet"])
    assert code == 0
    truth_slice = extract_slice(load_labels(assets["truth"]), SliceRef("z", 12))
    scores = evaluate_labels(load_labels(seg), truth_slice, 2)
    rows = read_csv(report)
    assert rows[-1]["cluster"] == "mean"
    assert rows[-1]["UnS"] == format(scores["mean_uns"], ".10g")
    assert rows[-1]["OS"] == format(scores["mean_os"], ".10g")
    assert rows[-1]["IncS"] == format(scores["mean_incs"], ".10g")


def test_eval_dimension_mismatch(assets, tmp_path, capsys):
    seg = tmp_path / "seg.vxf"
    assert main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--slice", "z:12", "--c", "2", "--out", str(seg),
                 "--quiet"]) == 0
    code = main(["eval", "--pred", str(seg), "--truth", str(assets["truth"])])
    assert code == 1
    assert "do not match" in capsys.readouterr().err


def test_eval_mid_scores_the_middle_z_plane(assets, tmp_path):
    seg = tmp_path / "seg.vxf"
    assert segment_fcm(assets["noisy"], seg, "--slice", "mid") == 0
    for spec in ("mid", "z:12"):
        assert main(["eval", "--pred", str(seg), "--truth", str(assets["truth"]),
                     "--slice", spec, "--out", str(tmp_path / f"{spec}.csv")]) == 0
    assert (tmp_path / "mid.csv").read_text() == (tmp_path / "z:12.csv").read_text()


@pytest.mark.parametrize("spec", ["z:0", "z:12", "z:20", "mid"])
def test_eval_two_single_planes_at_any_index(assets, tmp_path, spec):
    # --slice cuts only a full-depth input; two single z planes are compared as
    # they are, whatever the index
    seg, plane = tmp_path / "seg.vxf", tmp_path / "plane.vxf"
    assert segment_fcm(assets["noisy"], seg, "--slice", "z:12") == 0
    save_volume(extract_slice(load_labels(assets["truth"]), SliceRef("z", 12)), plane)
    for name, flags in (("plain", []), ("sliced", ["--slice", spec])):
        assert main(["eval", "--pred", str(seg), "--truth", str(plane),
                     "--out", str(tmp_path / f"{name}.csv"), *flags]) == 0
    assert (tmp_path / "plain.csv").read_text() == (tmp_path / "sliced.csv").read_text()


def test_eval_undefined_metric_is_runtime_failure(tmp_path, capsys):
    flat = tmp_path / "flat.vxf"
    save_volume(LabelVolume((4, 4, 1), np.zeros((4, 4, 1), dtype=np.uint8)),
                flat)
    code = main(["eval", "--pred", str(flat), "--truth", str(flat),
                 "--c", "2", "--quiet"])
    assert code == 2
    assert "UndefinedMetricError" in capsys.readouterr().err


def test_bench_report_and_comparison(tmp_path):
    # all five algorithms on two noise fields, run on the phantom and on the
    # phantom written to disk, at one and two worker processes: every row is
    # ok, each other algorithm has a comparison row, and the four reports are
    # one report but for wall_time_ms
    volume, truth = str(tmp_path / "vol.vxf"), str(tmp_path / "truth.vxf")
    assert main(["phantom", "--out", volume, "--truth", truth, "--dims", "8,8,8",
                 "--shells", "2", "--quiet"]) == 0
    sources = {"phantom": ["--dims", "8,8,8", "--shells", "2"],
               "volume": ["--volume", volume, "--truth", truth]}
    reports, comparisons = [], []
    for (source, flags), threads in product(sources.items(), ("1", "2")):
        report, compare = (tmp_path / f"{name}-{source}{threads}.csv"
                           for name in ("report", "compare"))
        assert main(["bench", "--algorithms", ",".join(ALGORITHMS), *flags, "--c", "2",
                     "--percents", "5", "--seeds", "0,1", "--swarm", "4", "--opt-iters", "2",
                     "--population", "4", "--threads", threads, "--report", str(report),
                     "--compare", str(compare), "--quiet"]) == 0
        with open(report, newline="") as fh:
            assert tuple(next(csv.reader(fh))) == REPORT_COLUMNS
        rows = read_csv(report)
        assert [(r["algorithm"], r["seed"], r["status"]) for r in rows] == [
            (algorithm, seed, "ok") for algorithm in ALGORITHMS for seed in ("0", "1")]
        cmp_rows = read_csv(compare)
        assert tuple(cmp_rows[0]) == COMPARISON_COLUMNS
        assert [r["algorithm_a"] for r in cmp_rows] == [
            algorithm for algorithm in ALGORITHMS if algorithm != "3dpifcm"]
        reports.append([{k: v for k, v in row.items() if k != "wall_time_ms"} for row in rows])
        comparisons.append(compare.read_bytes())
    assert all(other == reports[0] for other in reports)
    assert all(other == comparisons[0] for other in comparisons)


def test_bench_logs_progress(capsys):
    code = main(["bench", "--algorithms", "fcm", "--percents", "5",
                 "--seeds", "0", "--dims", "16,16,16", "--shells", "2",
                 "--report", "/dev/null"])
    assert code == 0
    err = capsys.readouterr().err
    assert "fcm gaussian 5.0% seed=0" in err


OFF_THE_PHANTOM = "slice z:20 out of range for dims (8, 8, 8)"
TOO_MANY_CLUSTERS = "cluster count must be <= 256, got 257"


@pytest.mark.parametrize("argv, error", [
    (["bench", "--algorithms", "fcm", "--slice", "z:20", "--report"], OFF_THE_PHANTOM),
    (["sweep", "--param", "h", "--grid", "1", "--slice", "z:20", "--out"], OFF_THE_PHANTOM),
    (["bench", "--algorithms", "fcm", "--c", "0", "--report"],
     "cluster count must be >= 1, got 0"),
    (["sweep", "--param", "v", "--grid", "2.5", "--out"], "v counts shells"),
    (["bench", "--algorithms", "fcm", "--c", "257", "--report"], TOO_MANY_CLUSTERS),
    (["sweep", "--param", "h", "--grid", "1", "--c", "257", "--out"], TOO_MANY_CLUSTERS),
], ids=["bench-slice", "sweep-slice", "bench-clusters", "sweep-fractional-v",
        "bench-too-many-clusters", "sweep-too-many-clusters"])
def test_refused_setting_fails_before_any_cell(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.setattr(bench, "segment", lambda *args, **kwargs: pytest.fail("a cell ran"))
    out = tmp_path / "out.csv"
    assert main([*argv, str(out), "--dims", "8,8,8", "--shells", "2", "--percents", "5",
                 "--seeds", "0", "--quiet"]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_segment_refuses_too_many_clusters_before_fitting(assets, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(bench, "segment", lambda *args, **kwargs: pytest.fail("a fit ran"))
    out = tmp_path / "labels.vxf"
    assert main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--out", str(out), "--c", "257", "--quiet"]) == 1
    assert TOO_MANY_CLUSTERS in capsys.readouterr().err
    assert not out.exists()


def test_bench_truth_of_other_dims_fails_before_any_cell(assets, tmp_path, monkeypatch,
                                                          capsys):
    small = tmp_path / "small.vxf"
    save_volume(generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2))[1], small)
    monkeypatch.setattr(bench, "segment", lambda *args, **kwargs: pytest.fail("a cell ran"))
    report = tmp_path / "report.csv"
    assert main(["bench", "--algorithms", "fcm", "--percents", "5", "--seeds", "0",
                 "--volume", str(assets["noisy"]), "--truth", str(small),
                 "--report", str(report), "--quiet"]) == 1
    assert ("truth dims (16, 16, 16) do not cover slice dims (24, 24, 1)"
            in capsys.readouterr().err)
    assert not report.exists()


def test_sweep_csv(tmp_path):
    # one row per grid value, and the same bytes at one and two worker processes
    for param, grid, algorithm in (("percent", "5,9", "fcm"), ("h", "0.5,1", "3dpifcm")):
        outs = [tmp_path / f"{param}{threads}.csv" for threads in ("1", "2")]
        for threads, out in zip(("1", "2"), outs):
            assert main(["sweep", "--param", param, "--grid", grid, "--algo", algorithm,
                         "--seeds", "0,1", "--dims", "8,8,8", "--shells", "2", "--c", "2",
                         "--swarm", "4", "--opt-iters", "2", "--population", "4",
                         "--threads", threads, "--out", str(out), "--quiet"]) == 0
        rows = read_csv(outs[0])
        assert tuple(rows[0]) == SWEEP_COLUMNS
        assert [r["value"] for r in rows] == grid.split(",")
        assert all(r["algorithm"] == algorithm for r in rows)
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_empty_sweep_grid_fails_before_the_source_is_built(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "_source", lambda cfg: pytest.fail("the source was built"))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "h", "--grid", ",", "--out", str(out), "--quiet"]) == 1
    assert "sweep grid must have at least one value" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("dims = 12,12,12\nshells = 2\nquiet = yes\n")
    out = tmp_path / "p.vxf"
    assert main(["phantom", "--out", str(out), "--config", str(config)]) == 0
    assert load_volume(out).dims == (12, 12, 12)


@pytest.mark.parametrize("flag", [["--dims", "8,8,8"], ["--dim", "8,8,8"],
                                  ["--dims=8,8,8"]],
                         ids=["dims", "abbreviated", "equals"])
def test_explicit_flags_beat_config(tmp_path, flag):
    # argparse accepts an unambiguous prefix of a long flag; it is just as explicit
    config = tmp_path / "run.cfg"
    config.write_text("dims=12,12,12\nshells=2\nquiet=true\n")
    out = tmp_path / "p.vxf"
    assert main(["phantom", "--out", str(out), "--config", str(config), *flag]) == 0
    assert load_volume(out).dims == (8, 8, 8)


@pytest.mark.parametrize("before, after, seed", [
    ([], [], 5), (["--seed", "3"], [], 3), ([], ["--seed", "3"], 3)],
    ids=["config", "global flag before the subcommand", "flag after the subcommand"])
def test_seed_flag_beats_config_on_either_side(assets, tmp_path, before, after, seed):
    config = tmp_path / "run.cfg"
    config.write_text("seed=5\nquiet=yes\n")
    out = tmp_path / "n.vxf"
    assert main([*before, "noise", "--in", str(assets["vol"]), "--out", str(out),
                 "--kind", "gaussian", "--percent", "5", "--config", str(config),
                 *after]) == 0
    assert load_volume(out) == add_noise(load_volume(assets["vol"]),
                                         NoiseSpec("gaussian", 5.0, seed))


# every flag segment, bench and sweep share, each at a non-default value
METHOD_FLAGS = ["--c", "3", "--m", "2.5", "--eps", "0.02", "--max-iter", "77",
                "--L", "3", "--v", "2", "--h", "1.7", "--lam", "0.3", "--xi", "0.6",
                "--swarm", "7", "--opt-iters", "3", "--population", "9",
                "--probe-steps", "2"]
METHOD_SETTINGS = dict(
    clusters=3, fuzziness=2.5, tolerance=0.02, max_iterations=77, level=3, depth=2,
    decay=1.7, feature_weight=0.3, spatial_weight=0.6, swarm_size=7, pso_max_iter=3,
    population=9, generations=3, probe_steps=2)
# the swarm's and the GA's constants, PsoConfig and GaConfig fields only:
# each flag and the BenchConfig field it used to fill
OPTIMISER_CONSTANTS = [("--omega", "omega"), ("--phip", "phip"), ("--phig", "phig"),
                       ("--minstep", "minstep"), ("--minfunc", "minfunc"),
                       ("--crossover", "crossover_rate"), ("--mutation", "mutation_rate"),
                       ("--mutation-sigma", "mutation_sigma")]
MATRIX_FLAGS = ["--kinds", "gaussian,poisson", "--percents", "3,4", "--seeds", "5,6",
                "--dims", "10,11,12", "--shells", "3", "--slice", "z:4"]
MATRIX_SETTINGS = dict(noise_kinds=("gaussian", "poisson"), noise_percents=(3.0, 4.0),
                       seeds=(5, 6), dims=(10, 11, 12), shells=3, slice_spec="z:4")


def captured_calls(monkeypatch, argv):
    """Positional arguments of each pipeline entry the command reaches; the
    spies stop the run there, so main reports a runtime failure."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("stopped by the spy")

    for module, name in ((bench, "segment"), (cli, "run_benchmark"), (cli, "run_sweep")):
        monkeypatch.setattr(module, name, spy)
    assert main(argv + ["--quiet"]) == 2
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("command", ["segment", "bench", "sweep"])
def test_flags_fill_bench_config(assets, monkeypatch, command):
    volume, truth = str(assets["noisy"]), str(assets["truth"])
    if command == "segment":
        args = captured_calls(monkeypatch, ["segment", "--in", volume, "--algo", "gaifcm",
                                            "--out", "unused.vxf", "--seed", "4",
                                            *METHOD_FLAGS])
        want = BenchConfig(**METHOD_SETTINGS)
        assert args[0] == "gaifcm" and args[3] == 3
        # the optimisers' constants keep their class defaults
        assert args[4:] == (want.fcm_config(), want.attraction_params(),
                            PsoConfig(swarm_size=7, max_iter=3, seed=4),
                            GaConfig(population=9, generations=3, seed=4), (0.3, 0.6), 2)
    elif command == "bench":
        cfg, = captured_calls(monkeypatch, ["bench", "--algorithms", "fcm,ifcm",
                                            "--volume", volume, "--truth", truth,
                                            "--literal-incs", "--per-cluster",
                                            *MATRIX_FLAGS, *METHOD_FLAGS])
        assert cfg == BenchConfig(algorithms=("fcm", "ifcm"), volume_path=volume,
                                  truth_path=truth, literal_incs=True, per_cluster=True,
                                  **MATRIX_SETTINGS, **METHOD_SETTINGS)
    else:
        cfg, *rest = captured_calls(monkeypatch, ["sweep", "--param", "h", "--grid", "1,2",
                                                  "--algo", "gaifcm", *MATRIX_FLAGS,
                                                  *METHOD_FLAGS])
        assert rest == ["h", (1.0, 2.0), "gaifcm"]
        # run_sweep runs every grid point with algorithms=(algorithm,)
        assert replace(cfg, algorithms=("gaifcm",)) == BenchConfig(
            algorithms=("gaifcm",), **MATRIX_SETTINGS, **METHOD_SETTINGS)


@pytest.mark.parametrize("argv", [
    ["segment", "--in", "v.vxf", "--algo", "gaifcm", "--out", "l.vxf"],
    ["bench"],
    ["sweep", "--param", "h", "--grid", "1"],
], ids=lambda argv: argv[0])
def test_flag_defaults_are_bench_config_defaults(argv):
    # the parser takes every default from BenchConfig, so a run without
    # flags runs the protocol run_benchmark(BenchConfig()) runs
    assert cli._settings(cli.build_parser().parse_args(argv)) == BenchConfig()


@pytest.mark.parametrize("command, default", [
    ("segment", "4"), ("bench", "one per --shells"), ("sweep", "one per --shells"),
    ("phantom", None), ("noise", None), ("eval", None)])
def test_cluster_count_help_names_its_default(capsys, command, default):
    # every subcommand's --help exits 0; those with the method flags name the
    # defaults, and bench and sweep run one cluster per phantom shell unless
    # --c says otherwise
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    if default is not None:
        assert f"number of clusters (default {default})" in text
        assert f"iteration cap (default {FcmConfig.max_iterations})" in text


@pytest.mark.parametrize("command", ["segment", "bench", "sweep"])
def test_help_names_every_bench_config_default(capsys, command):
    # every flag whose default _method_flags takes from a BenchConfig field
    # prints it as the flag takes it
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries = {entry.split()[0]: " ".join(entry.split())
               for entry in re.split(r"\n(?=  -)", capsys.readouterr().out)}
    names = {f.name for f in fields(BenchConfig)}
    checked = 0
    for action in cli.build_parser().commands[command]._actions:
        if action.dest in names and action.default is not None and action.nargs != 0:
            shown = re.search(r"\(default (\S+)\)$", entries[action.option_strings[0]])
            assert shown, action.option_strings[0]
            assert (action.type or str)(shown[1]) == action.default
            checked += 1
    assert checked == {"segment": 10, "bench": 17, "sweep": 16}[command]


@pytest.mark.parametrize("flag", [flag for flag, _ in OPTIMISER_CONSTANTS])
def test_optimiser_constant_flags_are_refused(tmp_path, capsys, flag):
    out = tmp_path / "out"
    for argv in (["segment", "--in", "v.vxf", "--algo", "3dpifcm", "--out"],
                 ["bench", "--report"], ["sweep", "--param", "h", "--grid", "1", "--out"]):
        assert main([*argv, str(out), flag, "0.5", "--quiet"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key", dict.fromkeys(
    name for flag, field in OPTIMISER_CONSTANTS
    for name in (flag.lstrip("-").replace("-", "_"), field)))
def test_optimiser_constant_config_keys_are_refused(tmp_path, capsys, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}=0.5\n")
    out = tmp_path / "report.csv"
    assert main(["bench", "--report", str(out), "--config", str(config)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_is_cli_main():
    # pyproject.toml is read as text: Python 3.10 has no tomllib
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\nvoxseg = "voxseg\.cli:main"$', pyproject, re.M)
    done = subprocess.run([sys.executable, "-m", "voxseg.cli", "phantom", "--help"],
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.startswith("usage: voxseg phantom")


def bench_settings_from_config(monkeypatch, tmp_path, lines):
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{line}\n" for line in lines))
    return captured_calls(monkeypatch, ["bench", "--config", str(config)])


def bench_settings_from_flags(monkeypatch, volume, truth):
    return captured_calls(monkeypatch, [
        "bench", "--max-iter", "77", "--swarm", "7", "--opt-iters", "3",
        "--m", "2.5", "--eps", "0.02", "--kinds", "gaussian,poisson",
        "--percents", "3,4", "--volume", volume, "--truth", truth])


def test_old_config_keys_still_accepted(assets, monkeypatch, tmp_path):
    # keys spelled as the long flags, not as the settings fields they fill
    volume, truth = str(assets["noisy"]), str(assets["truth"])
    from_file = bench_settings_from_config(monkeypatch, tmp_path, [
        "max_iter=77", "swarm=7", "opt_iters=3", "m=2.5", "eps=0.02",
        "kinds=gaussian,poisson", "percents=3,4", f"volume={volume}", f"truth={truth}"])
    assert from_file == bench_settings_from_flags(monkeypatch, volume, truth)
    assert from_file[0].generations == 3 and from_file[0].truth_path == truth


def test_field_name_config_keys_accepted(assets, monkeypatch, tmp_path):
    volume, truth = str(assets["noisy"]), str(assets["truth"])
    from_file = bench_settings_from_config(monkeypatch, tmp_path, [
        "max_iterations=77", "swarm_size=7", "pso_max_iter=3", "fuzziness=2.5",
        "tolerance=0.02", "noise_kinds=gaussian,poisson", "noise_percents=3,4",
        f"volume_path={volume}", f"truth_path={truth}"])
    assert from_file == bench_settings_from_flags(monkeypatch, volume, truth)


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("cheese=edam\n")
    out = tmp_path / "p.vxf"
    assert main(["phantom", "--out", str(out), "--config", str(config)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_config_validates_choices(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("algo=kmeans\n")
    code = main(["sweep", "--param", "percent", "--grid", "5",
                 "--out", str(tmp_path / "s.csv"), "--config", str(config)])
    assert code == 1
    assert "must be one of" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_quiet_silences_progress(tmp_path, capsys):
    out = tmp_path / "p.vxf"
    assert main(["phantom", "--out", str(out), "--dims", "12,12,12",
                 "--shells", "2"]) == 0
    assert "wrote" in capsys.readouterr().err
    out2 = tmp_path / "q.vxf"
    assert main(["phantom", "--out", str(out2), "--dims", "12,12,12",
                 "--shells", "2", "--quiet"]) == 0
    assert capsys.readouterr().err == ""
