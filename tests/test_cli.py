"""End-to-end command-line flows, run in process through main()."""

import csv
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from voxseg import bench, cli
from voxseg.bench import (ALGORITHMS, COMPARISON_COLUMNS, REPORT_COLUMNS,
                          SWEEP_COLUMNS, BenchConfig, run_benchmark)
from voxseg.cli import main
from voxseg.fcm import FcmConfig, gmm_fcm
from voxseg.metrics import defuzzify, evaluate_labels
from voxseg.noise import NoiseSpec, add_noise
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


def test_segment_holds_only_the_truth_slice(assets, tmp_path, monkeypatch, capsys):
    # the whole label volume is dropped before segmentation starts
    loaded, held = [], []

    def load(path):
        truth = load_labels(path)
        loaded.append(weakref.ref(truth))
        return truth

    def spy(*args, **kwargs):
        held.extend(ref() is not None for ref in loaded)
        return segment(*args, **kwargs)

    monkeypatch.setattr(cli, "load_labels", load)
    monkeypatch.setattr(cli, "segment", spy)
    code = main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--slice", "z:12", "--c", "2", "--out", str(tmp_path / "seg.vxf"),
                 "--truth", str(assets["truth"]),
                 "--metrics", str(tmp_path / "seg.csv")])
    assert code == 0
    assert held == [False]
    # the log names why the run stopped, after the iteration count
    assert re.search(r"z:12: \d+ iterations, stop=converged, -, wrote",
                     capsys.readouterr().err)


def test_segment_rejects_truth_that_does_not_cover_the_slice(assets, tmp_path,
                                                             monkeypatch, capsys):
    small = tmp_path / "small.vxf"
    save_volume(generate_phantom(PhantomSpec(dims=(16, 16, 16), num_shells=2))[1], small)
    calls = []
    monkeypatch.setattr(cli, "segment", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "seg.vxf"
    code = main(["segment", "--in", str(assets["noisy"]), "--algo", "fcm",
                 "--slice", "z:12", "--c", "2", "--out", str(out),
                 "--truth", str(small)])
    assert code == 1
    assert ("truth dims (16, 16, 16) do not cover slice dims (24, 24, 1)"
            in capsys.readouterr().err)
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_segment_agrees_with_one_bench_cell(tmp_path, monkeypatch, algorithm):
    # both front ends dispatch through pipelines.segment; the same volume,
    # slice, seed and optimiser budget must give the same labels and score
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


def test_eval_undefined_metric_is_runtime_failure(tmp_path, capsys):
    flat = tmp_path / "flat.vxf"
    save_volume(LabelVolume((4, 4, 1), np.zeros((4, 4, 1), dtype=np.uint8)),
                flat)
    code = main(["eval", "--pred", str(flat), "--truth", str(flat),
                 "--c", "2", "--quiet"])
    assert code == 2
    assert "UndefinedMetricError" in capsys.readouterr().err


def test_bench_report_and_comparison(tmp_path):
    report = tmp_path / "report.csv"
    compare = tmp_path / "compare.csv"
    code = main(["bench", "--algorithms", "fcm,3dpifcm", "--kinds", "gaussian",
                 "--percents", "15", "--seeds", "0", "--dims", "16,16,16",
                 "--shells", "2", "--swarm", "4", "--opt-iters", "2",
                 "--report", str(report), "--compare", str(compare),
                 "--quiet"])
    assert code == 0
    with open(report, newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == REPORT_COLUMNS
    rows = read_csv(report)
    assert [(r["algorithm"], r["status"]) for r in rows] == \
        [("fcm", "ok"), ("3dpifcm", "ok")]
    cmp_rows = read_csv(compare)
    assert len(cmp_rows) == 1
    assert tuple(cmp_rows[0]) == COMPARISON_COLUMNS
    assert cmp_rows[0]["algorithm_a"] == "fcm"


def test_bench_logs_progress(capsys):
    code = main(["bench", "--algorithms", "fcm", "--percents", "5",
                 "--seeds", "0", "--dims", "16,16,16", "--shells", "2",
                 "--report", "/dev/null"])
    assert code == 0
    err = capsys.readouterr().err
    assert "fcm gaussian 5.0% seed=0" in err


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--param", "percent", "--grid", "5,9",
                 "--algo", "fcm", "--seeds", "0", "--dims", "24,24,24",
                 "--shells", "2", "--out", str(out), "--quiet"])
    assert code == 0
    rows = read_csv(out)
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert [r["value"] for r in rows] == ["5", "9"]
    assert all(r["algorithm"] == "fcm" for r in rows)


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


# every flag segment, bench and sweep share, each at a non-default value
METHOD_FLAGS = ["--c", "3", "--m", "2.5", "--eps", "0.02", "--max-iter", "77",
                "--L", "3", "--v", "2", "--h", "1.7", "--lam", "0.3", "--xi", "0.6",
                "--swarm", "7", "--opt-iters", "3", "--omega", "0.4", "--phip", "0.3",
                "--phig", "0.2", "--minstep", "1e-5", "--minfunc", "1e-6",
                "--population", "9", "--crossover", "0.7", "--mutation", "0.2",
                "--mutation-sigma", "0.3", "--probe-steps", "2"]
METHOD_SETTINGS = dict(
    clusters=3, fuzziness=2.5, tolerance=0.02, max_iterations=77, level=3, depth=2,
    decay=1.7, feature_weight=0.3, spatial_weight=0.6, swarm_size=7, pso_max_iter=3,
    omega=0.4, phip=0.3, phig=0.2, minstep=1e-5, minfunc=1e-6, population=9,
    generations=3, crossover_rate=0.7, mutation_rate=0.2, mutation_sigma=0.3,
    probe_steps=2)
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

    for name in ("segment", "run_benchmark", "run_sweep"):
        monkeypatch.setattr(cli, name, spy)
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
        assert args[4:] == (want.fcm_config(), want.attraction_params(),
                            want.pso_config(4), want.ga_config(4), (0.3, 0.6), 2)
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


def bench_settings_from_config(monkeypatch, tmp_path, lines):
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{line}\n" for line in lines))
    return captured_calls(monkeypatch, ["bench", "--config", str(config)])


def bench_settings_from_flags(monkeypatch, volume, truth):
    return captured_calls(monkeypatch, [
        "bench", "--max-iter", "77", "--swarm", "7", "--opt-iters", "3",
        "--crossover", "0.7", "--mutation", "0.2", "--kinds", "gaussian,poisson",
        "--percents", "3,4", "--volume", volume, "--truth", truth])


def test_old_config_keys_still_accepted(assets, monkeypatch, tmp_path):
    # keys spelled as the long flags, not as the settings fields they fill
    volume, truth = str(assets["noisy"]), str(assets["truth"])
    from_file = bench_settings_from_config(monkeypatch, tmp_path, [
        "max_iter=77", "swarm=7", "opt_iters=3", "crossover=0.7", "mutation=0.2",
        "kinds=gaussian,poisson", "percents=3,4", f"volume={volume}", f"truth={truth}"])
    assert from_file == bench_settings_from_flags(monkeypatch, volume, truth)
    assert from_file[0].generations == 3 and from_file[0].truth_path == truth


def test_field_name_config_keys_accepted(assets, monkeypatch, tmp_path):
    volume, truth = str(assets["noisy"]), str(assets["truth"])
    from_file = bench_settings_from_config(monkeypatch, tmp_path, [
        "max_iterations=77", "swarm_size=7", "pso_max_iter=3", "crossover_rate=0.7",
        "mutation_rate=0.2", "noise_kinds=gaussian,poisson", "noise_percents=3,4",
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
