"""Command-line front end.

Subcommands: phantom, noise, segment, eval, bench, sweep.  Global flags
(--config/--seed/--threads/--quiet) are accepted both before and after
the subcommand; values from a --config file (key=value lines, keys named
after the long flags or the settings they fill) fill in anything not
given explicitly on the command line.

Exit codes: 0 on success, 1 for validation problems (bad flags, bad or
unreadable inputs), 2 for runtime failures.  Output files are written
only after the whole computation succeeds, so a failed run leaves no
partial artifacts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from voxseg.bench import (ALGORITHMS, COMPARISON_COLUMNS, REPORT_COLUMNS,
                          SWEEP_COLUMNS, BenchConfig, run_benchmark, run_sweep,
                          write_csv)
from voxseg.errors import ValidationError
from voxseg.metrics import evaluate_labels
from voxseg.noise import KINDS, NoiseSpec, add_noise
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import segment
from voxseg.volume import (AXES, SliceRef, Volume, extract_slice, load_labels,
                           load_volume, save_volume, write_pgm)


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit code 1, not argparse's SystemExit(2)
    def error(self, message):
        raise ValidationError(message)


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p != "")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p != "")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _globals(parser, suppress: bool):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default,
                        help="key=value file supplying defaults for any flag")
    parser.add_argument("--seed", type=int,
                        default=argparse.SUPPRESS if suppress else 0,
                        help="base random seed (default 0)")
    parser.add_argument("--threads", type=int,
                        default=argparse.SUPPRESS if suppress else 1,
                        help="worker processes for bench/sweep (default 1)")
    parser.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="suppress progress output")


def _method_flags(parser):
    parser.add_argument("--c", "--clusters", dest="clusters", type=int, default=4,
                        help="number of clusters (default 4)")
    parser.add_argument("--m", "--fuzziness", dest="fuzziness", type=float,
                        default=2.0, help="fuzziness exponent (default 2)")
    parser.add_argument("--eps", "--tolerance", dest="tolerance", type=float,
                        default=0.01, help="membership-shift stop threshold")
    parser.add_argument("--max-iter", dest="max_iterations", type=int, default=150,
                        help="iteration cap (default 150)")
    parser.add_argument("--L", "--level", dest="level", type=int, default=2,
                        help="2-D neighbourhood level: 2 = 4 neighbours, 3 = 8")
    parser.add_argument("--v", "--depth", dest="depth", type=int, default=3,
                        help="number of 3-D neighbour shells (default 3)")
    parser.add_argument("--h", "--decay", dest="decay", type=float, default=1.1,
                        help="shell weight decay (default 1.1)")
    parser.add_argument("--lam", "--feature-weight", dest="feature_weight",
                        type=float, default=None,
                        help="intensity attraction weight in [0, 1], given with "
                             "--xi. segment: ifcm runs at it (default 0.5) and "
                             "ifcmpso/gaifcm/3dpifcm run at it instead of "
                             "searching. bench/sweep: only ifcm uses it "
                             "(default 0.5); the tuned algorithms always search")
    parser.add_argument("--xi", "--spatial-weight", dest="spatial_weight",
                        type=float, default=None,
                        help="proximity attraction weight in [0, 1], given with "
                             "--lam and used the same way")
    parser.add_argument("--swarm", dest="swarm_size", type=int, default=50)
    parser.add_argument("--opt-iters", dest="pso_max_iter", type=int, default=20,
                        help="optimizer iterations / generations")
    parser.add_argument("--omega", type=float, default=0.5)
    parser.add_argument("--phip", type=float, default=0.5)
    parser.add_argument("--phig", type=float, default=0.5)
    parser.add_argument("--minstep", type=float, default=1e-8)
    parser.add_argument("--minfunc", type=float, default=1e-8)
    parser.add_argument("--population", type=int, default=50)
    parser.add_argument("--crossover", dest="crossover_rate", type=float, default=0.8)
    parser.add_argument("--mutation", dest="mutation_rate", type=float, default=0.1)
    parser.add_argument("--mutation-sigma", dest="mutation_sigma", type=float,
                        default=0.1)
    parser.add_argument("--probe-steps", dest="probe_steps", type=int, default=1,
                        help="attraction steps per candidate evaluation")


def _matrix_flags(parser):
    """The noise matrix and phantom flags bench and sweep share, then the
    method flags with one cluster per phantom shell by default."""
    parser.add_argument("--kinds", dest="noise_kinds", type=_str_list,
                        default=("gaussian",))
    parser.add_argument("--percents", dest="noise_percents", type=_float_list,
                        default=(5.0,))
    parser.add_argument("--seeds", type=_int_list, default=(0, 1, 2))
    parser.add_argument("--dims", type=_triple, default=(96, 96, 96))
    parser.add_argument("--shells", type=int, default=4)
    parser.add_argument("--slice", dest="slice_spec", default="mid",
                        help='plane to segment: "mid" or e.g. z:48')
    _method_flags(parser)
    parser.set_defaults(clusters=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="voxseg",
                     description="fuzzy segmentation of volumetric images")
    _globals(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("phantom", help="generate a nested-cuboid test volume",
                       parents=[], add_help=True)
    _globals(p, suppress=True)
    p.add_argument("--out", required=True, help="output intensity volume (.vxf)")
    p.add_argument("--labels", "--truth", dest="truth", default=None,
                   help="optional output label volume")
    p.add_argument("--dims", type=_triple, default=(181, 217, 181),
                   help="grid extents nx,ny,nz")
    p.add_argument("--shells", type=int, default=4)
    p.add_argument("--imax", type=float, default=255.0,
                   help="brightest-tissue intensity level")
    p.add_argument("--margin", type=int, default=None,
                   help="inset between consecutive cuboids")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("noise", help="corrupt a volume with gaussian or poisson noise")
    _globals(p, suppress=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--percent", type=float, required=True,
                   help="noise level as percent of intensity_max, in (0, 100]")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("segment", help="segment one slice of a volume")
    _globals(p, suppress=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--algo", "--algorithm", dest="algorithm",
                   choices=ALGORITHMS, required=True)
    p.add_argument("--slice", dest="slice_spec", default=None,
                   help="plane to segment, e.g. z:60 (default: z:60 when "
                        "the volume is deep enough, else the middle z plane)")
    _method_flags(p)
    p.add_argument("--out", required=True, help="output label slice (.vxf)")
    p.add_argument("--pgm", default=None,
                   help="also render the segmentation as a PGM image")
    p.add_argument("--membership", default=None,
                   help="also save the membership matrix (.npy)")
    p.add_argument("--truth", default=None,
                   help="label volume to score the result against")
    p.add_argument("--metrics", default=None,
                   help="CSV path for the scores (stdout when omitted)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    _globals(p, suppress=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--slice", dest="slice_spec", default=None,
                   help="plane to compare; applied to any full-depth input")
    p.add_argument("--c", "--clusters", dest="clusters", type=int, default=None,
                   help="cluster count (default: largest label + 1)")
    p.add_argument("--literal-incs", dest="literal_incs", action="store_true",
                   help="report IncS as (UnS + OS) / total instead of error share")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the algorithm x noise benchmark matrix")
    _globals(p, suppress=True)
    p.add_argument("--algorithms", type=_str_list, default=("fcm", "3dpifcm"))
    _matrix_flags(p)
    p.add_argument("--volume", dest="volume_path", default=None,
                   help="benchmark this volume instead of a generated phantom")
    p.add_argument("--truth", dest="truth_path", default=None,
                   help="labels for --volume")
    p.add_argument("--literal-incs", dest="literal_incs", action="store_true")
    p.add_argument("--per-cluster", dest="per_cluster", action="store_true",
                   help="emit per-cluster rows in addition to the mean row")
    p.add_argument("--report", default=None, help="report CSV (stdout when omitted)")
    p.add_argument("--compare", default=None,
                   help="CSV comparing each algorithm against 3dpifcm")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="vary one hyperparameter and track mean IncS")
    _globals(p, suppress=True)
    p.add_argument("--param", choices=("h", "v", "percent"), required=True)
    p.add_argument("--grid", type=_float_list, required=True)
    p.add_argument("--algo", "--algorithm", dest="algorithm",
                   choices=ALGORITHMS, default="3dpifcm")
    _matrix_flags(p)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    return parser


def _apply_config(args, argv: list[str]) -> None:
    if getattr(args, "config", None) is None:
        return
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    # a fresh parser with every default suppressed: parsing argv again keeps
    # just the flags given, resolved as argparse resolves them (--dim is --dims)
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for p in (parser, sub.choices[args.command]):
        p._defaults.clear()
        for action in p._actions:
            action.default = argparse.SUPPRESS
            if action.dest in ("help", "command", "config") or not action.option_strings:
                continue
            table[action.dest] = action
            for opt in action.option_strings:
                table[opt.lstrip("-").replace("-", "_")] = action
    explicit = set(vars(parser.parse_args(argv)))
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        action = table.get(key.replace("-", "_"))
        if action is None:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        if action.dest in explicit:
            continue  # command-line flags win over the config file
        try:
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                parsed = _parse_bool(value)
            elif action.type is not None:
                parsed = action.type(value)
            else:
                parsed = value
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        if action.choices is not None and parsed not in action.choices:
            raise ValidationError(
                f"{path}:{lineno}: {key} must be one of {tuple(action.choices)}")
        setattr(args, action.dest, parsed)


def _load_input(loader, path):
    # unreadable or truncated inputs are the caller's mistake, exit code 1
    try:
        return loader(path)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValidationError(str(exc)) from None


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _logger(args):
    return None if args.quiet else (lambda line: print(line, file=sys.stderr))


def cmd_phantom(args) -> None:
    spec = PhantomSpec(dims=args.dims, num_shells=args.shells,
                       margin=args.margin, intensity_max=args.imax)
    vol, truth = generate_phantom(spec)
    save_volume(vol, args.out)
    if args.truth:
        save_volume(truth, args.truth)
    _say(args, f"wrote {args.out} {vol.dims}"
               + (f" and {args.truth}" if args.truth else ""))


def cmd_noise(args) -> None:
    vol = _load_input(load_volume, args.input)
    noisy = add_noise(vol, NoiseSpec(args.kind, args.percent, args.seed))
    save_volume(noisy, args.out)
    _say(args, f"wrote {args.out} ({args.kind} {args.percent}%, seed {args.seed})")


def _default_slice(dims: tuple[int, int, int]) -> SliceRef:
    return SliceRef("z", 60 if dims[2] > 60 else dims[2] // 2)


def _score_csv(scores: dict, out_path) -> None:
    rows = [{"cluster": r["cluster"], "UnS": f'{r["uns"]:.10g}',
             "OS": f'{r["os"]:.10g}', "IncS": f'{r["incs"]:.10g}'}
            for r in scores["per_cluster"]]
    rows.append({"cluster": "mean", "UnS": f'{scores["mean_uns"]:.10g}',
                 "OS": f'{scores["mean_os"]:.10g}',
                 "IncS": f'{scores["mean_incs"]:.10g}'})
    write_csv(rows, ("cluster", "UnS", "OS", "IncS"), out_path)


def _matching_slice(vol, ref: SliceRef, want_dims):
    if vol.dims == want_dims:
        return vol
    return extract_slice(vol, ref)


def cmd_segment(args) -> None:
    vol = _load_input(load_volume, args.input)
    ref = (SliceRef.parse(args.slice_spec) if args.slice_spec
           else _default_slice(vol.dims))
    truth_slice = None
    if args.truth:
        # keep only the scored slice, not the whole label volume, and check
        # it before segmenting
        truth = _load_input(load_labels, args.truth)
        slice_dims = tuple(1 if axis == AXES[ref.axis] else n
                           for axis, n in enumerate(vol.dims))
        truth_slice = _matching_slice(truth, ref, slice_dims)
        if truth_slice.dims != slice_dims:
            raise ValidationError(f"truth dims {truth.dims} do not cover "
                                  f"slice dims {slice_dims}")
        del truth

    settings = _settings(args)
    fixed = (None if args.feature_weight is None
             else (args.feature_weight, args.spatial_weight))
    result = segment(args.algorithm, vol, ref, args.clusters, settings.fcm_config(),
                     settings.attraction_params(), settings.pso_config(args.seed),
                     settings.ga_config(args.seed), fixed, args.probe_steps)
    labels = result.labels
    scores = (None if truth_slice is None
              else evaluate_labels(labels, truth_slice, args.clusters))

    save_volume(labels, args.out)
    if args.membership:
        np.save(args.membership, result.membership)
    if args.pgm:
        rendered = Volume(labels.dims, np.asarray(result.centers)[labels.labels],
                          vol.intensity_max)
        write_pgm(rendered, args.pgm)
    if scores is not None:
        _score_csv(scores, args.metrics if args.metrics else sys.stdout)
    shown = ("-" if result.feature_weight is None else
             f"lambda={result.feature_weight:.4g} xi={result.spatial_weight:.4g}")
    _say(args, f"{args.algorithm} on {ref.axis}:{ref.index}: "
               f"{result.iterations} iterations, stop={result.stop_reason}, "
               f"{shown}, wrote {args.out}")


def cmd_eval(args) -> None:
    pred = _load_input(load_labels, args.pred)
    truth = _load_input(load_labels, args.truth)
    if args.slice_spec:
        ref = SliceRef.parse(args.slice_spec)
        want = list(truth.dims)
        want[{"x": 0, "y": 1, "z": 2}[ref.axis]] = 1
        pred = _matching_slice(pred, ref, tuple(want))
        truth = _matching_slice(truth, ref, tuple(want))
    if pred.dims != truth.dims:
        raise ValidationError(f"prediction dims {pred.dims} do not match "
                              f"truth dims {truth.dims}")
    clusters = args.clusters
    if clusters is None:
        clusters = int(max(pred.labels.max(), truth.labels.max())) + 1
    scores = evaluate_labels(pred, truth, clusters, args.literal_incs)
    _score_csv(scores, args.out if args.out else sys.stdout)


def _settings(args) -> BenchConfig:
    """BenchConfig from the flags named after its fields; --opt-iters also
    sets the GA's generations, and without --lam/--xi ifcm runs at the
    default (0.5, 0.5)."""
    if (args.feature_weight is None) != (args.spatial_weight is None):
        raise ValidationError("--lam and --xi must be given together")
    given = {f.name: getattr(args, f.name) for f in fields(BenchConfig)
             if getattr(args, f.name, None) is not None}
    return BenchConfig(generations=args.pso_max_iter, **given)


def cmd_bench(args) -> None:
    rows, comparison = run_benchmark(_settings(args), threads=args.threads,
                                     log=_logger(args))
    write_csv(rows, REPORT_COLUMNS, args.report if args.report else sys.stdout)
    if args.compare:
        write_csv(comparison, COMPARISON_COLUMNS, args.compare)


def cmd_sweep(args) -> None:
    rows = run_sweep(_settings(args), args.param, args.grid, args.algorithm,
                     threads=args.threads, log=_logger(args))
    write_csv(rows, SWEEP_COLUMNS, args.out if args.out else sys.stdout)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help(sys.stderr)
            return 1
        _apply_config(args, argv)
        args.func(args)
    except (ValidationError, FileNotFoundError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
