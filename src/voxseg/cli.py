"""Command-line front end.

Subcommands: phantom, noise, segment, eval, bench, sweep.  Global flags
(--config/--seed/--threads/--quiet) are accepted before and after the
subcommand.  A flag that fills a BenchConfig field has its name and default;
--config file lines (key=value, keys named after the long flags or those
fields) fill in anything not given explicitly on the command line.

--slice is "mid" (the middle z plane) or axis:index on every subcommand; a
slice outside the volume, or one the truth does not cover, fails up front.
segment reads only the planes its algorithm's neighbourhood reaches, and of
a truth, as of eval --slice's inputs, only the scored plane.

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
                          SCORE_COLUMNS, SWEEP_COLUMNS, BenchConfig, cut_to_plane,
                          resolve_slice, run_benchmark, run_sweep, score_rows,
                          write_csv)
from voxseg.errors import ValidationError
from voxseg.metrics import evaluate_labels
from voxseg.noise import KINDS, NoiseSpec, add_noise
from voxseg.phantom import PhantomSpec, generate_phantom
from voxseg.pipelines import plane_reach
from voxseg.volume import (AXES, SliceRef, Volume, load_labels, load_volume, read_dims,
                           save_volume, write_pgm)


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit code 1, not argparse's SystemExit(2)
    def error(self, message):
        raise ValidationError(message)


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _list_of(kind):
    """Flag type: comma-separated ``kind`` items, blank items skipped."""
    def parse(text: str) -> tuple:
        return tuple(kind(p.strip()) for p in text.split(",") if p.strip())
    parse.__name__ = f"{kind.__name__} list"  # argparse names the type in errors
    return parse


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


def _method_flags(parser, *unset, clusters=BenchConfig().cluster_count):
    """The method flags; then every flag added so far that fills a BenchConfig
    field takes that field's default and names it in its help, but for
    --lam/--xi and ``unset``, whose None ("search", or segment's own slice)
    ``_settings`` leaves out; ``clusters`` is the count --help names for an unset --c."""
    parser.add_argument("--c", "--clusters", dest="clusters", type=int,
                        help=f"number of clusters (default {clusters})")
    parser.add_argument("--m", "--fuzziness", dest="fuzziness", type=float,
                        help="fuzziness exponent")
    parser.add_argument("--eps", "--tolerance", dest="tolerance", type=float,
                        help="membership-shift stop threshold")
    parser.add_argument("--max-iter", dest="max_iterations", type=int, help="iteration cap")
    parser.add_argument("--L", "--level", dest="level", type=int,
                        help="2-D neighbourhood level: 2 = 4 neighbours, 3 = 8")
    parser.add_argument("--v", "--depth", dest="depth", type=int, help="3-D neighbour shells")
    parser.add_argument("--h", "--decay", dest="decay", type=float, help="shell weight decay")
    parser.add_argument("--lam", "--feature-weight", dest="feature_weight", type=float,
                        help="intensity attraction weight in [0, 1], given with --xi. "
                             f"segment: ifcm runs at it (default {BenchConfig.feature_weight}) "
                             "and ifcmpso/gaifcm/3dpifcm run at it instead of searching. "
                             "bench/sweep: only ifcm uses it (default "
                             f"{BenchConfig.feature_weight}); the tuned algorithms always search")
    parser.add_argument("--xi", "--spatial-weight", dest="spatial_weight", type=float,
                        help="proximity attraction weight in [0, 1], given with "
                             "--lam and used the same way")
    parser.add_argument("--swarm", dest="swarm_size", type=int, help="PSO swarm size")
    parser.add_argument("--opt-iters", dest="pso_max_iter", type=int,
                        help="optimizer iterations / generations")
    parser.add_argument("--population", type=int, help="GA population size")
    parser.add_argument("--probe-steps", dest="probe_steps", type=int,
                        help="attraction steps per candidate evaluation")
    own = {f.name: f.default for f in fields(BenchConfig)
           if f.name not in ("feature_weight", "spatial_weight", *unset)}
    for action in parser._actions:
        if action.dest in own:
            action.default = default = own[action.dest]
            if default is not None:  # written as the flag takes it
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                action.help = f"{action.help} (default {shown})"


def _matrix_flags(parser):
    """The noise matrix and phantom flags bench and sweep share, then the method flags."""
    parser.add_argument("--kinds", dest="noise_kinds", type=_list_of(str),
                        help=f"noise kinds, from {','.join(KINDS)}")
    parser.add_argument("--percents", dest="noise_percents", type=_list_of(float),
                        help="noise levels as percent of intensity_max")
    parser.add_argument("--seeds", type=_list_of(int), help="noise and optimizer seeds")
    parser.add_argument("--dims", type=_triple, help="phantom extents nx,ny,nz")
    parser.add_argument("--shells", type=int, help="number of nested phantom shells")
    parser.add_argument("--slice", dest="slice_spec", help='plane to segment: "mid" or e.g. z:48')
    _method_flags(parser, clusters="one per --shells")


def build_parser() -> _Parser:
    parser = _Parser(prog="voxseg",
                     description="fuzzy segmentation of volumetric images")
    _globals(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = sub.choices

    p = sub.add_parser("phantom", help="generate a nested-cuboid test volume")
    _globals(p, suppress=True)
    p.add_argument("--out", required=True, help="output intensity volume (.vxf)")
    p.add_argument("--labels", "--truth", dest="truth", default=None,
                   help="optional output label volume")
    p.add_argument("--dims", type=_triple, default=PhantomSpec.dims,
                   help="grid extents nx,ny,nz (default %(default)s)")
    p.add_argument("--shells", type=int, default=PhantomSpec.num_shells,
                   help="number of nested shells (default %(default)s)")
    p.add_argument("--imax", type=float, default=PhantomSpec.intensity_max,
                   help="brightest-tissue intensity level (default %(default)s)")
    p.add_argument("--margin", type=int, default=PhantomSpec.margin,
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
    p.add_argument("--slice", dest="slice_spec",
                   help='plane to segment: "mid" or e.g. z:60 (default: z:60 when '
                        'the volume is deeper than 60 planes, else mid)')
    _method_flags(p, "slice_spec")
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
                   help='plane to compare: "mid" or e.g. z:60; applied to any '
                        'full-depth input')
    p.add_argument("--c", "--clusters", dest="clusters", type=int, default=None,
                   help="cluster count (default: largest label + 1)")
    p.add_argument("--literal-incs", dest="literal_incs", action="store_true",
                   help="report IncS as (UnS + OS) / total instead of error share")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the algorithm x noise benchmark matrix")
    _globals(p, suppress=True)
    p.add_argument("--algorithms", type=_list_of(str),
                   help=f"algorithms to run, from {','.join(ALGORITHMS)}")
    _matrix_flags(p)
    p.add_argument("--volume", dest="volume_path", default=None,
                   help="benchmark this volume instead of a generated phantom")
    p.add_argument("--truth", dest="truth_path", default=None,
                   help="labels for --volume")
    p.add_argument("--literal-incs", dest="literal_incs", action="store_true",
                   help="report IncS as (UnS + OS) / total instead of error share")
    p.add_argument("--per-cluster", dest="per_cluster", action="store_true",
                   help="emit per-cluster rows in addition to the mean row")
    p.add_argument("--report", default=None, help="report CSV (stdout when omitted)")
    p.add_argument("--compare", default=None,
                   help="CSV comparing each algorithm against 3dpifcm")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="vary one hyperparameter and track mean IncS")
    _globals(p, suppress=True)
    p.add_argument("--param", choices=("h", "v", "percent"), required=True)
    p.add_argument("--grid", type=_list_of(float), required=True)
    p.add_argument("--algo", "--algorithm", dest="algorithm",
                   choices=ALGORITHMS, default="3dpifcm")
    _matrix_flags(p)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    return parser


def _apply_config(parser, args, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` again with the --config file's values as defaults, so
    a flag given on the command line, as argparse resolves it (--dim is
    --dims), wins.  Global keys are defaults of the main parser, the rest of
    the subcommand's."""
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    table = {}
    for owner in (parser.commands[args.command], parser):
        for action in owner._actions:
            if action.dest in ("help", "command", "config") or not action.option_strings:
                continue
            for key in (action.dest, *action.option_strings):
                table[key.lstrip("-").replace("-", "_")] = owner, action
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key.replace("-", "_") not in table:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        owner, action = table[key.replace("-", "_")]
        try:  # nargs 0 is a store_true/store_false switch
            parsed = _parse_bool(value) if action.nargs == 0 else (action.type or str)(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        if action.choices is not None and parsed not in action.choices:
            raise ValidationError(
                f"{path}:{lineno}: {key} must be one of {tuple(action.choices)}")
        owner.set_defaults(**{action.dest: parsed})
    return parser.parse_args(argv)


def _load_input(loader, path, *args):
    # unreadable or truncated inputs are the caller's mistake, exit code 1
    try:
        return loader(path, *args)
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


def cmd_segment(args) -> None:
    dims = _load_input(read_dims, args.input)
    ref = resolve_slice(args.slice_spec or ("z:60" if dims[2] > 60 else "mid"), dims)
    settings = _settings(args, "slice_spec")
    # read only the planes the neighbourhood reaches, and segment the slice
    # at its place among them
    reach = plane_reach(args.algorithm, settings.attraction_params())
    vol = _load_input(load_volume, args.input, ref, reach)
    at = SliceRef(ref.axis, ref.index - ref.window(dims, reach).start)
    # and only the scored plane of the truth, checked before segmenting
    truth_slice = _load_input(cut_to_plane, args.truth, ref, dims) if args.truth else None

    fixed = (None if args.feature_weight is None
             else (args.feature_weight, args.spatial_weight))
    result = settings.segment(args.algorithm, vol, at, args.seed, fixed)
    labels = result.labels
    scores = (None if truth_slice is None
              else evaluate_labels(labels, truth_slice, settings.cluster_count))

    save_volume(labels, args.out)
    if args.membership:
        np.save(args.membership, result.membership)
    if args.pgm:
        rendered = Volume(labels.dims, np.asarray(result.centers)[labels.labels],
                          vol.intensity_max)
        write_pgm(rendered, args.pgm)
    if scores is not None:
        write_csv(score_rows(scores), SCORE_COLUMNS,
                  args.metrics if args.metrics else sys.stdout)
    shown = ("-" if result.feature_weight is None else
             f"lambda={result.feature_weight:.4g} xi={result.spatial_weight:.4g}")
    _say(args, f"{args.algorithm} on {ref.axis}:{ref.index}: "
               f"{result.iterations} iterations, stop={result.stop_reason}, "
               f"{shown}, wrote {args.out}")


def cmd_eval(args) -> None:
    ref = None
    if args.slice_spec:
        # a plane of the larger input, the only one read; inputs one plane
        # deep on the axis stay as they are
        dims = tuple(map(max, *(_load_input(read_dims, path)
                                for path in (args.pred, args.truth))))
        ref = resolve_slice(args.slice_spec, dims)
    if ref is not None and dims[AXES[ref.axis]] > 1:
        pred = _load_input(cut_to_plane, args.pred, ref, dims, "prediction")
        truth = _load_input(cut_to_plane, args.truth, ref, dims)
    else:
        pred, truth = (_load_input(load_labels, path) for path in (args.pred, args.truth))
    if pred.dims != truth.dims:
        raise ValidationError(f"prediction dims {pred.dims} do not match "
                              f"truth dims {truth.dims}")
    clusters = args.clusters
    if clusters is None:
        clusters = int(max(pred.labels.max(), truth.labels.max())) + 1
    scores = evaluate_labels(pred, truth, clusters, args.literal_incs)
    write_csv(score_rows(scores), SCORE_COLUMNS, args.out if args.out else sys.stdout)


def _settings(args, *own) -> BenchConfig:
    """BenchConfig from the flags named after its fields, but for the
    command's ``own``; --opt-iters also sets the GA's generations, and
    without --lam/--xi ifcm runs at BenchConfig's default weights."""
    if (args.feature_weight is None) != (args.spatial_weight is None):
        raise ValidationError("--lam and --xi must be given together")
    given = {f.name: getattr(args, f.name) for f in fields(BenchConfig)
             if f.name not in own and getattr(args, f.name, None) is not None}
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
        if args.config is not None:
            args = _apply_config(parser, args, argv)
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
