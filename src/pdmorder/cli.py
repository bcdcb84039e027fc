"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 data error (an unreadable input or
an output that cannot be written), 3 numerical failure.  Each command returns
its artifact's path, or (path, stats, workers): montecarlo and sweep with
their run's failures and sweeps and the worker processes that ran them,
select --method proposed with each order's sweeps and no workers.  main
then writes the sibling manifest <artifact>.manifest.json after the
command's last file, recording the command, its canonicalized flags, a hash
of them, the tool version, the numeric environment (with the workers, if
any) and any stats, so a run can be reproduced or audited later.  All numbers in
data files carry 17 significant digits, which round-trips doubles exactly;
rerunning a command with identical flags and inputs produces byte-identical
data files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, NumericalError, NotAligned
from .evaluation import TrialSummary, lmmse_curve, monte_carlo_order, order_sweep, usable_cpus
from .order_select import select_order_proposed, select_order_variance
from .pdm import PdmModel, _fmt, fit_pdm, load_pdm, save_pdm, truncate
from .shapes import ShapeSet, generalized_procrustes, load_shape_set, mean_shape
from .simgen import (
    _check_pose, make_seed_pdm_procedural, noise_variance, parse_spectrum, sample_shapes,
)


class UsageError(Exception):
    pass


METHODS = ("proposed", "variance")
DEFAULT_SPECTRUM = "geometric:0.7"
# The select flags only one method uses, with their defaults.  They parse
# with a None default so that a flag given to the other method is seen.
SELECT_FLAGS = {
    "proposed": {"seed": None, "t_max": None, "tol": 1e-8, "max_iter": 100, "out": None},
    "variance": {"fraction": 0.95},
}
# simulate's pose flags default to the generator's own half-widths.
_POSE = {k: p.default for k, p in inspect.signature(sample_shapes).parameters.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def config_hash(command: str, config: dict) -> str:
    canonical = json.dumps({"command": command, "config": config}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_lines(path: Path | None, lines: list[str]) -> None:
    """Write lines, each ending in a newline, to path, or to stdout if None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _environment() -> dict:
    """What the numbers of a run depend on beyond its flags: Python, numpy, BLAS, threads, CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except TypeError:  # an older numpy has no mode argument
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "usable_cpus": usable_cpus(),
    }


def write_manifest(
    artifact: Path,
    args: argparse.Namespace,
    started: str,
    stats: dict | None = None,
    workers: int | None = None,
) -> None:
    """Write <artifact>.manifest.json.  workers, the processes a trial command
    ran in, goes to the environment block, not to stats: it describes the
    host and never changes a result."""
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
    environment = _environment()
    if workers is not None:
        environment["workers"] = workers
    manifest = {
        "command": args.command,
        "config": config,
        "config_hash": config_hash(args.command, config),
        "rng_seed": config.get("seed"),
        "tool_version": __version__,
        "environment": environment,
        "timestamps": {"started": started, "finished": _utc_now()},
    }
    if stats is not None:
        manifest["stats"] = stats
    _write_json(Path(str(artifact) + ".manifest.json"), manifest)


def write_shapes_csv(path: Path, shape_set: ShapeSet) -> None:
    _write_lines(path, [",".join(_fmt(v) for v in row) for row in shape_set.as_matrix().T])


def write_scores_csv(path: Path, result) -> None:
    lines = ["t,score,iterations,converged"]
    for order in sorted(result.scores):
        fit = result.per_order_fits[order]
        lines.append(
            f"{order},{_fmt(result.scores[order])},{fit.iterations},{str(fit.converged).lower()}"
        )
    _write_lines(path, lines)


def write_lmmse_csv(path: Path, result) -> None:
    lines = ["t,e_lmmse"]
    for t in sorted(result.errors):
        lines.append(f"{t},{_fmt(result.errors[t])}")
    _write_lines(path, lines)


def _load_input(args: argparse.Namespace, **procrustes) -> ShapeSet:
    """The --input set, aligned.

    Under --no-align the input is used as it stands, and refused if its
    mean centroid is off the origin.  align passes its own Procrustes
    options; every other command aligns with the defaults and says so.
    """
    fmt = "directory_of_files" if args.format == "directory" else "csv_rows"
    shape_set = load_shape_set(args.input, fmt=fmt)
    if getattr(args, "no_align", False):
        try:
            return ShapeSet(shape_set.as_matrix(), aligned=True)
        except NotAligned as exc:
            raise NotAligned(
                f"{args.command}: input is not aligned and --no-align was given ({exc})"
            ) from exc
    if not procrustes:
        print(
            f"{args.command}: aligning the input with Procrustes"
            " (pass --no-align if it is already aligned)",
            file=sys.stderr,
        )
    return generalized_procrustes(shape_set, **procrustes)


def _add_input_flags(parser: argparse.ArgumentParser, no_align: bool = True) -> None:
    parser.add_argument("--input", required=True, help="shape data path")
    if no_align:
        parser.add_argument(
            "--no-align", action="store_true", dest="no_align", help="input is already aligned"
        )
    parser.add_argument(
        "--format",
        choices=("csv-rows", "directory"),
        default="csv-rows",
        dest="format",
        help="input layout: CSV rows or one file per shape",
    )


def _parse_counts(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _checked(parse, valid, expected: str):
    """An argparse type that parses the text and accepts it only if valid."""

    def convert(text: str):
        try:
            value = parse(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


_counts = _checked(str, lambda v: len(_parse_counts(v)) > 0, "comma-separated integers")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")
_sample_count = _checked(int, lambda v: v >= 2, "an integer of at least 2")
_landmark_count = _checked(int, lambda v: v >= 4, "an integer of at least 4")
_decibels = _checked(float, lambda v: v > -math.inf, "a number (dB) other than NaN or -inf")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_half_width = _checked(float, lambda v: 0 <= 2 * v < math.inf, "a number >= 0 with a finite span")
_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "a number strictly between 0 and 1")
_methods = _checked(str, lambda v: set(v.split(",")) <= set(METHODS), "proposed and/or variance")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--landmarks", type=_landmark_count, required=True)
    parser.add_argument("--order", type=_positive_int, required=True)
    parser.add_argument(
        "--spectrum", default=None, help="geometric:RATIO[:TOP] or list:V1,V2,... (descending)"
    )
    parser.add_argument("--seed-model", default=None, help="use a stored model as the seed")
    parser.add_argument("--beta-db", type=_decibels, required=True, dest="beta_db")
    parser.add_argument(
        "--b-dist", choices=("uniform", "gaussian"), default="uniform", dest="b_dist"
    )


def _add_trial_flags(parser: argparse.ArgumentParser, samples_help: str) -> None:
    parser.add_argument("--samples", type=_counts, required=True, help=samples_help)
    parser.add_argument("--trials", type=_positive_int, required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--methods", type=_methods, default="proposed,variance")
    parser.add_argument("--fraction", type=_fraction, default=0.95)
    parser.add_argument("--t-max", type=_positive_int, default=None, dest="t_max")
    # The default is read when the parser is built, so a manifest's config
    # records the count that was asked for.
    parser.add_argument(
        "--threads", type=_positive_int, default=usable_cpus(),
        help="forked worker processes across trials (Linux), at most one per job and usable "
        "CPU; default: the usable CPUs (%(default)s here); 1 runs in this process; results "
        "never depend on it",
    )
    parser.add_argument("--out", required=True)


def _seed_pdm_for(args: argparse.Namespace) -> PdmModel:
    """The generator model of simulate and montecarlo.

    Refused, before any shape is drawn, if --beta-db puts its noise
    variance out of the float range.
    """
    if args.seed_model is not None:
        if args.spectrum is not None:
            raise UsageError("--spectrum has no effect with --seed-model")
        loaded = load_pdm(args.seed_model)
        if args.landmarks != loaded.n_coords // 2:
            raise UsageError(
                f"--landmarks {args.landmarks} disagrees with the "
                f"{loaded.n_coords // 2} landmarks of --seed-model"
            )
        if args.order > loaded.order:
            raise UsageError(
                f"--order {args.order} exceeds the {loaded.order} modes of --seed-model"
            )
        model = truncate(loaded, args.order)
    else:
        if args.spectrum is None:
            args.spectrum = DEFAULT_SPECTRUM
        try:
            parse_spectrum(args.spectrum, args.order)
        except ValueError as exc:
            raise UsageError(f"--spectrum {args.spectrum!r}: {exc}") from exc
        model = make_seed_pdm_procedural(args.landmarks, args.order, args.spectrum, args.seed)
    try:
        noise_variance(model.lambdas, args.beta_db, args.b_dist)
    except ValueError as exc:
        raise UsageError(f"--beta-db {args.beta_db:g}: the noise variance is not finite") from exc
    return model


def cmd_align(args: argparse.Namespace) -> Path:
    aligned = _load_input(
        args, tol=args.tol, max_iter=args.max_iter, allow_scaling=not args.rigid
    )
    out = Path(args.out)
    write_shapes_csv(out, aligned)
    if args.report:
        report = aligned.alignment_report
        print(f"iterations={report.iterations}")
        print(f"final_change={_fmt(report.final_change)}")
    return out


def cmd_fit(args: argparse.Namespace) -> Path:
    model = fit_pdm(_load_input(args))
    if args.order is not None:
        model = truncate(model, args.order)
    out = Path(args.out)
    save_pdm(model, out)
    return out


def cmd_select(args: argparse.Namespace) -> tuple[Path | None, dict | None, None]:
    for method, defaults in SELECT_FLAGS.items():
        for dest, default in defaults.items():
            if method != args.method and getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise UsageError(f"select: {flag} applies only to --method {method}")
            if method == args.method and getattr(args, dest) is None:
                setattr(args, dest, default)
    shape_set = _load_input(args)
    out = None if args.out is None else Path(args.out)
    stats = None
    if args.method == "proposed":
        result = select_order_proposed(
            shape_set,
            t_max=args.t_max,
            split_seed=args.seed,
            tol=args.tol,
            max_iter=args.max_iter,
        )
        t_star = result.t_star
        for order, notes in sorted(result.diagnostics.items()):
            print(f"note: t={order}: {'; '.join(notes)}", file=sys.stderr)
        if out is not None:
            write_scores_csv(out, result)
        orders = {
            str(t): {"iterations": fit.iterations, "converged": fit.converged}
            for t, fit in result.per_order_fits.items()
        }
        stats = {"sweeps": result.sweeps, "orders": orders}
    else:
        t_star = select_order_variance(shape_set, fraction=args.fraction)
    print(f"t_star={t_star}")
    return out, stats, None


def cmd_simulate(args: argparse.Namespace) -> Path:
    try:
        _check_pose(args.rot_range, args.log_scale_range, args.translation_range)
    except ValueError as exc:
        raise UsageError(f"simulate: pose flags: {exc}") from exc
    model = _seed_pdm_for(args)
    shape_set = sample_shapes(
        model, args.samples, args.beta_db, args.seed, b_dist=args.b_dist,
        rotation=args.rot_range, log_scale=args.log_scale_range,
        translation=args.translation_range, realign=not args.no_realign,
    )
    out = Path(args.out)
    write_shapes_csv(out, shape_set)
    if args.out_truth is not None:
        source = f"from_data:{args.seed_model}" if args.seed_model else f"procedural:{args.seed}"
        record = {
            "order": model.order,
            "sigma2": noise_variance(model.lambdas, args.beta_db, args.b_dist),
            "beta_db": args.beta_db,
            "lambdas": [float(v) for v in model.lambdas],
            "rng_seed": args.seed,
            "source": source,
        }
        _write_json(Path(args.out_truth), record)
    return out


def cmd_montecarlo(args: argparse.Namespace) -> tuple[Path, dict, int]:
    summary = monte_carlo_order(
        _seed_pdm_for(args),
        beta_db=args.beta_db,
        sample_counts=_parse_counts(args.samples),
        trials=args.trials,
        rng_seed=args.seed,
        methods=tuple(args.methods.split(",")),
        variance_fraction=args.fraction,
        t_max=args.t_max,
        b_dist=args.b_dist,
        threads=args.threads,
    )
    return _write_trials(summary, args)


def cmd_sweep(args: argparse.Namespace) -> tuple[Path, dict, int]:
    summary = order_sweep(
        _load_input(args),
        sample_counts=_parse_counts(args.samples),
        trials=args.trials,
        rng_seed=args.seed,
        methods=tuple(args.methods.split(",")),
        mode=args.mode,
        t_max=args.t_max,
        variance_fraction=args.fraction,
        threads=args.threads,
    )
    return _write_trials(summary, args)


def _write_trials(summary: TrialSummary, args: argparse.Namespace) -> tuple[Path, dict, int]:
    out = Path(args.out)
    rows, hist = ["method,M,mean_t,var_t"], ["method,M,t,count"]
    for (method, count), cell in sorted(summary.cells.items()):
        rows.append(f"{method},{count},{_fmt(cell.mean_t)},{_fmt(cell.var_t)}")
        hist += [f"{method},{count},{t},{tally}" for t, tally in sorted(cell.hist.items())]
    _write_lines(out, rows)
    _write_lines(out.with_name(out.stem + "_hist" + out.suffix), hist)
    if summary.failures:
        print(f"failures={summary.failures}", file=sys.stderr)
        classes = ",".join(f"{name}:{n}" for name, n in summary.failure_classes.items())
        print(f"failure_classes={classes}", file=sys.stderr)
    stats = {
        "failures": summary.failures,
        "failure_classes": summary.failure_classes,
        "sweeps": summary.sweeps,
    }
    return out, stats, summary.workers


def cmd_lmmse(args: argparse.Namespace) -> Path:
    result = lmmse_curve(
        _load_input(args), t_max=args.t_max, selector_t_max=args.selector_t_max
    )
    out = Path(args.out)
    write_lmmse_csv(out, result)
    selected = {"argmin_t": result.argmin_t, "selected_orders": result.selected_orders}
    _write_json(out.with_suffix(".selected.json"), selected)
    return out


def cmd_mean_shape(args: argparse.Namespace) -> Path | None:
    landmarks = mean_shape(_load_input(args)).reshape(-1, 2)
    out = None if args.out is None else Path(args.out)
    _write_lines(out, ["x,y"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in landmarks])
    return out


@functools.cache
def build_parser() -> _Parser:
    """The command line parser, built once per process: parse_args keeps no state."""
    parser = _Parser(prog="pdmorder", description="Point distribution model order toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", parents=[], help="Procrustes-align a shape set")
    _add_input_flags(p, no_align=False)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=_non_negative, default=1e-9)
    p.add_argument("--max-iter", type=_positive_int, default=200, dest="max_iter")
    p.add_argument("--rigid", action="store_true", help="rotation and translation only")
    p.add_argument("--report", action="store_true", help="print key=value alignment stats")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("fit", help="fit and store an eigenmodel")
    _add_input_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--order", type=_positive_int, default=None, help="store only the leading modes"
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="select the model order")
    _add_input_flags(p)
    p.add_argument("--method", choices=METHODS, default="proposed")
    p.add_argument("--fraction", type=_fraction, default=None)
    p.add_argument(
        "--seed", type=_seed, default=None,
        help="shuffle the shapes before the split; without it the first half trains",
    )
    p.add_argument("--t-max", type=_positive_int, default=None, dest="t_max")
    p.add_argument("--tol", type=_non_negative, default=None)
    p.add_argument("--max-iter", type=_positive_int, default=None, dest="max_iter")
    p.add_argument("--out", default=None, help="write per-order scores CSV")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="generate one synthetic shape set")
    _add_model_flags(p)
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--rot-range", type=_half_width, default=_POSE["rotation"])
    p.add_argument("--log-scale-range", type=_half_width, default=_POSE["log_scale"])
    p.add_argument("--translation-range", type=_half_width, default=_POSE["translation"])
    p.add_argument("--no-realign", action="store_true", dest="no_realign")
    p.add_argument("--out", required=True)
    p.add_argument("--out-truth", default=None, dest="out_truth")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("montecarlo", help="Monte Carlo order-selection study")
    _add_model_flags(p)
    _add_trial_flags(p, "comma-separated sample counts")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("sweep", help="order selection over subsets of one set")
    _add_input_flags(p)
    _add_trial_flags(p, "comma-separated subset sizes")
    p.add_argument("--mode", choices=("random", "prefix"), default="random")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lmmse", help="leave-one-out hidden-landmark error curve")
    _add_input_flags(p)
    p.add_argument("--t-max", type=_positive_int, default=None, dest="t_max")
    p.add_argument(
        "--selector-t-max", type=_positive_int, default=None, dest="selector_t_max"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lmmse)

    p = sub.add_parser("mean-shape", help="average shape of an aligned set")
    _add_input_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mean_shape)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = _utc_now()
        artifact, stats, workers = args.func(args), None, None
        if isinstance(artifact, tuple):
            artifact, stats, workers = artifact
        if artifact is not None:
            write_manifest(artifact, args, started, stats, workers)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
