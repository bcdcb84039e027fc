"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every output artifact gets a sibling manifest <artifact>.manifest.json
recording the command, its canonicalized flags, a hash of them, and the
tool version, so a run can be reproduced or audited later.  All numbers in
data files carry 17 significant digits, which round-trips doubles exactly;
rerunning a command with identical flags and inputs produces byte-identical
data files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, NumericalError, NotAligned
from .evaluation import TrialSummary, lmmse_curve, monte_carlo_order, order_sweep, McConfig
from .order_select import select_order_proposed, select_order_variance
from .pdm import _fmt, fit_pdm, load_pdm, save_pdm, truncate, PdmModel
from .shapes import ShapeSet, generalized_procrustes, load_shape_set, mean_shape
from .simgen import (
    SeedPdm,
    SimConfig,
    TransformRanges,
    make_seed_pdm_procedural,
    sample_shapes,
    seed_pdm_from_model,
    noise_variance,
    parse_spectrum,
)


class UsageError(Exception):
    pass


METHODS = ("proposed", "variance")
DEFAULT_SPECTRUM = "geometric:0.7"
# The select flags only one method uses, with their defaults.  They parse
# with a None default so that a flag given to the other method is seen.
SELECT_FLAGS = {
    "proposed": {
        "split": "first-half",
        "seed": None,
        "t_max": None,
        "tol": 1e-8,
        "max_iter": 100,
        "mean": "x1",
        "clamp": "clip",
        "out": None,
    },
    "variance": {"fraction": 0.95},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _canonical_config(args: argparse.Namespace) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        config[key] = value
    return config


def config_hash(command: str, config: dict) -> str:
    canonical = json.dumps({"command": command, "config": config}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(artifact: Path, command: str, args: argparse.Namespace, started: str) -> None:
    config = _canonical_config(args)
    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_hash(command, config),
        "rng_seed": config.get("seed"),
        "tool_version": __version__,
        "timestamps": {"started": started, "finished": _utc_now()},
    }
    Path(str(artifact) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def write_shapes_csv(path: Path, shape_set: ShapeSet) -> None:
    lines = [",".join(_fmt(v) for v in row) for row in shape_set.as_matrix().T]
    path.write_text("\n".join(lines) + "\n")


def write_scores_csv(path: Path, result) -> None:
    lines = ["t,score,iterations,converged"]
    for order in sorted(result.scores):
        fit = result.per_order_fits[order]
        lines.append(
            f"{order},{_fmt(result.scores[order])},{fit.iterations},{str(fit.converged).lower()}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_summary_csv(path: Path, summary: TrialSummary) -> None:
    lines = ["method,M,mean_t,var_t"]
    for (method, count), cell in sorted(summary.cells.items()):
        lines.append(f"{method},{count},{_fmt(cell.mean_t)},{_fmt(cell.var_t)}")
    path.write_text("\n".join(lines) + "\n")


def write_hist_csv(path: Path, summary: TrialSummary) -> None:
    lines = ["method,M,t,count"]
    for (method, count), cell in sorted(summary.cells.items()):
        for t, tally in sorted(cell.hist.items()):
            lines.append(f"{method},{count},{t},{tally}")
    path.write_text("\n".join(lines) + "\n")


def write_lmmse_csv(path: Path, result) -> None:
    lines = ["t,e_lmmse"]
    for t in sorted(result.errors):
        lines.append(f"{t},{_fmt(result.errors[t])}")
    path.write_text("\n".join(lines) + "\n")


def _load_input(args: argparse.Namespace) -> ShapeSet:
    fmt = "directory_of_files" if args.format == "directory" else "csv_rows"
    return load_shape_set(args.input, fmt=fmt)


def _ensure_aligned(shape_set: ShapeSet, args: argparse.Namespace, command: str) -> ShapeSet:
    if shape_set.aligned:
        return shape_set
    if getattr(args, "no_align", False):
        raise NotAligned(f"{command}: input is not aligned and --no-align was given")
    print(f"{command}: input not aligned; running Procrustes alignment first", file=sys.stderr)
    return generalized_procrustes(shape_set)


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="shape data path")
    parser.add_argument(
        "--format",
        choices=("csv-rows", "directory"),
        default="csv-rows",
        dest="format",
        help="input layout: CSV rows or one file per shape",
    )


def _parse_counts(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _spectrum_order(text: str, order: int) -> int:
    """The order a spectrum spec fixes: its value count for list:, else order."""
    kind, _, rest = text.partition(":")
    return len([v for v in rest.split(",") if v.strip()]) if kind == "list" else order


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
_sample_count = _checked(int, lambda v: v >= 2, "an integer of at least 2")
_landmark_count = _checked(int, lambda v: v >= 4, "an integer of at least 4")
_decibels = _checked(float, lambda v: not math.isnan(v), "a number (dB) other than NaN")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "a number strictly between 0 and 1")
_methods = _checked(str, lambda v: set(v.split(",")) <= set(METHODS), "proposed and/or variance")
_spectrum = _checked(
    str,
    lambda v: parse_spectrum(v, _spectrum_order(v, 1)) is not None,
    "geometric:RATIO[:TOP] or list:V1,V2,... (positive, descending)",
)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--landmarks", type=_landmark_count, required=True)
    parser.add_argument("--order", type=_positive_int, required=True)
    parser.add_argument("--spectrum", type=_spectrum, default=None)
    parser.add_argument("--seed-model", default=None, help="use a stored model as the seed")
    parser.add_argument("--beta-db", type=_decibels, required=True, dest="beta_db")
    parser.add_argument(
        "--b-dist", choices=("uniform", "gaussian"), default="uniform", dest="b_dist"
    )


def _add_trial_flags(parser: argparse.ArgumentParser, samples_help: str) -> None:
    parser.add_argument("--samples", type=_counts, required=True, help=samples_help)
    parser.add_argument("--trials", type=_positive_int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--methods", type=_methods, default="proposed,variance")
    parser.add_argument("--fraction", type=_fraction, default=0.95)
    parser.add_argument("--t-max", type=_positive_int, default=None, dest="t_max")
    parser.add_argument("--threads", type=_positive_int, default=1)
    parser.add_argument("--out", required=True)


def _seed_pdm_for(args: argparse.Namespace) -> SeedPdm:
    if args.seed_model:
        if args.spectrum is not None:
            raise UsageError("--spectrum has no effect with --seed-model")
        loaded = load_pdm(args.seed_model)
        if args.landmarks != loaded.n_coords // 2:
            raise UsageError(
                f"--landmarks {args.landmarks} disagrees with the "
                f"{loaded.n_coords // 2} landmarks of --seed-model"
            )
        if isinstance(loaded, PdmModel):
            loaded = truncate(loaded, args.order)
        elif args.order != loaded.order:
            raise UsageError(
                f"--order {args.order} disagrees with the {loaded.order} modes of --seed-model"
            )
        return seed_pdm_from_model(loaded, source=f"from_data:{args.seed_model}")
    if args.spectrum is None:
        args.spectrum = DEFAULT_SPECTRUM
    if _spectrum_order(args.spectrum, args.order) != args.order:
        raise UsageError(f"--spectrum {args.spectrum!r} does not give {args.order} values")
    return make_seed_pdm_procedural(args.landmarks, args.order, args.spectrum, args.seed)


def cmd_align(args: argparse.Namespace) -> int:
    started = _utc_now()
    aligned = generalized_procrustes(
        _load_input(args),
        tol=args.tol,
        max_iter=args.max_iter,
        allow_scaling=not args.rigid,
    )
    out = Path(args.out)
    write_shapes_csv(out, aligned)
    write_manifest(out, "align", args, started)
    if args.report:
        report = aligned.alignment_report
        print(f"iterations={report.iterations}")
        print(f"final_change={_fmt(report.final_change)}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    started = _utc_now()
    shape_set = _ensure_aligned(_load_input(args), args, "fit")
    model = fit_pdm(shape_set)
    out = Path(args.out)
    save_pdm(model, out, order=args.order)
    write_manifest(out, "fit", args, started)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    started = _utc_now()
    for method, defaults in SELECT_FLAGS.items():
        for dest, default in defaults.items():
            if method != args.method and getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise UsageError(f"select: {flag} applies only to --method {method}")
            if method == args.method and getattr(args, dest) is None:
                setattr(args, dest, default)
    if args.split == "shuffled" and args.seed is None:
        raise UsageError("select: --split shuffled needs --seed")
    shape_set = _ensure_aligned(_load_input(args), args, "select")
    if args.method == "proposed":
        result = select_order_proposed(
            shape_set,
            t_max=args.t_max,
            split_policy="shuffled" if args.split == "shuffled" else "first_half",
            split_seed=args.seed,
            tol=args.tol,
            max_iter=args.max_iter,
            mean_source=args.mean,
            clamp_mode=args.clamp,
        )
        t_star = result.t_star
        for order, notes in sorted(result.diagnostics.items()):
            print(f"note: t={order}: {'; '.join(notes)}", file=sys.stderr)
        if args.out:
            out = Path(args.out)
            write_scores_csv(out, result)
            write_manifest(out, "select", args, started)
    else:
        t_star = select_order_variance(fit_pdm(shape_set), fraction=args.fraction)
    print(f"t_star={t_star}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    started = _utc_now()
    seed_pdm = _seed_pdm_for(args)
    config = SimConfig(
        n_samples=args.samples,
        beta_db=args.beta_db,
        rng_seed=args.seed,
        transform_ranges=TransformRanges(
            rotation=args.rot_range,
            log_scale=args.log_scale_range,
            translation=args.translation_range,
        ),
        realign=not args.no_realign,
        b_dist=args.b_dist,
    )
    shape_set = sample_shapes(seed_pdm, config)
    out = Path(args.out)
    write_shapes_csv(out, shape_set)
    write_manifest(out, "simulate", args, started)
    if args.out_truth:
        model = seed_pdm.underlying
        truth = {
            "order": model.order,
            "sigma2": noise_variance(model.lambdas, args.beta_db),
            "beta_db": args.beta_db,
            "lambdas": [float(v) for v in model.lambdas],
            "rng_seed": args.seed,
            "source": seed_pdm.source,
        }
        Path(args.out_truth).write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    started = _utc_now()
    cfg = McConfig(
        seed_pdm=_seed_pdm_for(args),
        beta_db=args.beta_db,
        sample_counts=_parse_counts(args.samples),
        trials=args.trials,
        rng_seed=args.seed,
        methods=tuple(args.methods.split(",")),
        variance_fraction=args.fraction,
        selector_t_max=args.t_max,
        b_dist=args.b_dist,
    )
    return _write_trials(monte_carlo_order(cfg, threads=args.threads), args, started)


def cmd_sweep(args: argparse.Namespace) -> int:
    started = _utc_now()
    shape_set = _ensure_aligned(_load_input(args), args, "sweep")
    summary = order_sweep(
        shape_set,
        sample_counts=_parse_counts(args.samples),
        trials=args.trials,
        rng_seed=args.seed,
        methods=tuple(args.methods.split(",")),
        mode=args.mode,
        t_max=args.t_max,
        variance_fraction=args.fraction,
        threads=args.threads,
    )
    return _write_trials(summary, args, started)


def _write_trials(summary: TrialSummary, args: argparse.Namespace, started: str) -> int:
    out = Path(args.out)
    write_summary_csv(out, summary)
    write_hist_csv(out.with_name(out.stem + "_hist" + out.suffix), summary)
    write_manifest(out, args.command, args, started)
    if summary.failures:
        print(f"failures={summary.failures}", file=sys.stderr)
    return 0


def cmd_lmmse(args: argparse.Namespace) -> int:
    started = _utc_now()
    shape_set = _ensure_aligned(_load_input(args), args, "lmmse")
    result = lmmse_curve(
        shape_set,
        t_max=args.t_max,
        estimator=args.estimator,
        selector_t_max=args.selector_t_max,
    )
    out = Path(args.out)
    write_lmmse_csv(out, result)
    sidecar = out.with_suffix(".selected.json")
    sidecar.write_text(
        json.dumps(
            {"argmin_t": result.argmin_t, "selected_orders": result.selected_orders},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    write_manifest(out, "lmmse", args, started)
    return 0


def cmd_mean_shape(args: argparse.Namespace) -> int:
    started = _utc_now()
    shape_set = _ensure_aligned(_load_input(args), args, "mean-shape")
    landmarks = mean_shape(shape_set).coords.reshape(-1, 2)
    text = "\n".join(["x,y"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in landmarks]) + "\n"
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        write_manifest(out, "mean-shape", args, started)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pdmorder", description="Point distribution model order toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", parents=[], help="Procrustes-align a shape set")
    _add_input_flags(p)
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
    p.add_argument("--no-align", action="store_true", dest="no_align")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="select the model order")
    _add_input_flags(p)
    p.add_argument("--method", choices=METHODS, default="proposed")
    p.add_argument("--fraction", type=_fraction, default=None)
    p.add_argument("--split", choices=("first-half", "shuffled"), default=None)
    p.add_argument("--seed", type=int, default=None, help="shuffled-split seed")
    p.add_argument("--t-max", type=_positive_int, default=None, dest="t_max")
    p.add_argument("--tol", type=_non_negative, default=None)
    p.add_argument("--max-iter", type=_positive_int, default=None, dest="max_iter")
    p.add_argument("--mean", choices=("x1", "x2"), default=None)
    p.add_argument("--clamp", choices=("clip", "scale"), default=None)
    p.add_argument("--no-align", action="store_true", dest="no_align")
    p.add_argument("--out", default=None, help="write per-order scores CSV")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="generate one synthetic shape set")
    _add_model_flags(p)
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rot-range", type=_non_negative, default=float(np.pi), dest="rot_range")
    p.add_argument("--log-scale-range", type=_non_negative, default=0.2, dest="log_scale_range")
    p.add_argument(
        "--translation-range", type=_non_negative, default=0.5, dest="translation_range"
    )
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
    p.add_argument("--no-align", action="store_true", dest="no_align")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lmmse", help="leave-one-out hidden-landmark error curve")
    _add_input_flags(p)
    p.add_argument("--t-max", type=_positive_int, default=None, dest="t_max")
    p.add_argument("--estimator", choices=("ridge", "pinv"), default="ridge")
    p.add_argument(
        "--selector-t-max", type=_positive_int, default=None, dest="selector_t_max"
    )
    p.add_argument("--no-align", action="store_true", dest="no_align")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lmmse)

    p = sub.add_parser("mean-shape", help="average shape of an aligned set")
    _add_input_flags(p)
    p.add_argument("--no-align", action="store_true", dest="no_align")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mean_shape)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
