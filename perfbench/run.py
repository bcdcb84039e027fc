#!/usr/bin/env python3
"""Closed-loop benchmark of the pdmorder command line, with an optional traced run.

Each operation is one in-process call of `pdmorder.cli.main(argv)` on
inputs that `pdmorder simulate` writes from the run's seed; one caller
issues the next operation only after the previous one has returned.  The
loop repeats the workload's cycle of distinct operations until --seconds
of operation time have passed and at least two whole cycles have run,
checking every operation's exit code and outputs.

    python3 perfbench/run.py --workload lmmse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload all --smoke    # tiny sizes
    python3 perfbench/run.py --workload lmmse --blas unpinned

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics (per operation) with --trace 1.
The exit code is 0 only when every output check passed, and 2, with no
result, when the benchmark cannot run.  Details (inputs and their SHA-256,
environment, op durations, import samples, tracing overhead) go to
.perfbench_out/ at the repository root; a traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("montecarlo", "sweep", "lmmse")
DEFAULT_SEED = 1
# Fresh-process imports of pdmorder.cli, besides the workload process's own.
# They are taken between ops, spread evenly over the closed loop: the host's
# speed drifts over tens of seconds, and samples that span the run see the
# same host as the op timings do.
SETUP_SAMPLES = 20
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pdmorder.cli; print(time.perf_counter() - t)"
)


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    parser.add_argument("--blas", choices=("pinned", "unpinned"), default="pinned",
                        help="pin BLAS to one thread (default) or leave it at its own default")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference answers checked on the default seed")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's answers as the reference instead of checking them")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"reference answers are kept for --seed {DEFAULT_SEED} only")
    return args


def import_cli():
    """Import pdmorder.cli from this checkout's sources; returns (module, seconds)."""
    if not (SRC / "pdmorder" / "cli.py").is_file():
        raise SetupError(f"no pdmorder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import pdmorder.cli as cli

    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "pdmorder":
        raise SetupError(f"imported pdmorder from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def import_sample() -> float:
    """Import time of pdmorder.cli in a fresh process with this process's environment."""
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                           text=True, timeout=120, cwd=ROOT)
    if child.returncode != 0:
        raise SetupError(f"import probe failed: {child.stderr.strip()}")
    return float(child.stdout)


def environment(blas: str, threads: int | None) -> dict:
    import numpy

    blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas_info.get('name')} {blas_info.get('version')}",
        "blas_threads": blas,
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "threads": threads,
    }


def make_runner(cli):
    """Call cli.main quietly; returns (exit code, stdout, stderr)."""

    def run_cli(argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:  # noqa: BLE001 - an escaping error is a failed op, not a dead run
                traceback.print_exc()
                code = -1
        return code, out.getvalue(), err.getvalue()

    return run_cli


def closed_loop(ops, seconds, run_cli, verify):
    """Run whole cycles of ops until `seconds` of op time have passed (at least two cycles).

    Between ops, outside the timed calls, SETUP_SAMPLES import samples are
    taken, spread evenly over the first `seconds` of op time.  Returns the op
    durations, the import samples, the number of failed ops and their errors.
    """
    durations: list[float] = []
    imports: list[float] = []
    errors: list[str] = []
    failed = 0
    digests: dict[str, str] = {}
    while True:
        op = ops[len(durations) % len(ops)]
        for path in op.outputs:
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        code, stdout, stderr = run_cli(op.argv)
        durations.append(time.perf_counter() - start)
        problems = [f"exit code {code}: {stderr.strip()[-300:]}"] if code != 0 else verify(op, stdout, stderr)
        if not problems:
            digest = hashlib.sha256(stdout.encode())
            for path in op.outputs:
                digest.update(path.read_bytes())
            if digests.setdefault(op.key, digest.hexdigest()) != digest.hexdigest():
                problems = ["outputs are not byte-identical to the previous run of this op"]
        failed += bool(problems)
        errors.extend(f"op {len(durations)} ({op.key}): {p}" for p in problems)
        op_time = sum(durations)
        due = SETUP_SAMPLES if op_time >= seconds else math.ceil(SETUP_SAMPLES * op_time / seconds)
        while len(imports) < due:
            imports.append(import_sample())
        if len(durations) % len(ops) == 0 and len(durations) >= 2 * len(ops) and op_time >= seconds:
            return durations, imports, failed, errors


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With fewer than eleven samples no percentile qualifies and the maximum
    is reported, with nothing beyond it.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    value = ordered[n - 11]
    return value, 100.0 * (n - 11) / (n - 1), sum(d > value for d in ordered)


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    if args.blas == "pinned":
        for var in BLAS_VARS:
            os.environ[var] = "1"
    else:
        for var in BLAS_VARS:
            os.environ.pop(var, None)
    cli, import_s = import_cli()
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import Tracer

    mode = "smoke" if args.smoke else "full"
    tag = f"{args.workload}-seed{args.seed}-{mode}-{args.blas}"
    ref_key = f"{mode}/{args.workload}"
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = json.loads(args.reference.read_text()).get(ref_key)
        if reference is None:
            raise SetupError(f"{args.reference} has no reference answers for {ref_key}")
    trials = workloads.trials_of(args.workload, mode)
    answers: dict[str, dict] = {}

    def verify(op, stdout: str, stderr: str) -> list[str]:
        try:
            answer = workloads.check(args.workload, op, stdout, stderr, trials)
        except (ValueError, KeyError, OSError) as exc:
            return [f"output check: {exc}"]
        answers.setdefault(op.key, answer)
        if reference is None:
            return []
        if op.key not in reference:
            return ["no reference answer"]
        return workloads.compare(answer, reference[op.key])

    OUT.mkdir(exist_ok=True)
    run_cli = make_runner(cli)
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        ops, inputs = workloads.build(args.workload, mode, args.seed, workdir, run_cli)
        if tracer:
            tracer.install()
        try:
            durations, imports, failed, errors = closed_loop(ops, args.seconds, run_cli, verify)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup = [import_s, *imports]

    n = len(durations)
    ops_per_s = n / sum(durations)
    tail_s, tail_pct, beyond = tail(durations)
    measured = {
        "ops_per_s": ops_per_s,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    if tracer:
        measured = {name: value / n for name, value in tracer.summary().items()}
        measured["bench.traced_ops_per_s"] = ops_per_s
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    env = environment(args.blas, workloads.THREADS[args.workload])
    details = {
        "workload": args.workload, "mode": mode, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "inputs": [vars(i) for i in inputs], "ops_argv": [op.argv for op in ops],
        "ops": n, "failed": failed, "failed_frac": failed / n, "errors": errors[:50],
        "op_durations_s": durations, "setup_samples_s": setup,
        "op_tail": {"percentile": tail_pct, "beyond": beyond, "samples": n},
        "metrics": metrics,
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"[{args.workload}] {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"[{args.workload}] failed_frac = {failed / n:.6g} ({failed} of {n} ops)")
    print(f"[{args.workload}] op_tail is p{tail_pct:.1f} of {n} ops, {beyond} beyond it")
    for error in errors[:10]:
        print(f"[{args.workload}] FAILED {error}")
    if tracer:
        tracer.write(OUT / f"spans-{tag}.tsv")
        untraced = OUT / f"{tag}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["ops_per_s"]["value"]
            details["tracing_overhead_ops_per_s"] = ops_per_s - base
            print(f"[{args.workload}] tracing overhead: traced minus untraced ops_per_s = "
                  f"{ops_per_s - base:.4g} ({ops_per_s:.4g} vs {base:.4g})")
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.write_reference and not errors:
        stored = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
        stored.update({"seed": DEFAULT_SEED, ref_key: answers})
        args.reference.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not errors, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; prints one combined result."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--blas", args.blas, "--reference", str(args.reference)]
    rest += ["--smoke"] * args.smoke + ["--write-reference"] * args.write_reference
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload, *rest],
                               capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{workload}] printed no result (exit code {child.returncode})", file=sys.stderr)
            return child.returncode or 2
        code = code or child.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, spec)
    except (SetupError, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
