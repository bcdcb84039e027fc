#!/usr/bin/env python3
"""Benchmark a parent and a changed checkout in alternating pairs; write one BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --pairs montecarlo=5,sweep=3,lmmse=5 --seconds 30 --out BENCH_<parent short sha>.json

Both directories are clean git checkouts.  For every workload each pair
runs `python3 perfbench/run.py --workload W --seconds S` once in each
directory, one run at a time; the side that goes first alternates from pair
to pair, so a drift of the host's speed falls on both sides alike.  Before
the first pair it compiles each side's `src/` to bytecode, so that both
import from the same state.

The file records the parent's commit, both sides' `src/` tree hash, the
environment from perfbench's details file, every run with its `correct`,
`failed`, `attempted` and end-to-end metrics, beside them the run's whole
process tree as the harness reaps it (`tree_cpu_s`, user plus system CPU
seconds of perfbench and every process it waited for: forked trial
workers and its import probes; `tree_maxrss_mb`, the largest peak RSS of
any one of those processes), per side the median,
quartiles, minimum and maximum of each metric, and per metric the number of
pairs the change won (by the `better` direction of BENCHMARK.json).  It is
written before the change is committed, so the change is known by its
`src/` tree (`git rev-parse <commit>:src` gives it back), its commit is
null, and the file is named after the parent's short sha.
tests/test_bench_files.py checks the format.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

FORMAT = 1
SIDES = ("parent", "change")


def git(directory: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(directory), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def identity(directory: Path, side: str) -> dict:
    """The side's commit and src/ tree; the change's commit does not exist yet, so it is null."""
    if git(directory, "status", "--porcelain"):
        sys.exit(f"{directory} has uncommitted changes; its src/ tree would not be what ran")
    commit = git(directory, "rev-parse", "HEAD") if side == "parent" else None
    return {"commit": commit, "src_tree": git(directory, "rev-parse", "HEAD:src")}


def compile_src(directory: Path) -> None:
    """Write the bytecode of the side's src/, so no run of either side compiles it on import.

    __pycache__/ is gitignored, so identity() cannot see that only one side
    has it, and under PYTHONDONTWRITEBYTECODE=1 a side without it compiles
    src/ in every run.  On a 2-core host with Python 3.11 that made a fresh
    import of pdmorder.cli, which setup_s times, 10-20% slower with no code
    change.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=directory, check=True)


def run_once(directory: Path, workload: str, seconds: float) -> tuple[dict, dict, dict]:
    """One perfbench run: (its result line, the environment of its details file,
    the CPU seconds and peak RSS of its process tree).

    The run is reaped with os.wait4, whose resource usage covers the run and
    every process it waited for, so the CPU of forked workers is counted
    with the parent's.  Its output goes to files, since reading pipes to
    their end would need a wait that reaps the run first.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen(argv, cwd=directory, stdout=out, stderr=err)
        timeout = threading.Timer(1800, child.kill)
        timeout.start()
        _, status, usage = os.wait4(child.pid, 0)
        timeout.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    try:
        result = json.loads(stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{directory}: {workload} printed no result (exit {child.returncode}):\n{stderr}")
    details = directory / ".perfbench_out" / f"{workload}-seed1-full-pinned-trace0.json"
    tree = {"tree_cpu_s": usage.ru_utime + usage.ru_stime, "tree_maxrss_mb": usage.ru_maxrss / 1024.0}
    return result, json.loads(details.read_text())["environment"], tree


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}
    return summary


def wins(runs: dict[str, list[dict]], better: dict[str, str]) -> dict[str, int]:
    """Pairs in which the change reads better than the parent, per metric; ties count for neither."""
    sign = {name: 1 if way == "higher" else -1 for name, way in better.items()}
    return {
        name: sum(sign[name] * (c["metrics"][name] - p["metrics"][name]) > 0
                  for p, c in zip(runs["parent"], runs["change"]))
        for name in runs["parent"][0]["metrics"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", required=True, help="workload=pairs,...")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    record = {
        "format": FORMAT,
        "command": ["python3", "perfbench/run.py", "--workload", "<workload>", "--seconds", str(args.seconds)],
        **{side: identity(dirs[side], side) for side in SIDES},
        "environment": None,
        "workloads": {},
    }
    for side in SIDES:
        compile_src(dirs[side])
    for item in args.pairs.split(","):
        workload, pairs = item.split("=")
        if int(pairs) < 2:
            sys.exit(f"{workload}: quartiles need at least 2 pairs")
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        threads = None
        for pair in range(int(pairs)):
            for position, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                result, env, tree = run_once(dirs[side], workload, args.seconds)
                threads = env.pop("threads")
                if record["environment"] is None:
                    record["environment"] = env
                elif env != record["environment"]:
                    sys.exit(f"environment changed between runs: {env} != {record['environment']}")
                runs[side].append({
                    "pair": pair, "position": position, "correct": result["correct"],
                    "failed": result["failed"], "attempted": result["attempted"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                    **tree,
                })
                print(f"{workload} pair {pair} {side}: ops_per_s "
                      f"{runs[side][-1]['metrics']['ops_per_s']:.4g} correct {result['correct']}",
                      file=sys.stderr, flush=True)
        summary = {side: summarise(runs[side]) for side in SIDES}
        record["workloads"][workload] = {
            "pairs": int(pairs),
            "threads": threads,
            "runs": runs,
            "summary": summary,
            "change_wins": wins(runs, better),
            "change_over_parent_median": {
                name: summary["change"][name]["median"] / summary["parent"][name]["median"]
                for name in summary["parent"]
            },
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
