"""The benchmark's workloads: generated inputs, the commands run on them, output checks.

Every workload uses the procedural seed model of the acceptance tests
(40 landmarks, so N = 80 coordinates, order 10, geometric:0.7 spectrum).
Inputs are written by `pdmorder simulate` from seeds derived from the run's
seed.  A workload has a fixed list of distinct operations (one "cycle");
the closed loop repeats the cycle, so every repeated operation must write
byte-identical data files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Relative tolerance for the reference LMMSE curve, taken against its
# largest magnitude.  It admits a reformulated solve (a change of about
# 1e-6 is expected from a better-conditioned LMMSE formulation) but not a
# different answer.
LMMSE_RTOL = 1e-5

# A full-size op takes 3.5-6.5 s: long enough to span several of the fast
# and slow spells of a shared host, so op durations do not split between
# two speeds and their median does not jump from run to run.
SIZES = {
    "full": {
        "model": ("40", "10"),
        "montecarlo": {"runs": 2, "samples": "10,20,40,100,200", "trials": 8, "beta_db": "5"},
        "sweep": {"runs": 2, "shapes": 400, "samples": "10,20,40", "trials": 90, "beta_db": "20"},
        "lmmse": {"sets": 2, "shapes": 30, "beta_db": "10"},
    },
    "smoke": {
        "model": ("12", "4"),
        "montecarlo": {"runs": 1, "samples": "10,20", "trials": 2, "beta_db": "5"},
        "sweep": {"runs": 1, "shapes": 40, "samples": "10,20", "trials": 3, "beta_db": "20"},
        "lmmse": {"sets": 1, "shapes": 8, "beta_db": "10"},
    },
}

# --threads given to each workload's command (None: the command's default).
THREADS = {"montecarlo": 2, "sweep": None, "lmmse": None}


@dataclass(frozen=True)
class Op:
    """One command of a cycle; key names its reference answer."""

    key: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]


@dataclass(frozen=True)
class Input:
    name: str
    seed: int
    sha256: str
    bytes: int


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(run_cli, model, out: Path, shapes: int, beta_db: str, seed: int) -> Input:
    argv = ["simulate", "--landmarks", model[0], "--order", model[1], "--spectrum", "geometric:0.7",
            "--beta-db", beta_db, "--samples", str(shapes), "--seed", str(seed),
            "--no-realign", "--out", str(out)]
    code, _, err = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"simulate failed with exit code {code}: {err.strip()}")
    return Input(out.name, seed, _sha256(out), out.stat().st_size)


def build(workload: str, mode: str, seed: int, workdir: Path, run_cli) -> tuple[list[Op], list[Input]]:
    """Write the workload's inputs into workdir and return its cycle of ops."""
    sizes = SIZES[mode]
    size, model = sizes[workload], sizes["model"]
    threads = ["--threads", str(THREADS[workload])] if THREADS[workload] else []
    ops: list[Op] = []
    inputs: list[Input] = []
    if workload == "montecarlo":
        out = workdir / "mc.csv"
        for i in range(size["runs"]):
            argv = ("montecarlo", "--landmarks", model[0], "--order", model[1],
                    "--spectrum", "geometric:0.7", "--beta-db", size["beta_db"],
                    "--samples", size["samples"], "--trials", str(size["trials"]),
                    *threads, "--seed", str(seed * 1000 + i), "--out", str(out))
            ops.append(Op(f"run_{i}", argv, (out, workdir / "mc_hist.csv")))
    elif workload == "sweep":
        path = workdir / "sweep_input.csv"
        inputs.append(_simulate(run_cli, model, path, size["shapes"], size["beta_db"], seed * 1000))
        out = workdir / "sweep.csv"
        for i in range(size["runs"]):
            argv = ("sweep", "--input", str(path), "--samples", size["samples"],
                    "--trials", str(size["trials"]), "--mode", "random", *threads,
                    "--seed", str(seed * 1000 + i), "--out", str(out))
            ops.append(Op(f"run_{i}", argv, (out, workdir / "sweep_hist.csv")))
    elif workload == "lmmse":
        out = workdir / "occ_out.csv"
        for i in range(size["sets"]):
            path = workdir / f"occ_{i}.csv"
            inputs.append(_simulate(run_cli, model, path, size["shapes"], size["beta_db"], seed * 1000 + i))
            argv = ("lmmse", "--input", str(path), "--out", str(out), *threads)
            ops.append(Op(f"set_{i}", argv, (out, workdir / "occ_out.selected.json")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, inputs


def trials_of(workload: str, mode: str) -> int:
    return SIZES[mode][workload].get("trials", 0)


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _argmin(curve: dict[int, float]) -> int:
    return min(curve, key=lambda t: (curve[t], t))


def _check_tabulation(op: Op, stdout: str, stderr: str, trials: int) -> dict:
    summary_path, hist_path = op.outputs
    failures = 0
    for line in stderr.splitlines():
        if line.startswith("failures="):
            failures = int(line[9:])
    hist: dict[str, dict[int, int]] = {}
    for method, m, t, count in _csv_rows(hist_path, "method,M,t,count"):
        hist.setdefault(f"{method},{m}", {})[int(t)] = int(count)
    summary = {f"{method},{m}": float(mean) for method, m, mean, _ in _csv_rows(summary_path, "method,M,mean_t,var_t")}
    for cell, mean in summary.items():
        counts = hist.get(cell, {})
        total = sum(counts.values())
        if total > trials or any(t < 1 for t in counts):
            raise ValueError(f"cell {cell}: {total} picks for {trials} trials")
        if total and abs(sum(t * c for t, c in counts.items()) / total - mean) > 1e-9 * max(1.0, mean):
            raise ValueError(f"cell {cell}: mean_t disagrees with the histogram")
    # A failed trial drops the picks of every method, so per method the
    # picks missing from all cells together equal the failure count.
    methods = {cell.split(",")[0] for cell in summary}
    for method in methods:
        missing = sum(trials - sum(hist.get(cell, {}).values()) for cell in summary if cell.startswith(method + ","))
        if missing != failures:
            raise ValueError(f"{method}: histogram totals plus failures={failures} do not equal trials")
    return {"hist": hist, "failures": failures}


def _check_lmmse(op: Op, stdout: str, stderr: str, trials: int) -> dict:
    curve = {int(t): float(e) for t, e in _csv_rows(op.outputs[0], "t,e_lmmse")}
    if sorted(curve) != list(range(1, len(curve) + 1)):
        raise ValueError("LMMSE orders are not 1..T")
    if not all(math.isfinite(e) and e >= 0 for e in curve.values()):
        raise ValueError("LMMSE curve is not finite and non-negative")
    selected = json.loads(op.outputs[1].read_text())
    if selected["argmin_t"] != _argmin(curve):
        raise ValueError(f"argmin_t={selected['argmin_t']} is not the argmin of the curve")
    if not all(isinstance(t, int) and t >= 1 for t in selected["selected_orders"].values()):
        raise ValueError("selected orders are not positive integers")
    return {"argmin_t": selected["argmin_t"], "selected_orders": selected["selected_orders"], "e_lmmse": curve}


CHECKS = {"montecarlo": _check_tabulation, "sweep": _check_tabulation, "lmmse": _check_lmmse}
APPROX = {"e_lmmse": LMMSE_RTOL}


def check(workload: str, op: Op, stdout: str, stderr: str, trials: int) -> dict:
    """Validate one op's outputs; returns its answer in JSON form (string keys)."""
    answer = CHECKS[workload](op, stdout, stderr, trials)
    return json.loads(json.dumps(answer))


def compare(answer: dict, reference: dict) -> list[str]:
    """Differences between an answer and its stored reference."""
    errors = []
    for key, expected in reference.items():
        got = answer.get(key)
        if key in APPROX:
            if got is None or set(got) != set(expected):
                errors.append(f"{key}: orders differ from the reference")
                continue
            scale = max(abs(v) for v in expected.values())
            worst = max(abs(got[t] - expected[t]) for t in expected)
            if worst > APPROX[key] * scale:
                errors.append(f"{key}: off by {worst / scale:.3g} relative (tolerance {APPROX[key]:g})")
        elif got != expected:
            errors.append(f"{key}: {got!r} differs from the reference {expected!r}")
    return errors
