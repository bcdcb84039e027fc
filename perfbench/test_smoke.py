"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("montecarlo", "sweep", "lmmse")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace: str, kind: str) -> None:
    done = _run("--workload", "all", "--smoke", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2 * len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in SPEC[kind]:
            assert f"[{workload}] {metric['name']} = " in done.stdout
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], float)


def test_corrupted_reference_fails_the_run(tmp_path: Path) -> None:
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["smoke/lmmse"]["set_0"]["argmin_t"] += 1
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    done = _run("--workload", "lmmse", "--smoke", "--seconds", "0", "--reference", str(corrupted))
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "argmin_t" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "lmmse", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
