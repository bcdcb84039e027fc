"""Format of the committed BENCH_*.json files at the repository root.

Each file holds alternating parent/change runs of perfbench/run.py, as
tools/bench_pairs.py writes them; later files must keep the same keys so
that runs stay comparable from one change to the next.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
SHA = re.compile(r"[0-9a-f]{40}")


def test_a_bench_file_is_committed() -> None:
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_format(path: Path) -> None:
    record = json.loads(path.read_text())
    assert record["format"] == 1
    assert record["command"][:2] == ["python3", "perfbench/run.py"]
    assert SHA.fullmatch(record["parent"]["commit"])
    assert record["change"]["commit"] is None or SHA.fullmatch(record["change"]["commit"])
    for side in SIDES:
        assert SHA.fullmatch(record[side]["src_tree"])
    assert {"nproc", "cpu", "python", "numpy", "blas"} <= set(record["environment"])
    assert record["workloads"]
    for workload, entry in record["workloads"].items():
        metrics = None
        for side in SIDES:
            runs = entry["runs"][side]
            assert len(runs) == entry["pairs"] > 0, (workload, side)
            for run in runs:
                assert isinstance(run["correct"], bool) and run["failed"] >= 0
                metrics = metrics or set(run["metrics"])
                assert set(run["metrics"]) == metrics, (workload, side)
                tree = {"tree_cpu_s", "tree_maxrss_mb"} & set(run)
                if tree:  # the process tree's usage, recorded since the runs are reaped by wait4
                    assert tree == {"tree_cpu_s", "tree_maxrss_mb"}
                    assert run["tree_cpu_s"] > 0
                    assert run["tree_maxrss_mb"] >= run["metrics"]["peak_rss_mb"]
            summary = entry["summary"][side]
            assert set(summary) == metrics
            for name, stats in summary.items():
                values = [run["metrics"][name] for run in runs]
                assert stats["min"] == min(values) and stats["max"] == max(values)
                assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]
        assert set(entry["change_wins"]) == metrics
        assert all(0 <= won <= entry["pairs"] for won in entry["change_wins"].values())
