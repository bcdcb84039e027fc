"""Every python example of README.md runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from pdmorder.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_examples() -> None:
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"example-{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(
    source: str, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The quick start reads hands.csv from the working directory.
    monkeypatch.chdir(tmp_path)
    assert main([
        "simulate", "--landmarks", "12", "--order", "3", "--beta-db", "20",
        "--samples", "40", "--seed", "1", "--out", "hands.csv",
    ]) == 0
    exec(compile(source, str(README), "exec"), {})
