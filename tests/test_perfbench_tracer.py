"""perfbench's tracer still finds every name it wraps in the sources.

perfbench/tracing.py replaces pdmorder functions by name; a rename or a
deletion in src/ would break the traced benchmark run.  This loads the
tracer by path, installs it, runs one small traced Monte Carlo study and
uninstalls it, reading perfbench and changing nothing in it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pdmorder
from pdmorder import make_seed_pdm_procedural

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(home: str, attr: str):
    target = importlib.import_module(f"pdmorder.{home}")
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_tracer_installs_on_the_sources_and_uninstalls() -> None:
    assert Path(pdmorder.__file__).resolve().parent == ROOT / "src" / "pdmorder"
    tracing = _load_tracing()
    originals = {(home, attr): _resolve(home, attr) for home, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (home, attr), original in originals.items():
            assert _resolve(home, attr) is not original, f"{home}.{attr} is not traced"
        evaluation = importlib.import_module("pdmorder.evaluation")
        seed = make_seed_pdm_procedural(12, 3, "geometric:0.7", rng_seed=1)
        # Three shapes are too few for the proposed selector's split: one failure.
        summary = evaluation.monte_carlo_order(
            seed, 20.0, sample_counts=(3, 10), trials=1, rng_seed=1
        )
    finally:
        tracer.uninstall()
    for (home, attr), original in originals.items():
        assert _resolve(home, attr) is original, f"{home}.{attr} was not restored"
    counts = tracer.summary()
    assert counts["evaluation.monte_carlo_order.calls"] == 1
    assert counts["simgen.sample_shapes.calls"] == 2
    assert counts["evaluation.trial_failures"] == summary.failures == 1
