"""Span tracing of pdmorder's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every module attribute
that refers to it, so calls made through `from .pdm import fit_pdm` style
imports are seen as well.  Spans (name, start, end, parent, thread) stay in
memory; `Tracer.write` dumps them once when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "evaluation", "order_select", "pdm", "shapes", "simgen")


def _lmmse_predictions(result, args, kwargs):
    shape_set = args[0] if args else kwargs["shape_set"]
    folds, landmarks = shape_set.n_shapes, shape_set.n_coords // 2
    return {"evaluation.lmmse.predictions": folds * len(result.errors) * landmarks}


def _load_bytes(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"shapes.load_shape_set.bytes": os.path.getsize(path)}


# (home module, attribute, counters taken from the call's result)
TARGETS = (
    ("cli", "main", None),
    ("shapes", "load_shape_set", _load_bytes),
    (
        "shapes",
        "generalized_procrustes",
        lambda r, a, k: {
            "shapes.generalized_procrustes.iterations": r.alignment_report.iterations
        },
    ),
    ("shapes", "ShapeSet.subset", None),
    ("simgen", "sample_shapes", None),
    ("pdm", "fit_pdm", None),
    ("pdm", "project_constrained", None),
    ("order_select", "split_data", None),
    (
        "order_select",
        "alternating_ml",
        lambda r, a, k: {
            "order_select.alternating_ml.sweeps": r.iterations,
            "order_select.alternating_ml.unconverged": int(not r.converged),
        },
    ),
    ("order_select", "select_order_proposed", None),
    ("evaluation", "monte_carlo_order", lambda r, a, k: {"evaluation.trial_failures": r.failures}),
    ("evaluation", "order_sweep", lambda r, a, k: {"evaluation.trial_failures": r.failures}),
    ("evaluation", "lmmse_curve", _lmmse_predictions),
)
COUNTERS = (
    "shapes.load_shape_set.bytes",
    "shapes.generalized_procrustes.iterations",
    "order_select.alternating_ml.sweeps",
    "order_select.alternating_ml.unconverged",
    "evaluation.trial_failures",
    "evaluation.lmmse.predictions",
)


class Tracer:
    """Times calls into pdmorder's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _wrap(self, name: str, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if counters is not None:
                counts = counters(result, args, kwargs)
                with tracer._lock:
                    for key, value in counts.items():
                        tracer.counters[key] += value
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"pdmorder.{m}") for m in MODULES]
        for home_name, attr, counters in TARGETS:
            home = importlib.import_module(f"pdmorder.{home_name}")
            name = f"{home_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, counters))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """calls, busy_s and self_s per traced name, plus the counters.

        self_s is a span's duration minus that of its direct children,
        which always run on the span's own thread.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict(self.counters)
        for home_name, attr, _ in TARGETS:
            for metric in ("calls", "busy_s", "self_s"):
                out[f"{home_name}.{attr}.{metric}"] = 0.0
        for span_id, name, start, end, _, _ in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[span_id]
        return out

    def write(self, path: Path) -> None:
        lines = ["id\tname\tstart\tend\tparent\tthread"]
        for span_id, name, start, end, parent, thread in sorted(self.spans):
            lines.append(f"{span_id}\t{name}\t{start!r}\t{end!r}\t{parent}\t{thread}")
        path.write_text("\n".join(lines) + "\n")
