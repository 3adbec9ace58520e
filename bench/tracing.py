"""In-process tracing of condreg's layers, from the benchmark's own code.

:class:`Tracer` replaces each public function at the place its callers
bind it (``condreg.ols.expand``, ``condreg.selection.fit``, ...) with a
wrapper that records a span (name, start, end, parent, pass id) and a
few counters.  Spans stay in memory until :meth:`Tracer.write`.  Self
time is a span's duration minus that of its direct children, so the
self times of one pass add up to the time its top-level spans cover.

:func:`import_breakdown` reads ``python -X importtime`` from a fresh
interpreter and splits the CLI's import cost by package.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

MB = 1024 * 1024


def _rows(args, kwargs, result) -> dict:
    data, dropped = result
    source = args[0]
    size = os.fstat(source.fileno()).st_size if hasattr(source, "fileno") else len(source)
    return {"dataset.rows_read": data.n + dropped, "dataset.rows_dropped": dropped, "dataset.input_mb": size / MB}


def _design(args, kwargs, result) -> dict:
    n, p = result[0].shape
    return {"terms.expand_calls": 1, "terms.design_mb": n * p * 8 / MB}


def _subset(args, kwargs, result) -> dict:
    ranked, skipped = len(result.ranked), len(result.skipped)
    return {"selection.candidates": ranked + skipped, "selection.ranked": ranked, "selection.skipped": skipped}


# (module where callers bind the function, attribute, span name, counter hook)
WRAPS = [
    ("condreg.cli", "build_parser", "cli.build_parser", None),
    ("condreg.cli", "parse_formula", "formula.parse_formula", None),
    ("condreg.cli", "load_csv", "dataset.load_csv", _rows),
    ("condreg.cli", "quartiles", "dataset.quartiles", None),
    ("condreg.cli", "column_stats", "dataset.column_stats", None),
    ("condreg.cli", "pearson_matrix", "dataset.pearson_matrix", None),
    ("condreg.selection", "pearson_matrix", "dataset.pearson_matrix", None),
    ("condreg.dataset", "student_t_two_sided_p", "stats.t_p", lambda a, k, r: {"stats.t_p_calls": 1}),
    ("condreg.ols", "student_t_two_sided_p", "stats.t_p", lambda a, k, r: {"stats.t_p_calls": 1}),
    ("condreg.ols", "expand", "terms.expand", _design),
    ("condreg.cli", "fit", "ols.fit", lambda a, k, r: {"ols.fit_calls": 1}),
    ("condreg.selection", "fit", "ols.fit", lambda a, k, r: {"ols.fit_calls": 1}),
    ("condreg.relations", "fit", "ols.fit", lambda a, k, r: {"ols.fit_calls": 1}),
    ("condreg.selection", "best_subset", "selection.best_subset", _subset),
    ("condreg.selection", "backward_stepwise", "selection.backward_stepwise",
     lambda a, k, r: {"selection.stepwise_rounds": len(r.steps)}),
    ("condreg.selection", "advisories", "selection.advisories", None),
    ("condreg.relations", "bridge", "relations.bridge", None),
    ("condreg.relations", "two_predictor_bridge", "relations.bridge", None),
    ("condreg.relations", "detect_paradox", "relations.detect_paradox", None),
    ("condreg.conditional", "derive", "conditional.derive", None),
    ("condreg.conditional", "unit_effect", "conditional.unit_effect", None),
    ("condreg.conditional", "t_coefficients", "conditional.t_coefficients", None),
    ("condreg.geometry", "ellipse", "geometry.ellipse", None),
    ("condreg.geometry", "boundary", "geometry.boundary", None),
    ("condreg.geometry", "classify_action", "geometry.classify_action", None),
    ("condreg.cli", "new_document", "report.new_document", None),
    ("condreg.cli", "model_section", "report.model_section", None),
    ("condreg.cli", "plot_tsv", "report.plot_tsv", None),
    ("condreg.cli", "dumps_report", "report.dumps_report",
     lambda a, k, r: {"report.render_bytes": len(r.encode("utf-8"))}),
    ("condreg.cli", "write_text_atomic", "report.write_text_atomic", None),
]

# Per-layer self times reported by name; every span name above is traced,
# these are the ones the benchmark publishes.
TIMED = [
    "dataset.load_csv", "dataset.quartiles", "dataset.pearson_matrix", "terms.expand", "ols.fit", "stats.t_p",
    "selection.best_subset", "selection.backward_stepwise", "selection.advisories", "relations.bridge",
    "conditional.derive", "conditional.unit_effect", "geometry.ellipse", "geometry.classify_action",
    "report.dumps_report", "report.write_text_atomic",
]
# Counters summed over a pass, except these, which keep the largest value
# (the biggest design matrix built, computed as n * p * 8 bytes).
LARGEST = {"terms.design_mb"}
COUNTERS = [
    "dataset.rows_read", "dataset.rows_dropped", "dataset.input_mb", "terms.expand_calls", "terms.design_mb",
    "ols.fit_calls", "stats.t_p_calls", "selection.candidates", "selection.ranked", "selection.skipped",
    "selection.stepwise_rounds", "report.render_bytes",
]


class Tracer:
    """Span recorder that patches condreg's call sites while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            if hook is not None:
                bucket = counters[self.pass_id]
                try:
                    counts = hook(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    self.hook_errors.add(name)  # the result's shape changed; the span still counts
                    return result
                for key, value in counts.items():
                    bucket[key] = max(bucket[key], value) if key in LARGEST else bucket[key] + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every call site in WRAPS; sites the program no longer has are listed in ``missing``."""
        self.missing = []
        for module_name, attr, name, hook in WRAPS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def pass_metrics(self, first: int) -> dict[str, float]:
        """Self time per span name, top-level covered time, and counters of the
        current pass, whose spans start at index ``first``."""
        spans = [(first + i, span) for i, span in enumerate(self.spans[first:])]
        child_time: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, _) in spans:
            out[f"{name}_s"] += (end - start) - child_time[index]
            if parent < 0:
                out["top_level_s"] += end - start
        out.update(self.counters[self.pass_id])
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, pass_id in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "pass": pass_id}) + "\n")


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|( *)(\S+)")


def import_breakdown(env: dict, repeats: int = 3) -> dict[str, float]:
    """Median import cost of ``condreg.cli`` in a fresh interpreter, split by package."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import condreg.cli; condreg.cli.build_parser()"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
        )
        runs.append(_split_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def _split_importtime(text: str) -> dict[str, float]:
    parts = {"cli.import_s": 0.0, "cli.import_condreg_s": 0.0, "cli.import_scipy_s": 0.0, "cli.import_numpy_s": 0.0}
    # Lines come in post-order: a top-level import (one space of indent)
    # follows the lines of everything it pulled in.  Only the subtrees
    # rooted at a condreg module belong to the CLI; the rest is the
    # interpreter's own start-up.
    subtree: list[tuple[float, str]] = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, indent, module = match.groups()
        subtree.append((int(self_us) / 1e6, module))
        if len(indent) > 1:
            continue
        if module.split(".")[0] == "condreg":
            for seconds, name in subtree:
                parts["cli.import_s"] += seconds
                package = name.split(".")[0]
                if package in ("condreg", "scipy", "numpy"):
                    parts[f"cli.import_{package}_s"] += seconds
        subtree = []
    return parts
