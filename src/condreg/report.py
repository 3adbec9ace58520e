"""Deterministic report serialization and plot-data output.

JSON reports follow the "condreg/1" schema: fixed key order, floats
rendered with 12 significant digits, NaN/Inf mapped to null.  The text
format prints the same document as flat ``key = value`` lines (and the
correlation section as a table); the same number rules feed it and the
TSV plot files, so identical inputs always produce byte-identical
output.  File writes go through a temp file and rename, never a partial
file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as np

SCHEMA = "condreg/1"


def format_number(x: float) -> str:
    """12-significant-digit rendering; NaN/Inf become JSON null."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    value = float(x)
    if math.isnan(value) or math.isinf(value):
        return "null"
    return format(value, ".12g")


def _scalar(obj: Any) -> str | None:
    """A number, bool or None as both formats print it; None for anything else."""
    if isinstance(obj, (float, np.floating)):
        return format_number(obj)
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return None


def _emit(obj: Any, pieces: list[str], indent: int) -> None:
    pad = "  " * indent
    scalar = _scalar(obj)
    if scalar is not None:
        pieces.append(scalar)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f'{pad}  {json.dumps(str(key))}: ')
            _emit(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(items):
            pieces.append(pad + "  ")
            _emit(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(items) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def dumps_report(document: dict) -> str:
    """Serialize a report document to deterministic JSON text."""
    pieces: list[str] = []
    _emit(document, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _flatten(prefix: str, obj: Any, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, lines)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, value in enumerate(obj):
            _flatten(f"{prefix}[{i}]", value, lines)
    else:
        scalar = _scalar(obj)
        lines.append(f"{prefix} = {obj if scalar is None else scalar}")


def _correlation_table(section: dict) -> list[str]:
    """r and p rows under a header of names, each cell right-aligned.

    Every column is one wider than the widest name or cell, so cells
    never run together.
    """
    names = [str(name) for name in section["names"]]
    r = [[format_number(value) for value in row] for row in section["r"]]
    p = [
        ["—" if i == j else format_number(value) for j, value in enumerate(row)]
        for i, row in enumerate(section["p"])
    ]
    width = 1 + max(len(cell) for cell in chain(names, *r, *p))

    def row(label: str, cells: list[str]) -> str:
        return "".join(cell.rjust(width) for cell in [label, *cells])

    lines = [row("", names)]
    for name, r_cells, p_cells in zip(names, r, p):
        lines += [row(name, r_cells), row("p", p_cells)]
    return lines


def render_text(document: dict) -> str:
    """Flat deterministic key = value rendering of a report document."""
    lines: list[str] = []
    for key, value in document.items():
        if key == "correlation" and isinstance(value, dict) and "names" in value:
            lines.append("correlation:")
            lines.extend(_correlation_table(value))
        else:
            _flatten(key, value, lines)
    return "\n".join(lines) + "\n"


def new_document(command: str, **sections: Any) -> dict:
    """Report skeleton: schema and command first, then the sections."""
    doc: dict[str, Any] = {"schema": SCHEMA, "command": command}
    doc.update(sections)
    return doc


def model_section(fitted) -> dict:
    """Coefficient table plus fit statistics for a FittedModel."""
    rows = []
    for i, label in enumerate(fitted.labels):
        rows.append(
            {
                "term": label,
                "coef": float(fitted.coef[i]),
                "se": float(fitted.se[i]),
                "t": float(fitted.t[i]),
                "p": float(fitted.p[i]),
            }
        )
    return {
        "response": fitted.spec.response,
        "coefficients": rows,
        "stats": {
            "n": fitted.n,
            "dof": fitted.dof,
            "r2": fitted.r2,
            "r2_adj": fitted.r2_adj,
            "rss": fitted.rss,
        },
    }


def plot_tsv(comments: Iterable[str], header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """TSV plot data with '#' comment lines, numbers at 12 digits."""
    lines = [f"# {comment}" for comment in comments]
    lines.append("\t".join(header))
    for row in rows:
        lines.append("\t".join(format_number(value) for value in row))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
