"""Deterministic report serialization and plot-data output.

JSON reports follow the "condreg/1" schema: fixed key order, floats
rendered with 12 significant digits, NaN/Inf mapped to null.  The text
format prints the same document as flat ``key = value`` lines (and the
correlation section as a table); the same number rules feed it and the
TSV plot files, so identical inputs always produce byte-identical
output.  A 1-D float array (a row of a matrix, a column of numbers) is
formatted as one row by :func:`format_row`, through one ``%.12g``
template when every entry is finite, and joined in one piece; the JSON
report, the correlation table, the TSV rows and the float columns of a
:class:`ColumnTable` share it.  A 2-D float array is formatted a row at
a time by one matrix-row helper, used by the JSON report and the
correlation table; a square one that equals its transpose bit for bit
(a correlation or p matrix) has each pair formatted once and mirrored.
A column table is a list of records given as columns; both formats
print it exactly as the list of dicts it stands for, each column's cells
formatted in one pass and each JSON record filled into one template.
File writes go through a temp file and rename, never a partial file,
and encode the text in bounded chunks, never as one second copy.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

SCHEMA = "condreg/1"
# Characters encoded and written at a time, so that a report is never
# held a second time as one encoded copy.
_WRITE_CHARS = 1 << 16


def format_number(x: float) -> str:
    """12-significant-digit rendering; NaN/Inf become JSON null."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    value = float(x)
    if math.isnan(value) or math.isinf(value):
        return "null"
    return format(value, ".12g")


def format_row(values: Any) -> list[str]:
    """format_number of each entry of a 1-D sequence of numbers.

    A float ndarray is formatted from one ``tolist`` pass of Python
    floats, giving the same strings as format_number entry by entry; an
    all-finite one through a single ``%.12g`` template, which prints
    each float as ``format(v, ".12g")`` does.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        floats = values.astype(float, copy=False).tolist()
        if floats and np.isfinite(values).all():
            return (("%.12g," * len(floats))[:-1] % tuple(floats)).split(",")
        return [format(v, ".12g") if math.isfinite(v) else "null" for v in floats]
    return [format_number(value) for value in values]


def _bitwise_symmetric(m: np.ndarray) -> bool:
    """Whether a square float array equals its transpose bit for bit.

    Bits, not values, decide: 0.0 == -0.0 although -0 prints apart from
    0, and NaN != NaN although both print as null.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.itemsize not in (2, 4, 8):
        return False
    bits = m.view(f"i{m.itemsize}")
    return bool((bits == bits.T).all())


def _matrix_rows(rows: Any) -> Iterator[list[str]]:
    """format_row of each row of a matrix (a 2-D array or a list of rows).

    A float array equal to its transpose bit for bit has each row's
    upper part, diagonal included, formatted once; the cells right of
    the diagonal are kept as the lower parts of the rows below, each
    until its row is yielded.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "f" and _bitwise_symmetric(rows)):
        yield from map(format_row, rows)
        return
    lower: list[list[str]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        upper = format_row(row[i:])
        for below, cell in zip(lower[i + 1 :], upper[1:]):
            below.append(cell)
        cells, lower[i] = lower[i] + upper, []
        yield cells


def _json_row(cells: list[str], pad: str) -> str:
    """A non-empty row of printed cells as _emit prints a list at ``pad``."""
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(cells) + "\n" + pad + "]"


def _scalar(obj: Any) -> str | None:
    """A number, bool or None as both formats print it; None for anything else."""
    if isinstance(obj, (float, np.floating)):
        return format_number(obj)
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return None


class ColumnTable:
    """A list of records given as columns: ``{key: one value per record}``.

    Every column must have the same length.  Values are numbers, bools,
    None or strings; a float ndarray column is formatted by
    :func:`format_row`.
    """

    def __init__(self, columns: Mapping[str, Sequence[Any]]):
        self.columns = dict(columns)
        lengths = {len(column) for column in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        self.n_rows = lengths.pop() if lengths else 0

    def cells(self, text: bool) -> list[list[str]]:
        """Each column's values as printed: strings as JSON, or as-is in text."""
        return [
            format_row(column)
            if isinstance(column, np.ndarray) and column.dtype.kind == "f"
            else [_cell(value, text) for value in column]
            for column in self.columns.values()
        ]


def _cell(value: Any, text: bool) -> str:
    if isinstance(value, str):
        return value if text else json.dumps(value)
    scalar = _scalar(value)
    if scalar is None:
        raise TypeError(f"cannot serialize {type(value).__name__} in a table")
    return scalar


def _table_json(table: ColumnTable, indent: int) -> str:
    """The table as _emit prints the list of dicts it stands for."""
    if not table.n_rows:
        return "[]"
    pad = "  " * (indent + 1)
    # one %-template per record; a key's own % signs are escaped
    keys = [f"{pad}  {json.dumps(str(key))}: ".replace("%", "%%") for key in table.columns]
    record = pad + "{\n" + ",\n".join(key + "%s" for key in keys) + "\n" + pad + "}"
    rows = [record % cells for cells in zip(*table.cells(False))]
    return "[\n" + ",\n".join(rows) + "\n" + "  " * indent + "]"


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
    elif isinstance(obj, ColumnTable):
        pieces.append(_table_json(obj, indent))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.size and obj.ndim in (1, 2):
        if obj.ndim == 1:
            pieces.append(_json_row(format_row(obj), pad))
        else:
            inner = pad + "  "
            pieces.append("[\n")
            for cells in _matrix_rows(obj):
                pieces += (inner, _json_row(cells, inner), ",\n")
            pieces[-1] = "\n" + pad + "]"  # the last row's separator closes the list
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
    if isinstance(obj, ColumnTable):
        keys = [f".{key} = " for key in obj.columns]
        for i, cells in enumerate(zip(*obj.cells(True))):
            lines.extend(f"{prefix}[{i}]{key}{cell}" for key, cell in zip(keys, cells))
    elif isinstance(obj, dict):
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
    r, p = list(_matrix_rows(section["r"])), list(_matrix_rows(section["p"]))
    for i, cells in enumerate(p):
        cells[i] = "—"
    width = 1 + max(len(cell) for cell in chain(names, *r, *p))
    template = f"%{width}s" * (len(names) + 1)

    def row(label: str, cells: list[str]) -> str:
        return template % (label, *cells)

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
        lines.append("\t".join(format_row(row)))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for start in range(0, len(text), _WRITE_CHARS):
                handle.write(text[start : start + _WRITE_CHARS])
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
