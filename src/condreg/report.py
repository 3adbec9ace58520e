"""Deterministic report serialization and plot-data output.

JSON reports follow the "condreg/1" schema: fixed key order, floats
rendered with 12 significant digits, NaN/Inf mapped to null.  The text
format prints the same document as flat ``key = value`` lines (and the
correlation section as a table); the same number rules feed it and the
TSV plot files, so identical inputs always produce byte-identical
output.  A 1-D float array (a row of a matrix, a column of numbers) is
formatted as one row by :func:`format_row`, through one ``%.12g``
template when every entry is finite, and joined in one piece; the JSON
report, the correlation table, the TSV columns and the float columns of a
:class:`ColumnTable` share it.  A 2-D float array is formatted a row at
a time by one matrix-row helper, used by the JSON report and the
correlation table; a square one that equals its transpose bit for bit
(a correlation or p matrix) has each pair formatted once and mirrored.
A column table is a list of records given as columns; both formats
print it exactly as the list of dicts it stands for, each column's cells
formatted in one pass and each JSON record filled into one template.
The JSON text is formed as a stream of pieces (a key, a matrix row, a
table record), which :func:`dumps_report` joins and the writers take one
at a time, so a report written out is never held whole.  File writes go
through a temp file and rename, never a partial file, except to a FIFO
or device, which is written in place, and to an alias of an open
descriptor (``/dev/stdout``), written through that descriptor; a file
and standard output alike take the pieces in bounded writes, short ones
gathered and a long one (such as a whole text report) sliced.  This
module does not import numpy: no numpy object can exist before numpy is
loaded, so it finds numpy in ``sys.modules`` to tell a numpy value from
others, and a float array's cells, or a Python float's, are formatted
without that lookup.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
import tempfile
from itertools import chain
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

SCHEMA = "condreg/1"
# The most characters joined, encoded and written at a time.
_WRITE_CHARS = 1 << 16
# Directories whose entries are this process's open descriptors, and the
# most symlinks followed from a path to one of them (Linux's limit).
_DESCRIPTOR_DIRECTORIES = ("/dev/fd", "/proc/self/fd")
_MAX_LINKS = 40


def _numpy_instance(obj: Any, kind: str) -> bool:
    """Whether obj is an instance of numpy's ``kind`` ("ndarray", "integer", ...).

    False, with numpy left unimported, while numpy is not loaded.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, getattr(np, kind))


def _float_array(obj: Any) -> bool:
    return _numpy_instance(obj, "ndarray") and obj.dtype.kind == "f"


def _float_text(value: float) -> str:
    return format(value, ".12g") if math.isfinite(value) else "null"


def format_number(x: float) -> str:
    """12-significant-digit rendering; NaN/Inf become JSON null."""
    if not isinstance(x, float) and (
        (isinstance(x, int) and not isinstance(x, bool)) or _numpy_instance(x, "integer")
    ):
        return str(int(x))
    return _float_text(float(x))


def format_row(values: Any) -> list[str]:
    """format_number of each entry of a 1-D sequence of numbers.

    A float ndarray is formatted from one ``tolist`` pass of Python
    floats, giving the same strings as format_number entry by entry; an
    all-finite one through a single ``%.12g`` template, which prints
    each float as ``format(v, ".12g")`` does.
    """
    if not isinstance(values, (list, tuple)) and _float_array(values):
        import numpy as np  # loaded already: values is an ndarray

        floats = values.astype(float, copy=False).tolist()
        if floats and np.isfinite(values).all():
            return (("%.12g," * len(floats))[:-1] % tuple(floats)).split(",")
        return [_float_text(v) for v in floats]
    return [format_number(value) for value in values]


def _bitwise_symmetric(m: Any) -> bool:
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
    if not (_float_array(rows) and _bitwise_symmetric(rows)):
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
    """A non-empty row of printed cells as _pieces prints a list at ``pad``."""
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(cells) + "\n" + pad + "]"


def _scalar(obj: Any) -> str | None:
    """A number, bool or None as both formats print it; None for anything else."""
    if isinstance(obj, float):
        return _float_text(float(obj))
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int) or _numpy_instance(obj, "floating") or _numpy_instance(obj, "integer"):
        return format_number(obj)
    return None


def _sequence(obj: Any) -> bool:
    return isinstance(obj, (list, tuple)) or _numpy_instance(obj, "ndarray")


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
            format_row(column) if _float_array(column) else [_cell(value, text) for value in column]
            for column in self.columns.values()
        ]


def _cell(value: Any, text: bool) -> str:
    if isinstance(value, str):
        return value if text else json.dumps(value)
    scalar = _scalar(value)
    if scalar is None:
        raise TypeError(f"cannot serialize {type(value).__name__} in a table")
    return scalar


def _table_json(table: ColumnTable, indent: int) -> Iterator[str]:
    """The table as _pieces prints the list of dicts it stands for, a record a piece."""
    pad = "  " * (indent + 1)
    # one %-template per record; a key's own % signs are escaped
    keys = [f"{pad}  {json.dumps(str(key))}: ".replace("%", "%%") for key in table.columns]
    record = pad + "{\n" + ",\n".join(key + "%s" for key in keys) + "\n" + pad + "}"
    for i, cells in enumerate(zip(*table.cells(False))):
        yield (",\n" if i else "[\n") + record % cells
    yield "\n" + "  " * indent + "]" if table.n_rows else "[]"


def _pieces(obj: Any, indent: int) -> Iterator[str]:
    pad = "  " * indent
    scalar = json.dumps(obj) if isinstance(obj, str) else _scalar(obj)
    if scalar is not None:
        yield scalar
    elif isinstance(obj, dict):
        for i, (key, value) in enumerate(obj.items()):
            yield (",\n" if i else "{\n") + f'{pad}  {json.dumps(str(key))}: '
            yield from _pieces(value, indent + 1)
        yield "\n" + pad + "}" if obj else "{}"
    elif isinstance(obj, ColumnTable):
        yield from _table_json(obj, indent)
    elif _float_array(obj) and obj.size and obj.ndim in (1, 2):
        if obj.ndim == 1:
            yield _json_row(format_row(obj), pad)
        else:
            inner = pad + "  "
            for i, cells in enumerate(_matrix_rows(obj)):
                yield (",\n" if i else "[\n") + inner + _json_row(cells, inner)
            yield "\n" + pad + "]"
    elif _sequence(obj):
        items = list(obj)
        for i, value in enumerate(items):
            yield (",\n" if i else "[\n") + pad + "  "
            yield from _pieces(value, indent + 1)
        yield "\n" + pad + "]" if items else "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def report_pieces(document: dict) -> Iterator[str]:
    """A report document's deterministic JSON text as str pieces, in order,
    each formed when it is taken."""
    yield from _pieces(document, 0)
    yield "\n"


def dumps_report(document: dict) -> str:
    """Serialize a report document to deterministic JSON text."""
    return "".join(report_pieces(document))


def _flatten(prefix: str, obj: Any, lines: list[str]) -> None:
    if isinstance(obj, ColumnTable):
        keys = [f".{key} = " for key in obj.columns]
        for i, cells in enumerate(zip(*obj.cells(True))):
            lines.extend(f"{prefix}[{i}]{key}{cell}" for key, cell in zip(keys, cells))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, lines)
    else:
        scalar = obj if isinstance(obj, str) else _scalar(obj)
        if scalar is None and _sequence(obj):
            for i, value in enumerate(obj):
                _flatten(f"{prefix}[{i}]", value, lines)
        else:
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
    """Coefficient table plus fit statistics for a FittedModel.  Raises
    ScaleError for a coefficient or standard error past the double range."""
    fitted.check_range()
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


def plot_tsv(comments: Iterable[str], header: Sequence[str], rows: Any) -> str:
    """TSV plot data with '#' comment lines, numbers at 12 digits.

    ``rows`` is a 2-D float array, one column per header name (or a
    sequence of equal-length rows); each column is formatted by one
    :func:`format_row` call.
    """
    columns = rows.T if _float_array(rows) else zip(*rows)
    lines = [f"# {comment}" for comment in comments]
    lines.append("\t".join(header))
    lines.extend(map("\t".join, zip(*map(format_row, columns))))
    return "\n".join(lines) + "\n"


def write_chunks(handle: IO[str], pieces: Iterable[str]) -> None:
    """Write str pieces to an open text stream in writes of at most
    ``_WRITE_CHARS`` characters: short pieces are gathered into one write,
    and a longer piece is written in slices, never joined with others."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        if size + len(piece) > _WRITE_CHARS and batch:
            handle.write("".join(batch))
            batch, size = [], 0
        if len(piece) > _WRITE_CHARS:
            for start in range(0, len(piece), _WRITE_CHARS):
                handle.write(piece[start : start + _WRITE_CHARS])
        else:
            batch.append(piece)
            size += len(piece)
    if batch:
        handle.write("".join(batch))


def write_text_atomic(path: str, pieces: Iterable[str]) -> None:
    """Write str pieces to ``path`` so that no reader sees a partial regular file.

    A new path or a regular file gets a temp file in its directory,
    renamed over it.  A path whose symlink chain passes through a
    descriptor directory (``/dev/stdout``, ``/dev/stderr``, ``/dev/fd/N``,
    ``/proc/self/fd/N``) names a descriptor this process holds open; the
    text goes through a duplicate of it, after the standard streams are
    flushed, so that a file the shell opened for it is appended to at the
    descriptor's offset, as a shell's ``>> f.txt`` or ``> f.txt`` asks,
    never truncated or replaced.  Any other path that exists and is not a
    regular file (a FIFO, a terminal or another device) would be destroyed
    by a rename, so it is opened and written in place.  Either way the
    pieces go through :func:`write_chunks` as they are formed; an error
    raised while they are formed leaves a renamed-over file unchanged and
    no temp file.  A symlink is followed, never replaced: what it points
    to is written in place or renamed over, and the link stays.
    """
    descriptor = _descriptor_alias(path)
    if descriptor is not None:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
        try:
            with open(os.dup(descriptor), "w", encoding="utf-8") as handle:
                write_chunks(handle, pieces)
        except OSError as exc:  # errors on a descriptor name no file
            raise OSError(exc.errno, exc.strerror, path) from exc
        return
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8") as handle:
            write_chunks(handle, pieces)
        return
    path = os.path.realpath(path)
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write_chunks(handle, pieces)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _descriptor_alias(path: str) -> int | None:
    """The descriptor of this process that ``path`` names through its chain
    of symlinks (``/dev/stdout`` -> ``/proc/self/fd/1`` gives 1), or None.

    The chain is read one link at a time, not resolved: the last link, from
    the descriptor directory to the open file, is the one to stop at.
    """
    for _ in range(_MAX_LINKS):
        head, name = os.path.split(path)
        if name.isdigit() and os.path.realpath(head) in {
            os.path.realpath(directory) for directory in _DESCRIPTOR_DIRECTORIES
        }:
            return int(name)
        if not os.path.islink(path):
            return None
        path = os.path.join(head, os.readlink(path))
    return None
