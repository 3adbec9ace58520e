"""Tabular data container and descriptive statistics.

A :class:`Dataset` is an immutable table of named float columns of equal
length.  Loading is complete-case: any CSV row with a missing,
non-numeric or non-finite cell is dropped (and counted), never imputed.
A byte source is read in blocks of whole lines, about ``_BLOCK_BYTES``
each, so the file's bytes are never held whole.  A block of plain bytes
(digits, signs, dots, e/E, delimiters and whitespace only) is parsed by
``numpy.loadtxt``; a block that the pre-check or the pass refuses, such as one
with ``NA``, an empty cell or ``1.2.3``, goes alone through the
row-by-row ``csv`` parser.  Each block's rows are appended to per-column
buffers that become the Dataset's columns.  A quote byte, or any error a
block's row parse raises, sends the whole source through the row parser
from its start instead, so the result, or the error and its line
number, is that parser's either way.

Quartiles use linear interpolation between order statistics (the
"type 7" convention, numpy's default).  Sample variances use the n-1
divisor throughout, matching the inference formulas downstream.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CsvParseError,
    DegenerateColumnError,
    EmptyDataError,
    InsufficientDataError,
    NonFiniteDataError,
    SchemaError,
    UnknownColumnError,
)
from .stats import student_t_two_sided_p

PRESET_STATS = ("min", "q25", "mean", "q75", "max")


class Dataset:
    """Immutable named-column table of finite floats.

    Columns keep their construction order; all have identical length
    n >= 1, unique non-empty names, and no NaN/Inf entries.  Instances
    are safe to share across threads.
    """

    def __init__(
        self,
        columns: Mapping[str, Sequence[float]] | Iterable[tuple[str, Sequence[float]]],
    ):
        items = list(columns.items()) if hasattr(columns, "items") else list(columns)
        if not items:
            raise EmptyDataError("dataset must have at least one column")
        arrays: dict[str, np.ndarray] = {}
        n: int | None = None
        for name, values in items:
            if not isinstance(name, str) or not name:
                raise SchemaError(f"column names must be non-empty strings, got {name!r}")
            if name in arrays:
                raise SchemaError(f"duplicate column name {name!r}")
            arr = np.array(values, dtype=float)
            if arr.ndim != 1:
                raise SchemaError(f"column {name!r} is not one-dimensional")
            if arr.size == 0:
                raise EmptyDataError(f"column {name!r} is empty")
            if n is None:
                n = int(arr.size)
            elif arr.size != n:
                raise SchemaError(
                    f"column {name!r} has length {arr.size}, expected {n}"
                )
            if not np.all(np.isfinite(arr)):
                raise NonFiniteDataError(f"column {name!r} contains NaN or Inf")
            arr.flags.writeable = False
            arrays[name] = arr
        self._columns = arrays
        self._n = int(n)  # type: ignore[arg-type]

    @classmethod
    def _adopt(cls, names: Sequence[str], columns: Sequence[np.ndarray]) -> Dataset:
        """A Dataset over the given arrays, taken over without a copy.

        The caller vouches for what ``__init__`` checks: unique non-empty
        names and finite one-dimensional float arrays of one length n >= 1.
        """
        self = cls.__new__(cls)
        for column in columns:
            column.flags.writeable = False
        self._columns = dict(zip(names, columns))
        self._n = len(columns[0])
        return self

    @property
    def n(self) -> int:
        return self._n

    @property
    def names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumnError(f"unknown column {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:
        return f"Dataset(n={self._n}, columns={self.names})"


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise Pearson correlations with two-sided p-values.

    ``r`` is symmetric with a unit diagonal; ``p`` is symmetric with the
    diagonal pinned to the 1-boundary of (0, 1] (rendered as an em-dash
    in text output, since a column is trivially correlated with itself).
    ``p`` is computed on first access, with one Student t tail call over
    the upper triangle's t statistics, so callers that read only ``r``
    never pay for it.
    """

    names: tuple[str, ...]
    r: np.ndarray
    n: int

    @cached_property
    def p(self) -> np.ndarray:
        p = np.ones((len(self.names),) * 2)
        upper = np.triu_indices(len(self.names), 1)
        p[upper] = p[upper[::-1]] = correlation_p_value(self.r[upper], self.n)
        p.flags.writeable = False
        return p


@dataclass(frozen=True)
class ColumnQuartiles:
    """One column's five-number summary, mean and sample variance.

    The variance has the n-1 divisor and is 0 when n = 1.
    """

    min: float
    q25: float
    mean: float
    q75: float
    max: float
    variance: float


def load_csv(
    source: bytes | IO[bytes] | IO[str],
    delimiter: str = ",",
    header: bool = True,
) -> tuple[Dataset, int]:
    """Parse an RFC-4180-style CSV stream into a Dataset.

    Byte input is read in blocks of whole lines; an open binary file
    that can seek is read where it is, and any other byte source is first
    read whole.  The header (or, without one, the first record) is read
    with the row parser's rules.  A block of data rows whose bytes are all
    digits, signs, dots, e/E, the delimiter and whitespace is parsed by
    ``numpy.loadtxt``; a block with any other byte (NA, nan, any
    non-ASCII), or one the pass refuses (an empty cell, a ragged row, a
    malformed number, a lone carriage return), goes alone through the
    row-by-row parser.  A quote byte, an error from a block's row parse,
    a text stream or no usable row sends the whole input through the row
    parser instead.  Either way gives the same names, bit-identical
    columns and the same dropped count; every error and its line number
    come from the row parser.

    Parameters
    ----------
    source : bytes or file-like
        Byte stream (decoded as UTF-8) or text stream.
    delimiter : str
        Field separator, default ",".
    header : bool
        When True the first row names the columns; otherwise columns are
        named x1, x2, ...

    Returns
    -------
    (Dataset, int)
        The dataset plus the count of rows dropped because a cell was
        missing, non-numeric or non-finite.

    Raises
    ------
    ValueError
        A delimiter that is not one character, before anything is read.
    CsvParseError
        Malformed structure (wrong field count, bad quoting) or a byte
        that is not UTF-8, with the offending line number.
    SchemaError
        Duplicate or empty header names.
    EmptyDataError
        No usable data rows remain.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    if isinstance(source, bytes):
        stream = io.BytesIO(source)
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)) and source.seekable():
        stream = source
    elif hasattr(source, "read"):
        raw = source.read()
        if not isinstance(raw, bytes):
            return _load_rows(raw, delimiter, header)
        stream = io.BytesIO(raw)
    else:
        raise TypeError("source must be bytes or a readable stream")
    start = stream.tell()
    loaded = _load_blocks(stream, delimiter, header)
    if loaded is None:
        stream.seek(start)
        loaded = _load_rows(stream.read(), delimiter, header)
    return loaded


# Bytes read per block of lines, before the last line is completed.
_BLOCK_BYTES = 1 << 18
_NON_SPACE = re.compile(rb"\S")
# Bytes a body of plain numbers may hold besides the delimiter.
_NUMBER_BYTES = b"0123456789+-.eE \t\r\n"


def _read_block(stream: IO[bytes]) -> bytes:
    """About ``_BLOCK_BYTES`` of whole lines; empty at the end of the stream."""
    block = stream.read(_BLOCK_BYTES)
    if block and not block.endswith(b"\n"):
        block += stream.readline()
    return block


def _load_blocks(stream: IO[bytes], delimiter: str, header: bool) -> tuple[Dataset, int] | None:
    """The block pass; None wherever the row parser must read the whole stream.

    The header is read line by line with the row parser's own rules.
    Each later block's finite rows are appended to one float buffer per
    column, grown in place, trimmed at the end and taken over by the
    Dataset.  Declining, rather than raising, keeps every error the row
    parser's: it decodes the whole stream before it looks at any row.
    """
    if not delimiter.isascii():
        return None
    names: list[str] | None = None
    try:
        while names is None:
            line = stream.readline()
            if not line or b'"' in line:
                return None
            record = next(csv.reader([line.removesuffix(b"\n").decode("utf-8")], delimiter=delimiter), [])
            if not _is_blank(record):
                names = _column_names(record, header)
    except (ValueError, csv.Error, SchemaError):
        return None
    block = (b"" if header else line) + _read_block(stream)
    columns = [np.empty(0) for _ in names]
    n = dropped = 0
    while block:
        parsed = _parse_block(block, delimiter, names)
        del block  # before the columns grow
        if parsed is None:
            return None
        data, lost = parsed
        dropped += lost
        m = len(data)
        if n + m > columns[0].size:  # grow by an eighth: few reallocations, little slack
            for column in columns:
                column.resize(max(n + m, column.size * 9 // 8), refcheck=False)
        for j, column in enumerate(columns):
            column[n : n + m] = data[:, j]
        n += m
        del data, parsed  # before the next block is read
        block = _read_block(stream)
    if n == 0:
        return None  # every row dropped: the row parser's error counts them
    for column in columns:
        column.resize(n, refcheck=False)
    return Dataset._adopt(names, columns), dropped


def _parse_block(block: bytes, delimiter: str, names: list[str]) -> tuple[np.ndarray, int] | None:
    """A block's finite rows as an m x k array, and its dropped count.

    ``numpy.loadtxt`` parses a block of plain bytes with a non-space in
    it (all-blank input would make it warn); the row parser takes any
    other block and any block the pass refuses.  None for a quote byte
    or an error from the row parser, whose answer for the whole stream
    is then the result.
    """
    if not block.translate(None, _NUMBER_BYTES + delimiter.encode("ascii")) and _NON_SPACE.search(block):
        try:
            data = np.loadtxt(
                io.BytesIO(block), delimiter=delimiter, comments=None, ndmin=2, encoding="utf-8"
            )
        except (ValueError, TypeError):
            data = None
        if data is not None and data.shape[1] == len(names):
            finite = np.isfinite(data).all(axis=1)
            kept = int(finite.sum())
            return (data if kept == len(data) else data[finite]), len(data) - kept
    if b'"' in block:
        return None
    try:
        _, rows, dropped = _parse_records(io.StringIO(block.decode("utf-8")), delimiter, names, True)
    except (UnicodeDecodeError, CsvParseError):
        return None
    return np.array(rows, dtype=float).reshape(len(rows), len(names)), dropped


def _load_rows(raw: bytes | str, delimiter: str, header: bool) -> tuple[Dataset, int]:
    """The row-by-row parser: ``csv.reader`` and one ``float`` per cell."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise CsvParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8", line=line) from exc
    names, rows, dropped = _parse_records(io.StringIO(raw), delimiter, None, header)
    if names is None:
        raise EmptyDataError("stream contains no rows")
    if not rows:
        raise EmptyDataError(
            f"no usable rows ({dropped} dropped for missing/non-numeric cells)"
        )
    data = np.array(rows, dtype=float)
    return Dataset((name, data[:, j]) for j, name in enumerate(names)), dropped


def _parse_records(
    lines: Iterable[str], delimiter: str, names: list[str] | None, header: bool
) -> tuple[list[str] | None, list[list[float]], int]:
    """Names, finite rows and dropped count of CSV lines.

    Without ``names`` the first non-blank record gives them (see
    ``_column_names``).  A row of the wrong width or malformed quoting
    raises CsvParseError with its line, counted from the first of ``lines``.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    rows: list[list[float]] = []
    dropped = 0
    try:
        for record in reader:
            if _is_blank(record):
                continue  # blank line, e.g. trailing newline
            if names is None:
                names = _column_names(record, header)
                if header:
                    continue
            if len(record) != len(names):
                raise CsvParseError(
                    f"expected {len(names)} fields, found {len(record)}",
                    line=reader.line_num,
                )
            parsed = _parse_row(record)
            if parsed is None:
                dropped += 1
            else:
                rows.append(parsed)
    except csv.Error as exc:
        raise CsvParseError(str(exc), line=reader.line_num) from exc
    return names, rows, dropped


def _is_blank(record: list[str]) -> bool:
    return not record or all(cell.strip() == "" for cell in record)


def _column_names(record: list[str], header: bool) -> list[str]:
    """Names from a header record, or x1, x2, ... for one of data."""
    if not header:
        return [f"x{i + 1}" for i in range(len(record))]
    names = [cell.strip() for cell in record]
    seen = set()
    for name in names:
        if not name:
            raise SchemaError("empty header field")
        if name in seen:
            raise SchemaError(f"duplicate header name {name!r}")
        seen.add(name)
    return names


def _parse_row(record: list[str]) -> list[float] | None:
    out = []
    for cell in record:
        try:
            value = float(cell.strip())
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        out.append(value)
    return out


def correlation_p_value(r, n: int):
    """Two-sided p for a Pearson r at sample size n, per element of r.

    The test statistic is t = r * sqrt(n-2) / sqrt(1-r^2) on n-2 degrees
    of freedom, and all of r goes through one Student t tail call: a
    float gives a float, an array an array of its shape.  |r| = 1 maps
    to the p floor (smallest positive double).
    """
    if n < 3:
        raise InsufficientDataError(f"need n >= 3 for a correlation p-value, got {n}")
    r = np.asarray(r, dtype=float)
    outside = ~((-1.0 <= r) & (r <= 1.0))
    if outside.any():
        raise ValueError(f"correlation must lie in [-1, 1], got {r[outside].flat[0]}")
    denom = 1.0 - r * r
    inside = denom > 0.0
    t = np.full(r.shape, math.inf)
    t[inside] = r[inside] * math.sqrt(n - 2) / np.sqrt(denom[inside])
    return student_t_two_sided_p(t, n - 2)


def centered_moments(d: Dataset, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Correlations and centred norms of the named columns, from one product.

    ``r[i, j]`` is the Pearson correlation of columns i and j (clipped to
    [-1, 1], unit diagonal) and ``norms[i]`` the square root of column i's
    centred sum of squares, so the least-squares slope of column i on
    column j is ``r[i, j] * norms[i] / norms[j]``.  Each column is divided
    by a power of two at its largest magnitude before it is centred and
    multiplied.  That division is exact, so the results equal the unscaled
    arithmetic bit for bit wherever that arithmetic stays finite, and no
    square overflows for any finite column.  The stack of columns is the
    one n-sized array: the squares for the norms overwrite it once the
    product is formed.

    Raises DegenerateColumnError naming the first zero-variance column.
    """
    centered = np.column_stack([d.column(name) for name in names])
    exponents = np.frexp(np.maximum(centered.max(axis=0), -centered.min(axis=0)))[1]
    np.ldexp(centered, -exponents, out=centered)
    centered -= centered.mean(axis=0)
    gram = centered.T @ centered
    scaled_norms = np.sqrt(np.square(centered, out=centered).sum(axis=0))
    for name, norm in zip(names, scaled_norms):
        if norm == 0.0:
            raise DegenerateColumnError(f"column {name!r} has zero variance")
    r = gram / np.outer(scaled_norms, scaled_norms)
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r, np.ldexp(scaled_norms, exponents)


def pearson_matrix(d: Dataset, cols: Sequence[str] | None = None) -> CorrelationReport:
    """Pearson correlation matrix with two-sided p-values (computed lazily).

    Requires n >= 3 and nonzero sample variance in every requested
    column.  Diagonal r entries are exactly 1 and diagonal p entries are
    pinned to 1.0 (the boundary convention for self-correlation).
    """
    names = tuple(cols) if cols is not None else tuple(d.names)
    if d.n < 3:
        raise InsufficientDataError(f"need n >= 3 observations, got {d.n}")
    r, _ = centered_moments(d, names)
    r.flags.writeable = False
    return CorrelationReport(names=names, r=r, n=d.n)


def quartiles(d: Dataset) -> dict[str, ColumnQuartiles]:
    """Summary per column, in column order (type-7 quartiles)."""
    summary: dict[str, ColumnQuartiles] = {}
    for name in d.names:
        col = d.column(name)
        q25, q75 = np.quantile(col, [0.25, 0.75])
        with np.errstate(over="ignore"):  # inf beyond about 1e154, null in reports
            variance = float(col.var(ddof=1)) if d.n > 1 else 0.0
        summary[name] = ColumnQuartiles(
            min=float(col.min()),
            q25=float(q25),
            mean=float(col.mean()),
            q75=float(q75),
            max=float(col.max()),
            variance=variance,
        )
    return summary
