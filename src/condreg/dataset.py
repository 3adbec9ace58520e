"""Tabular data container and descriptive statistics.

A :class:`Dataset` is an immutable table of named float columns of equal
length.  Loading is complete-case: any CSV row with a missing,
non-numeric or non-finite cell is dropped (and counted), never imputed.
Plain byte input (no quote character, no lone carriage return, no byte
after the header but digits, signs, dots, e/E, delimiters and
whitespace) is parsed in one vectorized ``numpy.loadtxt`` pass; anything
that pass refuses, such as an empty cell or ``1.2.3``, falls back to the
row-by-row ``csv`` parser, which also handles every other input, so such
a file is parsed twice.  The result, or the error and its line number,
is the same either way.

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

    Byte input with no quote character, with LF or CRLF line ends, is
    parsed in one vectorized pass by ``numpy.loadtxt``.  Data rows with
    a byte other than digits, signs, dots, e/E, the delimiter and
    whitespace (NA, nan, any non-ASCII) skip that pass before it starts;
    they, anything the pass refuses (an empty cell, a ragged row, a
    malformed number, a lone carriage return, no data rows), and every
    text stream or input with quotes, go through the row-by-row parser
    instead.  No scan looks for empty cells first, so an input the pass
    refuses part-way is parsed twice.  Both give the same names,
    bit-identical columns and the same dropped count; every error and its
    line number come from the row parser.

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
        raw: bytes | str = source
    elif hasattr(source, "read"):
        raw = source.read()
    else:
        raise TypeError("source must be bytes or a readable stream")
    if isinstance(raw, bytes) and b'"' not in raw:
        loaded = _load_plain(raw, delimiter, header)
        if loaded is not None:
            return loaded
    return _load_rows(raw, delimiter, header)


_NON_SPACE = re.compile(rb"\S")
# Bytes a body of plain numbers may hold besides the delimiter.
_NUMBER_BYTES = b"0123456789+-.eE \t\r\n"


def _load_plain(raw: bytes, delimiter: str, header: bool) -> tuple[Dataset, int] | None:
    """The vectorized pass; None wherever the row parser must decide.

    The header (or, without one, the first record) is read line by line
    with the row parser's own rules; ``numpy.loadtxt`` parses the rest.
    Declining, rather than raising, keeps every error the row parser's:
    it decodes the whole stream before it looks at any row.
    """
    skip = 0
    start = 0
    names: list[str] | None = None
    try:
        while names is None:
            if start >= len(raw):
                return None
            end = raw.find(b"\n", start)
            if end < 0:
                end = len(raw)
            line = raw[start:end].decode("utf-8")
            record = next(csv.reader([line], delimiter=delimiter), [])
            if _is_blank(record):
                skip += 1
            else:
                names = _column_names(record, header)
                if not header:
                    break
                skip += 1
            start = end + 1
        if _NON_SPACE.search(raw, start) is None:
            return None  # header only: loadtxt would warn about empty input
        # A byte no plain number, delimiter or space has (NA, nan, text,
        # non-ASCII) is a cell loadtxt refuses: leave it to the row parser.
        # The header's own bytes are subtracted, so clean input allocates nothing.
        keep = _NUMBER_BYTES + delimiter.encode("utf-8")
        if not delimiter.isascii():
            return None
        if len(raw.translate(None, keep)) > len(raw[:start].translate(None, keep)):
            return None
        data = np.loadtxt(
            io.BytesIO(raw),
            delimiter=delimiter,
            comments=None,
            ndmin=2,
            skiprows=skip,
            encoding="utf-8",
        )
    except (ValueError, TypeError, csv.Error, SchemaError):
        return None
    if data.shape[1] != len(names):
        return None  # every row is short or long: the row parser names the line
    finite = np.isfinite(data).all(axis=1)
    kept = int(finite.sum())
    if kept == 0:
        return None  # every row dropped: the row parser's error counts them
    if kept < data.shape[0]:
        data = data[finite]
    return Dataset((name, data[:, j]) for j, name in enumerate(names)), len(finite) - kept


def _load_rows(raw: bytes | str, delimiter: str, header: bool) -> tuple[Dataset, int]:
    """The row-by-row parser: ``csv.reader`` and one ``float`` per cell."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise CsvParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8", line=line) from exc
    reader = csv.reader(io.StringIO(raw), delimiter=delimiter)
    names: list[str] | None = None
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

    if names is None:
        raise EmptyDataError("stream contains no rows")
    if not rows:
        raise EmptyDataError(
            f"no usable rows ({dropped} dropped for missing/non-numeric cells)"
        )
    data = np.array(rows, dtype=float)
    return Dataset((name, data[:, j]) for j, name in enumerate(names)), dropped


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
    square overflows for any finite column.

    Raises DegenerateColumnError naming the first zero-variance column.
    """
    centered = np.column_stack([d.column(name) for name in names])
    exponents = np.frexp(np.abs(centered).max(axis=0))[1]
    np.ldexp(centered, -exponents, out=centered)
    centered -= centered.mean(axis=0)
    scaled_norms = np.sqrt((centered**2).sum(axis=0))
    for name, norm in zip(names, scaled_norms):
        if norm == 0.0:
            raise DegenerateColumnError(f"column {name!r} has zero variance")
    r = (centered.T @ centered) / np.outer(scaled_norms, scaled_norms)
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
