"""Tabular data container and descriptive statistics.

A :class:`Dataset` is an immutable table of named float columns of equal
length.  Loading is complete-case: any CSV row with a missing or
non-numeric cell is dropped (and counted), never imputed.

Quartiles use linear interpolation between order statistics (the
"type 7" convention, numpy's default).  Sample variances use the n-1
divisor throughout, matching the inference formulas downstream.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
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
        self._fingerprint: str | None = None

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

    @property
    def fingerprint(self) -> str:
        """SHA-1 over n and every column's name and bytes, computed once."""
        if self._fingerprint is None:
            digest = hashlib.sha1(str(self._n).encode())
            for name, arr in self._columns.items():
                digest.update(f"{len(name)}:{name}".encode())
                digest.update(arr.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return f"Dataset(n={self._n}, columns={self.names})"


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise Pearson correlations with two-sided p-values.

    ``r`` is symmetric with a unit diagonal; ``p`` is symmetric with the
    diagonal pinned to the 1-boundary of (0, 1] (rendered as an em-dash
    in text output, since a column is trivially correlated with itself).
    """

    names: tuple[str, ...]
    r: np.ndarray
    p: np.ndarray
    n: int


@dataclass(frozen=True)
class ColumnQuartiles:
    min: float
    q25: float
    mean: float
    q75: float
    max: float


@dataclass(frozen=True)
class QuartileSummary:
    """Per-column five-number-plus-mean summary."""

    columns: dict[str, ColumnQuartiles] = field(default_factory=dict)

    def lookup(self, name: str, stat: str) -> float:
        """Resolve a preset name ('min', 'q25', 'mean', 'q75', 'max')."""
        if name not in self.columns:
            raise UnknownColumnError(f"no summary for column {name!r}")
        if stat not in PRESET_STATS:
            raise ValueError(f"unknown summary statistic {stat!r}")
        return getattr(self.columns[name], stat)


@dataclass(frozen=True)
class ColumnStats:
    """Sample mean/variance/extrema; variance reported as 0 when n = 1."""

    mean: float
    variance: float
    min: float
    max: float
    n: int


def load_csv(
    source: bytes | IO[bytes] | IO[str],
    delimiter: str = ",",
    header: bool = True,
) -> tuple[Dataset, int]:
    """Parse an RFC-4180-style CSV stream into a Dataset.

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
        missing or non-numeric.

    Raises
    ------
    CsvParseError
        Malformed structure (wrong field count, bad quoting), with the
        offending line number.
    SchemaError
        Duplicate or empty header names.
    EmptyDataError
        No usable data rows remain.
    """
    if isinstance(source, bytes):
        text: IO[str] = io.StringIO(source.decode("utf-8"))
    elif hasattr(source, "read"):
        raw = source.read()
        text = io.StringIO(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    else:
        raise TypeError("source must be bytes or a readable stream")

    reader = csv.reader(text, delimiter=delimiter)
    names: list[str] | None = None
    rows: list[list[float]] = []
    dropped = 0
    try:
        for record in reader:
            if not record or all(cell.strip() == "" for cell in record):
                continue  # blank line, e.g. trailing newline
            if names is None:
                if header:
                    names = [cell.strip() for cell in record]
                    seen = set()
                    for name in names:
                        if not name:
                            raise SchemaError("empty header field")
                        if name in seen:
                            raise SchemaError(f"duplicate header name {name!r}")
                        seen.add(name)
                    continue
                names = [f"x{i + 1}" for i in range(len(record))]
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


def correlation_p_value(r: float, n: int) -> float:
    """Two-sided p for a Pearson r at sample size n.

    The test statistic is t = r * sqrt(n-2) / sqrt(1-r^2) on n-2 degrees
    of freedom.  |r| = 1 maps to the p floor (smallest positive double).
    """
    if n < 3:
        raise InsufficientDataError(f"need n >= 3 for a correlation p-value, got {n}")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r}")
    denom = 1.0 - r * r
    if denom <= 0.0:
        return student_t_two_sided_p(math.inf, n - 2)
    t = r * math.sqrt(n - 2) / math.sqrt(denom)
    return student_t_two_sided_p(t, n - 2)


def pearson_matrix(d: Dataset, cols: Sequence[str] | None = None) -> CorrelationReport:
    """Pearson correlation matrix with two-sided p-values.

    Requires n >= 3 and nonzero sample variance in every requested
    column.  Diagonal r entries are exactly 1 and diagonal p entries are
    pinned to 1.0 (the boundary convention for self-correlation).
    """
    names = tuple(cols) if cols is not None else tuple(d.names)
    if d.n < 3:
        raise InsufficientDataError(f"need n >= 3 observations, got {d.n}")
    data = np.column_stack([d.column(name) for name in names])
    centered = data - data.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    for j, name in enumerate(names):
        if norms[j] == 0.0:
            raise DegenerateColumnError(f"column {name!r} has zero variance")
    r = (centered.T @ centered) / np.outer(norms, norms)
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    k = len(names)
    p = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            p[i, j] = p[j, i] = correlation_p_value(float(r[i, j]), d.n)
    r.flags.writeable = False
    p.flags.writeable = False
    return CorrelationReport(names=names, r=r, p=p, n=d.n)


def quartiles(d: Dataset) -> QuartileSummary:
    """Five-number-plus-mean summary per column (type-7 quartiles)."""
    summary: dict[str, ColumnQuartiles] = {}
    for name in d.names:
        col = d.column(name)
        summary[name] = ColumnQuartiles(
            min=float(col.min()),
            q25=float(np.quantile(col, 0.25)),
            mean=float(col.mean()),
            q75=float(np.quantile(col, 0.75)),
            max=float(col.max()),
        )
    return QuartileSummary(columns=summary)


def column_stats(d: Dataset, col: str) -> ColumnStats:
    """Sample mean, unbiased variance (n-1 divisor), min, and max."""
    values = d.column(col)
    n = values.size
    variance = float(values.var(ddof=1)) if n > 1 else 0.0
    return ColumnStats(
        mean=float(values.mean()),
        variance=variance,
        min=float(values.min()),
        max=float(values.max()),
        n=int(n),
    )
