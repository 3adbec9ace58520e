"""Exception hierarchy.

Every exception carries a short machine-readable ``code``; the CLI prefixes
its single-line error output with it (``error[<code>]: message``).  Data
errors map to exit status 1, model errors to exit status 2.
"""

from __future__ import annotations


class CondregError(Exception):
    """Base class for all toolkit errors."""

    code = "error"


class DataError(CondregError):
    """Input data is unusable: parsing, schema, or degenerate columns."""

    code = "data"


class CsvParseError(DataError):
    """Structurally malformed CSV; carries the 1-based offending line."""

    code = "csv-parse"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyDataError(DataError):
    code = "empty-data"


class SchemaError(DataError):
    code = "schema"


class NonFiniteDataError(DataError):
    code = "non-finite"


class InsufficientDataError(DataError):
    code = "insufficient-data"


class UnknownColumnError(DataError):
    code = "unknown-column"


class DegenerateColumnError(DataError):
    code = "degenerate-column"


class ModelError(CondregError):
    """Model specification or fitting problem."""

    code = "model"


class UnknownPredictorError(ModelError):
    code = "unknown-predictor"


class DuplicateTermError(ModelError):
    code = "duplicate-term"


class UnderdeterminedModelError(ModelError):
    code = "underdetermined"


class CollinearityError(ModelError):
    """Rank-deficient design; names one linearly dependent column."""

    code = "collinearity"

    def __init__(self, message: str, column: str | None = None):
        if column is not None:
            message = f"{message} (dependent column: {column})"
        super().__init__(message)
        self.column = column


class SaturatedModelError(ModelError):
    code = "saturated"


class NestingError(ModelError):
    code = "nesting"


class AssignmentError(ModelError):
    """Fixed-value assignment is incomplete, superfluous, or unresolvable."""

    code = "assignment"


class ScopeError(ModelError):
    """The requested analysis does not apply to this model's structure."""

    code = "scope"


class DegenerateEllipseError(ModelError):
    code = "degenerate-ellipse"


class FormulaError(ModelError):
    code = "formula"


class SearchError(ModelError):
    code = "search"


class ConfigError(CondregError):
    code = "config"
