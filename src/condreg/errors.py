"""Exception hierarchy.

Every exception carries a short machine-readable ``code``; the CLI prefixes
its single-line error output with it (``error[<code>]: message``).  Data
errors map to exit status 1, model errors to exit status 2.  A constant
column (min equal to max) is ``degenerate-column`` in every command that
needs its variance.  Two more codes come from the environment, not from
the input, and also exit 1: ``io``, a file that cannot be read or
written, and ``import``, a module that a command loads when it runs
(numpy, say) failing to import.
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


class ResponseTermError(ModelError):
    """A model term uses the model's own response."""

    code = "response-term"


class UnderdeterminedModelError(ModelError):
    code = "underdetermined"


class CollinearityError(ModelError):
    """Rank-deficient design; names the first column, in the model's term
    order, that the columns before it span (for an all-zero design, the
    first column)."""

    code = "collinearity"

    def __init__(self, message: str, column: str | None = None):
        if column is not None:
            message = f"{message} (dependent column: {column})"
        super().__init__(message)
        self.column = column


class ScaleError(ModelError):
    """A column's sum of squares leaves the double range; rescaling the
    data brings it back."""

    code = "scale"


class SaturatedModelError(ModelError):
    code = "saturated"


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
