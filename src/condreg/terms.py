"""Term algebra, design-matrix expansion, and coded-dose scales.

A :class:`Term` is a product of predictor powers (x1, x1*x2, x1^2,
x1^2*x2, ...).  Repeated predictors merge into powers, so x1*x1 and
x1^2 compare equal.  Canonical ordering sorts by total degree, then
puts products of more distinct predictors first (cross terms before
pure powers), then compares factor tuples; this reproduces the
conventional "linear, cross, square" layout of a full quadratic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .errors import (
    DuplicateTermError,
    SchemaError,
    UnderdeterminedModelError,
    UnknownPredictorError,
)


@dataclass(frozen=True)
class Term:
    """Product of predictor powers; equality is structural after merging."""

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]] | Iterable[str]):
        merged: dict[str, int] = {}
        for factor in factors:
            if isinstance(factor, str):
                name, power = factor, 1
            else:
                name, power = factor
            if not isinstance(name, str) or not name:
                raise ValueError(f"predictor names must be non-empty strings, got {name!r}")
            if not isinstance(power, int) or power < 1:
                raise ValueError(f"powers must be integers >= 1, got {power!r}")
            merged[name] = merged.get(name, 0) + power
        if not merged:
            raise ValueError("a term needs at least one factor")
        object.__setattr__(
            self, "factors", tuple(sorted(merged.items()))
        )

    @classmethod
    def linear(cls, name: str) -> "Term":
        return cls([(name, 1)])

    @classmethod
    def power(cls, name: str, k: int) -> "Term":
        return cls([(name, k)])

    @classmethod
    def cross(cls, *names: str) -> "Term":
        return cls([(name, 1) for name in names])

    @property
    def degree(self) -> int:
        return sum(power for _, power in self.factors)

    @property
    def predictors(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    def degree_in(self, predictor: str) -> int:
        for name, power in self.factors:
            if name == predictor:
                return power
        return 0

    @property
    def sort_key(self) -> tuple:
        # degree first; within a degree, more distinct predictors first
        # (x1*x2 before x1^2), then lexicographic on the factor tuple.
        return (self.degree, -len(self.factors), self.factors)

    @property
    def label(self) -> str:
        parts = []
        for name, power in self.factors:
            parts.append(name if power == 1 else f"{name}^{power}")
        return ":".join(parts)

    def value_at(self, point: Mapping[str, float]) -> float:
        out = 1.0
        for name, power in self.factors:
            out *= float(point[name]) ** power
        return out

    def column(self, d: Dataset) -> np.ndarray:
        col = np.ones(d.n)
        for name, power in self.factors:
            col = col * d.column(name) ** power
        return col

    def __repr__(self) -> str:
        return f"Term({self.label})"


def canonical_order(terms: Iterable[Term]) -> list[Term]:
    return sorted(terms, key=lambda t: t.sort_key)


@dataclass(frozen=True)
class ModelSpec:
    """Response, intercept flag, and an ordered term list.

    Term order is significant: fitted coefficients attach positionally
    (intercept first when present).
    """

    response: str
    terms: tuple[Term, ...]
    intercept: bool = True

    def __post_init__(self):
        if not self.response:
            raise SchemaError("model needs a response name")
        object.__setattr__(self, "terms", tuple(self.terms))
        seen = set()
        for term in self.terms:
            if term in seen:
                raise DuplicateTermError(f"duplicate term {term.label!r}")
            seen.add(term)

    @property
    def predictors(self) -> tuple[str, ...]:
        out: list[str] = []
        for term in self.terms:
            for name in term.predictors:
                if name not in out:
                    out.append(name)
        return tuple(out)

    @property
    def n_parameters(self) -> int:
        return len(self.terms) + (1 if self.intercept else 0)

    def without(self, term: Term) -> "ModelSpec":
        return replace(self, terms=tuple(t for t in self.terms if t != term))

    def degree_in(self, predictor: str) -> int:
        return max((t.degree_in(predictor) for t in self.terms), default=0)


def check_design(spec: ModelSpec, names: Container[str], n: int) -> None:
    """Raise what ``expand`` raises for ``spec`` on data with these column names and n rows.

    UnknownPredictorError names the first predictor absent from ``names``;
    UnderdeterminedModelError is raised when p exceeds n.
    """
    for name in spec.predictors:
        if name not in names:
            raise UnknownPredictorError(f"predictor {name!r} not in dataset")
    p = spec.n_parameters
    if p > n:
        raise UnderdeterminedModelError(
            f"model has {p} parameters but only {n} observations"
        )


def fill_design(
    out: np.ndarray, d: Dataset, terms: Sequence[Term], intercept: bool
) -> list[str]:
    """Write the intercept (when asked) and each term's column into the
    leading columns of ``out`` (n x >= p); returns their labels."""
    labels: list[str] = []
    if intercept:
        out[:, 0] = 1.0
        labels.append("(intercept)")
    for term in terms:
        out[:, len(labels)] = term.column(d)
        labels.append(term.label)
    return labels


def expand(d: Dataset, spec: ModelSpec) -> tuple[np.ndarray, list[str]]:
    """Design matrix (n x p) with column labels, intercept column first.

    Raises UnknownPredictorError for predictors absent from the data and
    UnderdeterminedModelError when p exceeds n.
    """
    check_design(spec, d, d.n)
    design = np.empty((d.n, spec.n_parameters), order="F")
    labels = fill_design(design, d, spec.terms, spec.intercept)
    return design, labels


def full_quadratic_terms(predictors: Sequence[str]) -> list[Term]:
    """Linear + pairwise cross + square terms, canonically ordered."""
    names = list(predictors)
    if not names:
        raise SchemaError("need at least one predictor")
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate predictor names in {names}")
    terms = [Term.linear(name) for name in names]
    terms += [Term.cross(a, b) for a, b in itertools.combinations(names, 2)]
    terms += [Term.power(name, 2) for name in names]
    return canonical_order(terms)


def full_quadratic(predictors: Sequence[str], response: str = "Y") -> ModelSpec:
    """Complete quadratic model: intercept, linears, crosses, squares.

    Produces k(k+3)/2 terms for k predictors.
    """
    return ModelSpec(response=response, terms=tuple(full_quadratic_terms(predictors)))


def check_hierarchy(spec: ModelSpec) -> list[str]:
    """Predictors appearing only inside degree->=2 terms, sorted by name.

    An empty list means the model is hierarchical (every predictor used
    in a higher-order term also has a pure linear term).
    """
    linear = {
        t.factors[0][0] for t in spec.terms if t.degree == 1
    }
    violations = set()
    for term in spec.terms:
        if term.degree >= 2:
            for name in term.predictors:
                if name not in linear:
                    violations.add(name)
    return sorted(violations)


@dataclass(frozen=True)
class CodedScale:
    """Affine raw-dose -> [-1, +1] coding for designed experiments.

    The raw minimum codes to -1 and the raw maximum to +1; the map is
    invertible on each predictor's range.
    """

    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for name, (lo, hi) in self.ranges.items():
            if not lo < hi:
                raise SchemaError(
                    f"coded range for {name!r} needs raw_min < raw_max, got ({lo}, {hi})"
                )

    def _range(self, predictor: str) -> tuple[float, float]:
        try:
            return self.ranges[predictor]
        except KeyError:
            raise UnknownPredictorError(
                f"predictor {predictor!r} has no coded range"
            ) from None

    def code(self, predictor: str, raw: float) -> float:
        lo, hi = self._range(predictor)
        return 2.0 * (raw - lo) / (hi - lo) - 1.0

    def decode(self, predictor: str, coded: float) -> float:
        lo, hi = self._range(predictor)
        return lo + (coded + 1.0) * (hi - lo) / 2.0

    def code_dataset(self, d: Dataset) -> Dataset:
        """Apply the coding to every scaled column; others pass through."""
        columns = []
        for name in d.names:
            col = d.column(name)
            if name in self.ranges:
                lo, hi = self.ranges[name]
                col = 2.0 * (col - lo) / (hi - lo) - 1.0
            columns.append((name, col))
        return Dataset(columns)
