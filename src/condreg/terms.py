"""Term algebra and model specifications.

A :class:`Term` is a product of predictor powers (x1, x1*x2, x1^2,
x1^2*x2, ...).  Repeated predictors merge into powers, so x1*x1 and
x1^2 compare equal.  Canonical ordering sorts by total degree, then
puts products of more distinct predictors first (cross terms before
pure powers), then compares factor tuples; this reproduces the
conventional "linear, cross, square" layout of a full quadratic.
A term's values come from :meth:`Term.column`; design matrices are built
where they are used, a row block at a time, in :mod:`condreg.ols`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DuplicateTermError, ResponseTermError, SchemaError


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

    def column(self, values: Mapping[str, np.ndarray | float]) -> np.ndarray | float:
        """The term evaluated on each predictor's values: equal-length
        arrays (rows of data) give its column, floats (one point) its value."""
        out = 1.0
        for name, power in self.factors:
            out = out * values[name] ** power
        return out

    def __repr__(self) -> str:
        return f"Term({self.label})"


def check_response_unused(response: str, terms: Iterable[Term]) -> None:
    """Raise ResponseTermError naming the first term that uses the response."""
    for term in terms:
        if response in term.predictors:
            raise ResponseTermError(f"term {term.label!r} uses the response {response!r}")


def canonical_order(terms: Iterable[Term]) -> list[Term]:
    return sorted(terms, key=lambda t: t.sort_key)


@dataclass(frozen=True)
class ModelSpec:
    """Response, intercept flag, and an ordered term list.

    Term order is significant: fitted coefficients attach positionally
    (intercept first when present).  No term may use the response.
    """

    response: str
    terms: tuple[Term, ...]
    intercept: bool = True

    def __post_init__(self):
        if not self.response:
            raise SchemaError("model needs a response name")
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(set(self.terms)) < len(self.terms):
            repeat = next(t for i, t in enumerate(self.terms) if t in self.terms[:i])
            raise DuplicateTermError(f"duplicate term {repeat.label!r}")
        check_response_unused(self.response, self.terms)

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


def anchored_predictors(spec: ModelSpec) -> set[str]:
    """Predictors used by a term of degree >= 2: the hierarchy rule keeps
    each one's linear term in the model."""
    return {name for term in spec.terms if term.degree >= 2 for name in term.predictors}


def check_hierarchy(spec: ModelSpec) -> list[str]:
    """Anchored predictors (see ``anchored_predictors``) without a linear
    term, sorted by name.

    An empty list means the model is hierarchical (every predictor used
    in a higher-order term also has a pure linear term).
    """
    linear = {t.factors[0][0] for t in spec.terms if t.degree == 1}
    return sorted(anchored_predictors(spec) - linear)
