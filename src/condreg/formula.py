"""Model formula mini-language.

Syntax: ``Y ~ x1 + x2 + x1:x2 + x1^2``, where ``:`` multiplies
predictors, ``^k`` raises to an integer power (total term degree capped
at 3), ``quad(a,b,...)`` expands to the full quadratic term set, ``0``
suppresses the intercept and ``1`` names it explicitly.  Printing a
spec and re-parsing it reproduces the spec exactly.
"""

from __future__ import annotations

import re

from .errors import FormulaError
from .terms import ModelSpec, Term, full_quadratic_terms

MAX_DEGREE = 3

_IDENT = re.compile(r"^[A-Za-z_]\w*$")
_QUAD = re.compile(r"^quad\(([^()]*)\)$")
_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


def _parse_term(token: str) -> Term:
    factors: list[tuple[str, int]] = []
    for piece in token.split(":"):
        piece = piece.strip()
        match = _FACTOR.match(piece)
        if not match:
            raise FormulaError(f"bad term factor {piece!r}")
        name, power_text = match.groups()
        power = int(power_text) if power_text else 1
        if power < 1:
            raise FormulaError(f"power must be >= 1 in {piece!r}")
        if power > MAX_DEGREE:
            raise FormulaError(
                f"power {power} in {piece!r} exceeds the formula degree cap of {MAX_DEGREE}"
            )
        factors.append((name, power))
    term = Term(factors)
    if term.degree > MAX_DEGREE:
        raise FormulaError(
            f"term {term.label!r} has degree {term.degree}, above the cap of {MAX_DEGREE}"
        )
    return term


def parse_terms(text: str) -> list[Term]:
    """Comma-separated terms in formula syntax, e.g. ``"x1, x1:x2, x2^2"``."""
    terms = [_parse_term(token) for token in text.split(",") if token.strip()]
    if not terms:
        raise FormulaError("no terms given")
    return terms


def parse_formula(text: str) -> ModelSpec:
    """Parse a formula string into a ModelSpec (term order preserved)."""
    sides = text.split("~")
    if len(sides) != 2:
        raise FormulaError("formula must contain exactly one '~'")
    response = sides[0].strip()
    if not _IDENT.match(response):
        raise FormulaError(f"bad response name {response!r}")

    intercept = True
    terms: list[Term] = []
    for raw in sides[1].split("+"):
        token = raw.strip()
        if not token:
            raise FormulaError("empty term (stray '+'?)")
        if token == "0":
            intercept = False
            continue
        if token == "1":
            continue
        quad = _QUAD.match(token)
        if quad:
            names = [name.strip() for name in quad.group(1).split(",") if name.strip()]
            if not names:
                raise FormulaError("quad() needs at least one predictor")
            for i, name in enumerate(names):
                if not _IDENT.match(name):
                    raise FormulaError(f"bad predictor name {name!r} in quad()")
                if name in names[:i]:
                    raise FormulaError(f"duplicate predictor name {name!r} in quad()")
            new_terms = full_quadratic_terms(names)
        else:
            new_terms = [_parse_term(token)]
        for term in new_terms:
            if term in terms:
                raise FormulaError(f"duplicate term {term.label!r}")
            terms.append(term)
    if not terms and intercept is False:
        raise FormulaError("formula has no terms and no intercept")
    return ModelSpec(response=response, terms=tuple(terms), intercept=intercept)


def print_formula(spec: ModelSpec) -> str:
    """Canonical text for a spec; parse_formula inverts it exactly."""
    parts = [] if spec.intercept else ["0"]
    parts.extend(term.label for term in spec.terms)
    if not parts:
        parts = ["1"]
    return f"{spec.response} ~ {' + '.join(parts)}"
