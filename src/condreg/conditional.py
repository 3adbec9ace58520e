"""One-factor conditional response functions and unit-change effects.

Fixing every predictor but one in a fitted polynomial-term model yields
a univariate polynomial in the remaining predictor.  These sections of
the response surface, not individual coefficients, are the objects this
package is built to report on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .dataset import PRESET_STATS, ColumnQuartiles
from .errors import AssignmentError, ScopeError, UnknownColumnError
from .ols import FittedModel


@dataclass(frozen=True)
class ConditionalResponse:
    """Univariate polynomial in ``target`` with all other predictors fixed.

    ``poly`` holds ascending coefficients (constant, linear, quadratic,
    ...); its degree equals the target's maximum power in the parent
    model.  ``cautions`` lists (fixed predictor, r) pairs whose sample
    correlation with the target is strong enough that the chosen fixed
    value may sit outside the jointly observed region.
    """

    target: str
    fixed: dict[str, float]
    poly: tuple[float, ...]
    cautions: tuple[tuple[str, float], ...] = ()

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def __call__(self, value: float) -> float:
        out = 0.0
        for coefficient in reversed(self.poly):
            out = out * value + coefficient
        return out


@dataclass(frozen=True)
class TCoefficients:
    """Constant/linear/quadratic decomposition of a conditional response."""

    t0: float
    t_linear: float
    t_quad: float


def resolve_assignment(
    fixed: Mapping[str, float | str],
    summary: Mapping[str, ColumnQuartiles] | None = None,
) -> dict[str, float]:
    """Turn preset names (min/q25/mean/q75/max) into numbers.

    Finite numbers pass through; presets require a column summary (as
    from ``dataset.quartiles``) that covers the named predictors.
    """
    resolved: dict[str, float] = {}
    for name, value in fixed.items():
        if isinstance(value, str):
            if value not in PRESET_STATS:
                raise AssignmentError(
                    f"unknown preset {value!r} for {name!r}; expected one of {PRESET_STATS}"
                )
            if summary is None:
                raise AssignmentError(
                    f"preset {value!r} for {name!r} needs a dataset summary to resolve"
                )
            if name not in summary:
                raise UnknownColumnError(f"no summary for column {name!r}")
            resolved[name] = getattr(summary[name], value)
        else:
            resolved[name] = float(value)
            if not math.isfinite(resolved[name]):
                raise AssignmentError(f"fixed value for {name!r} must be a finite number, got {value}")
    return resolved


def _check_assignment(m: FittedModel, target: str, fixed: Mapping[str, float]) -> None:
    predictors = set(m.spec.predictors)
    if target not in predictors:
        raise AssignmentError(f"target {target!r} does not appear in the model")
    needed = predictors - {target}
    given = set(fixed)
    if target in given:
        raise AssignmentError(f"target {target!r} must not be fixed")
    missing = sorted(needed - given)
    if missing:
        raise AssignmentError(f"fixed assignment missing predictors: {missing}")
    extra = sorted(given - needed)
    if extra:
        raise AssignmentError(f"fixed assignment has superfluous entries: {extra}")


def derive(
    m: FittedModel,
    target: str,
    fixed: Mapping[str, float],
    correlations: Iterable[tuple[str, str, float]] = (),
) -> ConditionalResponse:
    """Section the model along ``target`` at a fixed co-predictor point.

    Substitutes the fixed values into every term and collects by powers
    of the target.  Of the strong (a, b, r) pairs in ``correlations``, as
    from :func:`condreg.selection.strong_correlations`, each pair of the
    target and a fixed predictor is attached as a caution (no gating).
    """
    _check_assignment(m, target, fixed)
    degree = m.spec.degree_in(target)
    poly = [0.0] * (degree + 1)
    poly[0] += m.intercept_value
    offset = 1 if m.spec.intercept else 0
    for i, term in enumerate(m.spec.terms):
        k = term.degree_in(target)
        partial = float(m.coef[offset + i])
        for name, power in term.factors:
            if name != target:
                partial *= fixed[name] ** power
        poly[k] += partial

    partner = {b if a == target else a: r for a, b, r in correlations if target in (a, b)}
    return ConditionalResponse(
        target=target,
        fixed=dict(fixed),
        poly=tuple(poly),
        cautions=tuple((name, partner[name]) for name in sorted(fixed) if name in partner),
    )


def unit_effect(
    m: FittedModel, target: str, fixed: Mapping[str, float], at: float
) -> float:
    """Response change when ``target`` moves from ``at`` to ``at + 1``.

    Exactly the finite difference of the conditional polynomial; for a
    model with no higher-order terms in the target this is the target's
    coefficient, independent of ``at`` and of the fixed values.  Raises
    AssignmentError for an ``at`` that is not finite.
    """
    if not math.isfinite(at):
        raise AssignmentError(f"effect point must be a finite number, got {at}")
    section = derive(m, target, fixed)
    return section(at + 1.0) - section(at)


def t_coefficients(section: ConditionalResponse) -> TCoefficients:
    """Named (T0, T_linear, T_quad) decomposition for report tables.

    Only defined when the section is at most quadratic in its target;
    higher degrees should read the section's ``poly`` directly.
    """
    if section.degree > 2:
        raise ScopeError(
            f"model is degree {section.degree} in {section.target!r}; use the section's poly"
        )
    poly = section.poly + (0.0,) * (3 - len(section.poly))
    return TCoefficients(t0=poly[0], t_linear=poly[1], t_quad=poly[2])
