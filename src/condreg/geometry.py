"""Predictor-domain geometry and combined-action classification.

Confidence ellipses mark the jointly observed predictor region:
predictions inside are interpolation, outside extrapolation, and the
stronger two predictors correlate, the thinner the observed region
gets.  Combined-action labels are read off the cross term of a fitted
two-factor model: an insignificant cross term means additivity, a cross
term opposing the factors' shared direction attenuates it, and a cross
term that pulls the joint response back to the both-low (control) level
against two same-signed single-factor effects is antagonism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .dataset import Dataset
from .errors import (
    AssignmentError,
    DegenerateEllipseError,
    InsufficientDataError,
    ModelError,
    ScopeError,
)
from .ols import FittedModel, predict
from .stats import chi_square_quantile_2dof
from .terms import Term

ActionLabel = Literal[
    "additive", "less-than-additive", "greater-than-additive", "antagonism"
]

# Joint response within this fraction of the corner-prediction range of
# the control level counts as "restored to control".
CONTROL_TOLERANCE = 0.05


@dataclass(frozen=True)
class ConfidenceEllipse:
    """Sample-moment confidence ellipse for one predictor pair.

    A point is inside iff its squared Mahalanobis distance from the
    center (under the sample covariance ``shape``) is at most
    ``threshold``, the chi-square(2) quantile at ``level``.
    """

    pair: tuple[str, str]
    center: np.ndarray
    shape: np.ndarray
    level: float
    threshold: float

    def mahalanobis_sq(self, point) -> float:
        delta = np.asarray(point, dtype=float) - self.center
        return float(delta @ np.linalg.solve(self.shape, delta))


def ellipse(d: Dataset, x: str, y: str, level: float) -> ConfidenceEllipse:
    """Confidence ellipse from sample means and covariance."""
    if d.n < 3:
        raise InsufficientDataError(f"need n >= 3 observations, got {d.n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    xv, yv = d.column(x), d.column(y)
    center = np.array([xv.mean(), yv.mean()])
    with np.errstate(over="ignore", invalid="ignore"):
        shape = np.cov(xv, yv, ddof=1)
    if not np.isfinite(shape).all():
        raise DegenerateEllipseError(
            f"({x}, {y}) sample covariance overflows; rescale the columns"
        )
    det = float(np.linalg.det(shape))
    if det <= 0.0 or not math.isfinite(det):
        raise DegenerateEllipseError(
            f"({x}, {y}) sample covariance is singular; the pair is perfectly correlated"
        )
    center.flags.writeable = False
    shape.flags.writeable = False
    return ConfidenceEllipse(
        pair=(x, y),
        center=center,
        shape=shape,
        level=level,
        threshold=chi_square_quantile_2dof(level),
    )


def boundary(e: ConfidenceEllipse, points: int = 360) -> np.ndarray:
    """(points x 2) polyline of the ellipse boundary; ``points`` must be >= 1."""
    if points < 1:
        raise DegenerateEllipseError(f"a boundary needs at least 1 point, got {points}")
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)])
    chol = np.linalg.cholesky(e.shape)
    return (e.center[:, None] + math.sqrt(e.threshold) * (chol @ circle)).T


@dataclass(frozen=True)
class ActionClass:
    """Combined-action label with the evidence it was read from.

    ``effect_1``/``effect_2`` are the isolated single-factor effects
    (each factor moved low -> high with the other held low);
    ``joint_effect`` moves both.  ``cross_p`` is NaN when the model
    carries published coefficients without inference; the significance
    gate is then skipped and the cross term treated as real.
    """

    label: ActionLabel
    cross_coef: float
    cross_p: float
    effect_1: float
    effect_2: float
    joint_effect: float


def classify_action(
    m: FittedModel,
    f1: str,
    f2: str,
    alpha: float = 0.05,
    levels: Mapping[str, tuple[float, float]] | None = None,
    fixed: Mapping[str, float] | None = None,
    control_tolerance: float = CONTROL_TOLERANCE,
) -> ActionClass:
    """Classify the joint action of two factors from their cross term.

    The model must contain linear terms for both factors and their cross
    term.  ``levels`` gives each factor's (low, high) evaluation points,
    defaulting to the coded convention (-1, +1); any further predictors
    in the model must be pinned via ``fixed``.

    When the isolated effects disagree in sign, the larger-magnitude
    effect supplies the reference direction.  Raises ModelError unless
    ``alpha`` lies in (0, 1) and ``control_tolerance`` is >= 0, and
    AssignmentError for levels of a name that is neither factor, a level
    that is not finite, or a low level equal to its high level.
    """
    if not 0.0 < alpha < 1.0:
        raise ModelError(f"alpha must lie in (0, 1), got {alpha}")
    if not control_tolerance >= 0.0:
        raise ModelError(f"control tolerance must be >= 0, got {control_tolerance}")
    spec = m.spec
    cross = Term.cross(f1, f2)
    for needed in (Term.linear(f1), Term.linear(f2), cross):
        if needed not in spec.terms:
            raise ScopeError(
                f"model lacks the {needed.label!r} term required for action classification"
            )
    others = [name for name in spec.predictors if name not in (f1, f2)]
    fixed = dict(fixed or {})
    missing = [name for name in others if name not in fixed]
    if missing:
        raise AssignmentError(
            f"predictors {missing} must be fixed for action classification"
        )

    levels = dict(levels or {})
    extra = sorted(set(levels) - {f1, f2})
    if extra:
        raise AssignmentError(f"level assignment has superfluous entries: {extra}")
    for name, pair in levels.items():
        if not all(math.isfinite(value) for value in pair):
            raise AssignmentError(f"levels of {name!r} must be finite numbers, got {list(pair)}")
        if pair[0] == pair[1]:
            raise AssignmentError(f"levels of {name!r} must differ, got {list(pair)}")
    lo1, hi1 = levels.get(f1, (-1.0, 1.0))
    lo2, hi2 = levels.get(f2, (-1.0, 1.0))
    corners = {
        (a, b): predict(m, {**fixed, f1: va, f2: vb})
        for (a, b), (va, vb) in {
            ("lo", "lo"): (lo1, lo2),
            ("hi", "lo"): (hi1, lo2),
            ("lo", "hi"): (lo1, hi2),
            ("hi", "hi"): (hi1, hi2),
        }.items()
    }
    y_ll = corners[("lo", "lo")]
    effect_1 = corners[("hi", "lo")] - y_ll
    effect_2 = corners[("lo", "hi")] - y_ll
    joint = corners[("hi", "hi")] - y_ll

    cross_coef = m.coefficient(cross)
    cross_p = float(m.p[m.term_index(cross)])

    evidence = dict(
        cross_coef=cross_coef,
        cross_p=cross_p,
        effect_1=effect_1,
        effect_2=effect_2,
        joint_effect=joint,
    )

    if not math.isnan(cross_p) and cross_p > alpha:
        return ActionClass(label="additive", **evidence)

    # Interaction contribution to the joint effect relative to additivity;
    # pure-power terms cancel in this double difference.
    gap = (
        corners[("hi", "hi")]
        - corners[("hi", "lo")]
        - corners[("lo", "hi")]
        + corners[("lo", "lo")]
    )
    if effect_1 == 0.0 and effect_2 == 0.0:
        return ActionClass(label="additive", **evidence)
    if effect_1 * effect_2 > 0.0:
        direction = math.copysign(1.0, effect_1)
        shared = True
    else:
        dominant = effect_1 if abs(effect_1) >= abs(effect_2) else effect_2
        direction = math.copysign(1.0, dominant)
        shared = False

    if gap * direction > 0.0:
        return ActionClass(label="greater-than-additive", **evidence)

    corner_range = max(corners.values()) - min(corners.values())
    restored = abs(joint) <= control_tolerance * corner_range
    if shared and restored:
        return ActionClass(label="antagonism", **evidence)
    return ActionClass(label="less-than-additive", **evidence)
