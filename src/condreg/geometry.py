"""Predictor-domain geometry and combined-action classification.

Confidence ellipses mark the jointly observed predictor region:
predictions inside are interpolation, outside extrapolation, and the
stronger two predictors correlate, the thinner the observed region
gets.  An ellipse's center and shape are the sample means and
covariance from the moments engine of :mod:`condreg.dataset`, so a
constant column is a degenerate column, and only a pair perfectly
correlated to working precision is a degenerate ellipse.

Combined-action labels are read off the cross term of a fitted
two-factor model: an insignificant cross term, or one that adds nothing
to the joint effect at the evaluated levels, means additivity, a cross
term opposing the factors' shared direction attenuates it, and a cross
term that pulls the joint response back to the both-low (control) level
against two same-signed single-factor effects is antagonism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Mapping

import numpy as np

from .dataset import Dataset, _moments
from .defaults import CONTROL_TOLERANCE, MAX_PLOT_POINTS
from .errors import (
    AssignmentError,
    DegenerateEllipseError,
    InsufficientDataError,
    ModelError,
    ScopeError,
)
from .stats import chi_square_quantile_2dof, student_t_two_sided_p

if TYPE_CHECKING:
    from .ols import FittedModel

_EPS = float(np.finfo(float).eps)

ActionLabel = Literal[
    "additive", "less-than-additive", "greater-than-additive", "antagonism"
]


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
    """Confidence ellipse from the sample means and covariance of ``_moments``."""
    if d.n < 3:
        raise InsufficientDataError(f"need n >= 3 observations, got {d.n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    mean, gram, _, exponents = _moments(d, [x, y])
    center = np.ldexp(mean, exponents)
    with np.errstate(over="ignore"):
        shape = np.ldexp(gram / (d.n - 1), exponents[:, None] + exponents)
    if not np.isfinite(shape).all():
        raise DegenerateEllipseError(
            f"({x}, {y}) sample covariance overflows; rescale the columns"
        )
    # The scaled Gram matrix's determinant has shape's sign and cannot
    # overflow.  By the two-pass bound (Chan, Golub & LeVeque 1979) each
    # computed g_ij is within about n u sqrt(g_ii g_jj) of its exact value
    # (u = eps / 2), so a linear pair's det, exactly 0, can come out as
    # large as 4 n u g_00 g_11 = 2 n eps g_00 g_11, plus a few eps g_00 g_11
    # from forming the determinant.  At or below that bound the pair is
    # perfectly correlated to working precision.
    if np.linalg.det(gram) <= 2.0 * (d.n + 2) * _EPS * gram[0, 0] * gram[1, 1]:
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
    """(points x 2) polyline of the ellipse boundary; ``points`` must lie in
    [1, ``MAX_PLOT_POINTS``]."""
    if points < 1:
        raise DegenerateEllipseError(f"a boundary needs at least 1 point, got {points}")
    if points > MAX_PLOT_POINTS:
        raise DegenerateEllipseError(f"a boundary takes at most {MAX_PLOT_POINTS} points, got {points}")
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)])
    chol = np.linalg.cholesky(e.shape)
    return (e.center[:, None] + math.sqrt(e.threshold) * (chol @ circle)).T


@dataclass(frozen=True)
class ActionClass:
    """Combined-action label with the evidence it was read from.

    ``effect_1``/``effect_2`` are the isolated single-factor effects
    (each factor moved low -> high with the other held low);
    ``joint_effect`` moves both.  ``gap_p`` is the two-sided t test's p
    of the interaction gap (hh - hl) - (lh - ll) the label is read from,
    and ``cross_p`` that of the cross coefficient alone; the two agree
    when the gap's design row holds the cross term only, as at the
    coded levels -1 and +1.  Both are NaN at dof 0 (an exact fit, or
    published coefficients); the significance gate is then skipped and
    the gap treated as real.
    """

    label: ActionLabel
    cross_coef: float
    cross_p: float
    gap_p: float
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
    """Classify the joint action of two factors from their interaction gap.

    The model must contain linear terms for both factors and their cross
    term.  ``levels`` gives each factor's (low, high) evaluation points,
    defaulting to the coded convention (-1, +1); ``fixed`` pins every
    further predictor of the model, by the one rule of
    ``ModelSpec.check_point`` with both factors varied.

    A gap whose t test gives a p above ``alpha`` reads additive.  When
    the isolated effects disagree in sign, the larger-magnitude
    effect supplies the reference direction.  Raises ModelError unless
    ``alpha`` lies in (0, 1) and ``control_tolerance`` is >= 0, and
    AssignmentError for levels of a name that is neither factor, a level
    that is not finite, or a low level equal to its high level, and for
    an effect or the gap's variance that leaves the double range.
    """
    from .terms import Term  # here, so that ellipse loads neither ols nor terms

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
    fixed = dict(fixed or {})
    spec.check_point((f1, f2), fixed)

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
    ll, hl, lh, hh = (
        spec.section_matrix(None, {**fixed, f1: v1, f2: v2})[0]
        for v1, v2 in ((lo1, lo2), (hi1, lo2), (lo1, hi2), (hi1, hi2))
    )
    # Design rows are differenced before the coefficients apply, so a term
    # without a factor adds exactly 0 to that factor's effect and to the
    # interaction gap (hh - hl) - (lh - ll).  A difference past the double
    # range is inf, and so makes its effect leave it too.
    with np.errstate(over="ignore", invalid="ignore"):
        differences = np.array([hl - ll, lh - ll, hh - ll, (hh - hl) - (lh - ll)])
    effect_1, effect_2, joint, gap = m.combine(differences, f"combined action of {f1!r} and {f2!r}").tolist()

    gap_p = math.nan
    if m.dof:
        row = differences[3]
        with np.errstate(over="ignore", invalid="ignore"):
            variance = row @ m.cov @ row
        if not np.isfinite(variance):
            raise AssignmentError(f"variance of the gap of {f1!r} and {f2!r} leaves the double range")
        with np.errstate(divide="ignore", invalid="ignore"):
            gap_p = student_t_two_sided_p(gap / np.sqrt(variance), m.dof)

    evidence = dict(
        cross_coef=m.coefficient(cross),
        cross_p=float(m.p[m.term_index(cross)]),
        gap_p=gap_p,
        effect_1=effect_1,
        effect_2=effect_2,
        joint_effect=joint,
    )

    if not math.isnan(gap_p) and gap_p > alpha:
        return ActionClass(label="additive", **evidence)
    # No interaction, or no single-factor effect to set a direction.
    if gap == 0.0 or (effect_1 == 0.0 and effect_2 == 0.0):
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

    # the corners' spread, each taken relative to the both-low corner
    corner_range = max(0.0, effect_1, effect_2, joint) - min(0.0, effect_1, effect_2, joint)
    restored = abs(joint) <= control_tolerance * corner_range
    if shared and restored:
        return ActionClass(label="antagonism", **evidence)
    return ActionClass(label="less-than-additive", **evidence)
