"""Bridges between one-predictor and multi-predictor coefficients.

Covers the slope algebra connecting simple and multiple regression, as
one bridge report per target predictor; the residualized-predictor
equivalence (regressing Y on a predictor stripped of its linear
relationships with the others reproduces that predictor's multivariate
coefficient); and the detection of paradoxical coefficient signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, centered_moments
from .errors import CollinearityError, UnknownPredictorError
from .ols import fit
from .terms import ModelSpec, Term

DESTABILIZATION_THRESHOLD = 0.7


def two_predictor_bridge(
    a1: float, a2: float, c12: float, c21: float, r: float
) -> tuple[float, float]:
    """Two-predictor MLR coefficients from SLR slopes and cross-slopes.

        b1 = (a1 - a2*c21) / (1 - r^2),   b2 = (a2 - a1*c12) / (1 - r^2)

    where a_i are the simple slopes of Y on x_i, c12/c21 the slopes of
    x1 on x2 and x2 on x1, and r their correlation.
    """
    denom = 1.0 - r * r
    if denom <= 0.0:
        raise CollinearityError(f"predictors are perfectly correlated (r={r})")
    return (a1 - a2 * c21) / denom, (a2 - a1 * c12) / denom


@dataclass(frozen=True)
class BridgeReport:
    """How one predictor's simple slope relates to its multivariate one.

    ``a``/``b`` are the target's SLR and MLR slopes; ``slr``/``mlr`` hold
    the same per predictor.  ``c[(i, j)]`` is the slope of x_i regressed
    on x_j.  ``ac_sum`` is the correlation-adjusted effect
    b_target + sum_j b_j * c[(j, target)], which equals ``a`` for
    predictor-linear models.  ``reconstruction_discrepancy`` (two
    predictors only) is the largest absolute gap between the direct MLR
    coefficients and their reconstruction from (a, c, r).
    """

    target: str
    a: float
    b: float
    slr: dict[str, float]
    mlr: dict[str, float]
    c: dict[tuple[str, str], float]
    r: dict[str, float]
    ac_sum: float
    sign_flip: bool
    expectation_violation: bool | None = None
    reconstruction_discrepancy: float | None = None


def _linear_spec(response: str, predictors: Sequence[str]) -> ModelSpec:
    return ModelSpec(
        response=response, terms=tuple(Term.linear(name) for name in predictors)
    )


def _slopes(d: Dataset, response: str, predictors: Sequence[str], target: str):
    """(slr, c, r) as in BridgeReport, from one set of centred moments."""
    names = [response, *predictors]
    corr, norms = centered_moments(d, names)
    slope = corr * norms[:, None] / norms  # slope[i, j]: column i on column j
    at = {name: k for k, name in enumerate(names)}
    t = at[target]
    slr = {name: float(slope[0, at[name]]) for name in predictors}
    c: dict[tuple[str, str], float] = {}
    r: dict[str, float] = {}
    for name in predictors:
        if name != target:
            j = at[name]
            c[(name, target)] = float(slope[j, t])
            c[(target, name)] = float(slope[t, j])
            r[name] = float(corr[t, j])
    return slr, c, r


def bridge(
    d: Dataset,
    response: str,
    predictors: Sequence[str],
    target: str,
    expected_sign: int | None = None,
) -> BridgeReport:
    """Full SLR/MLR coefficient comparison for one target predictor.

    Takes the simple slopes of the response on each predictor and the
    pairwise slopes and correlations involving the target from one set
    of centred moments, and fits the predictor-linear multiple
    regression on all of them.  With ``expected_sign`` the report flags
    a multivariate coefficient of the other sign.  For exactly two
    predictors the MLR coefficients are additionally reconstructed from
    the slope algebra and the residual discrepancy is recorded.
    """
    predictors = list(predictors)
    if target not in predictors:
        raise UnknownPredictorError(f"target {target!r} not among predictors {predictors}")
    slr, c, r = _slopes(d, response, predictors, target)
    mlr_fit = fit(d, _linear_spec(response, predictors))
    mlr = {
        name: mlr_fit.coefficient(Term.linear(name)) for name in predictors
    }
    ac_sum = mlr[target] + sum(
        mlr[name] * c[(name, target)] for name in predictors if name != target
    )

    a, b = slr[target], mlr[target]
    sign_flip = a * b < 0.0
    violation = None if expected_sign is None else (b * expected_sign < 0.0)

    discrepancy = None
    if len(predictors) == 2:
        other = next(name for name in predictors if name != target)
        b_t, b_o = two_predictor_bridge(
            slr[target],
            slr[other],
            c[(target, other)],
            c[(other, target)],
            r[other],
        )
        discrepancy = max(abs(b_t - mlr[target]), abs(b_o - mlr[other]))

    return BridgeReport(
        target=target,
        a=a,
        b=b,
        slr=slr,
        mlr=mlr,
        c=c,
        r=r,
        ac_sum=ac_sum,
        sign_flip=sign_flip,
        expectation_violation=violation,
        reconstruction_discrepancy=discrepancy,
    )


@dataclass(frozen=True)
class Residualization:
    """A predictor with its linear dependence on the others removed.

    ``column`` is x* = x_target - sum_j slopes[j] * x_j with the slopes
    taken from the multivariate regression of the target on the others
    (required for the slope(Y ~ x*) = MLR-coefficient equivalence to
    hold with two or more co-predictors).
    """

    target: str
    column: np.ndarray
    slopes: dict[str, float]


def residualize(d: Dataset, target: str, others: Sequence[str]) -> Residualization:
    """Strip a predictor of its linear relationships with the others."""
    others = list(others)
    if not others:
        raise UnknownPredictorError("need at least one co-predictor to remove")
    if target in others:
        raise UnknownPredictorError(f"target {target!r} cannot be among the others")
    aux = fit(d, _linear_spec(target, others))
    slopes = {name: aux.coefficient(Term.linear(name)) for name in others}
    column = d.column(target).astype(float).copy()
    for name in others:
        column -= slopes[name] * d.column(name)
    column.flags.writeable = False
    return Residualization(target=target, column=column, slopes=slopes)


@dataclass(frozen=True)
class Finding:
    kind: str
    message: str


def detect_paradox(
    report: BridgeReport,
    correlation_threshold: float = DESTABILIZATION_THRESHOLD,
) -> list[Finding]:
    """Flag paradox-prone patterns in a bridge report.

    Findings: an SLR/MLR sign flip for the target; a multivariate sign
    contradicting the ``expected_sign`` given to :func:`bridge`; and
    co-predictor correlations strong enough (default |r| > 0.7) that the
    model may destabilize.
    """
    findings: list[Finding] = []
    if report.sign_flip:
        findings.append(
            Finding(
                kind="sign-flip",
                message=(
                    f"{report.target}: simple slope {report.a:.6g} and multivariate"
                    f" coefficient {report.b:.6g} have opposite signs"
                ),
            )
        )
    if report.expectation_violation:
        findings.append(
            Finding(
                kind="expectation-violation",
                message=(
                    f"{report.target}: multivariate coefficient {report.b:.6g}"
                    " contradicts the declared expected sign"
                ),
            )
        )
    for name in sorted(report.r):
        r = report.r[name]
        if abs(r) > correlation_threshold:
            findings.append(
                Finding(
                    kind="high-correlation",
                    message=(
                        f"{report.target} and {name} correlate at r={r:.3f}"
                        f" (|r| > {correlation_threshold:g}); coefficients may destabilize"
                    ),
                )
            )
    return findings
