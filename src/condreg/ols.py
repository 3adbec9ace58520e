"""Least-squares fitting with full coefficient inference.

Every fit goes through one :class:`Factorization`: the intercept, a pool
of term columns and the response are written into one n x (P + 2) array,
which is factored once, in place, by unpivoted Householder QR.  Only the
small R factor is kept, never Q and never the normal equations.  A
sub-model S of the pool has design X_S = Q R[:, S] and response
y = Q R[:, y], so it is solved from R alone, at a cost that does not
depend on n:

* rank test: QR with column pivoting of the slice R[:, S]; a pivot below
  1e-10 times the largest pivot declares rank deficiency and names the
  offending column;
* residual sum of squares: the squared tail of Q_S' R[:, y];
* inference: standard errors from sigma^2 * (X'X)^{-1} with
  sigma^2 = RSS/dof, two-sided Student t p-values.

R^2 uses the centered total sum of squares when an intercept is present
and the uncentered one otherwise.  :func:`fit` is one factorization over
the model's own terms; model search reuses one for many sub-models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

from .dataset import Dataset
from .errors import (
    AssignmentError,
    CollinearityError,
    ModelError,
    NestingError,
    SaturatedModelError,
)
from .stats import student_t_two_sided_p
from .terms import ModelSpec, Term, check_design, fill_design

RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FittedModel:
    """Coefficients plus inference for one least-squares fit.

    ``coef`` is ordered as the design matrix: intercept first when
    present, then the spec's terms.  Models built from published
    coefficients (no data) carry NaN inference fields and ``n = 0``.
    """

    spec: ModelSpec
    coef: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    r2: float
    r2_adj: float
    rss: float
    n: int
    dof: int
    cov: np.ndarray
    data_fingerprint: str | None = None

    @property
    def labels(self) -> list[str]:
        out = ["(intercept)"] if self.spec.intercept else []
        out.extend(term.label for term in self.spec.terms)
        return out

    def term_index(self, term) -> int:
        """Position of a term's coefficient in ``coef``."""
        offset = 1 if self.spec.intercept else 0
        for i, candidate in enumerate(self.spec.terms):
            if candidate == term:
                return offset + i
        raise KeyError(f"term {term.label!r} not in model")

    def coefficient(self, term) -> float:
        return float(self.coef[self.term_index(term)])

    @property
    def intercept_value(self) -> float:
        return float(self.coef[0]) if self.spec.intercept else 0.0

    @classmethod
    def from_coefficients(cls, spec: ModelSpec, coef) -> "FittedModel":
        """Wrap externally supplied (e.g. published) coefficients.

        Inference quantities are unavailable and set to NaN.
        """
        coef = np.asarray(coef, dtype=float)
        p = spec.n_parameters
        if coef.shape != (p,):
            raise AssignmentError(
                f"expected {p} coefficients for this model, got {coef.size}"
            )
        nan_vec = np.full(p, np.nan)
        return cls(
            spec=spec,
            coef=coef,
            se=nan_vec,
            t=nan_vec.copy(),
            p=nan_vec.copy(),
            r2=math.nan,
            r2_adj=math.nan,
            rss=math.nan,
            n=0,
            dof=0,
            cov=np.full((p, p), np.nan),
            data_fingerprint=None,
        )


class Factorization:
    """One Householder QR of [intercept | pool term columns | response].

    Built once per dataset, response and term pool; any sub-model whose
    terms come from the pool is then fitted from the small R factor
    alone, at a cost that does not depend on n.  Pool terms that use a
    predictor absent from the data are left out; a sub-model that uses
    one raises UnknownPredictorError when solved.

    Raises UnknownColumnError when the response is not in the data.
    """

    def __init__(self, d: Dataset, response: str, pool: Sequence[Term]):
        y = d.column(response)
        terms = [t for t in pool if all(name in d for name in t.predictors)]
        a = np.empty((d.n, len(terms) + 2), order="F")
        fill_design(a, d, terms, intercept=True)
        a[:, -1] = y
        geqrf = scipy.linalg.lapack.dgeqrf
        lwork = int(geqrf(a, lwork=-1, overwrite_a=1)[2][0])  # workspace query
        qr, _, _, _ = geqrf(a, lwork=lwork, overwrite_a=1)
        # R is upper trapezoidal, min(n, P + 2) x (P + 2); y = Q R[:, -1].
        self.r = np.triu(qr[: min(a.shape)])
        del a, qr
        self.response = response
        self.n = d.n
        self.names = frozenset(d.names)
        self.fingerprint = d.fingerprint
        self.tss_centered = float(((y - y.mean()) ** 2).sum())
        self.tss_uncentered = float((y**2).sum())
        self._column = {term: j for j, term in enumerate(terms, start=1)}

    def _solve(self, spec: ModelSpec, allow_saturated: bool):
        """Checks in ``fit``'s order, then a pivoted QR of the slice R[:, S].

        Returns the slice's QR (upper triangle R_S), its column
        permutation, Q_S' R[:, y] and the residual sum of squares.
        """
        if spec.response != self.response:
            raise ModelError(
                f"model responds to {spec.response!r}, factorization to {self.response!r}"
            )
        check_design(spec, self.names, self.n)
        p = spec.n_parameters
        if p == 0:
            raise ModelError("model has no parameters to fit")
        dof = self.n - p
        if dof < 1 and not (allow_saturated and dof == 0):
            raise SaturatedModelError(
                f"model has {p} parameters for {self.n} observations (dof={dof});"
                " pass allow_saturated=True to permit an exact fit"
            )
        columns = [0] if spec.intercept else []
        columns.extend(self._column[term] for term in spec.terms)
        # Rows of the C-ordered transpose are R's columns: the slice comes
        # out Fortran-ordered, as LAPACK wants it, and is factored in place.
        qr, jpvt, tau, _, _ = scipy.linalg.lapack.dgeqp3(self.r.T[columns].T, overwrite_a=1)
        perm = jpvt - 1
        diag = np.abs(np.diag(qr))
        if diag[0] == 0.0:
            raise CollinearityError("design matrix is zero", column=_label(spec, perm[0]))
        bad = np.nonzero(diag < RANK_TOLERANCE * diag[0])[0]
        if bad.size:
            raise CollinearityError(
                "design matrix is rank deficient", column=_label(spec, perm[bad[0]])
            )
        # Q_S' R[:, y]; one column needs no more than the minimal workspace.
        qty = scipy.linalg.lapack.dormqr("L", "T", qr, tau, self.r[:, -1:], 1)[0][:, 0]
        tail = qty[p:]
        return qr[:p], perm, qty[:p], float(tail @ tail)

    def _r2(self, spec: ModelSpec, rss: float) -> tuple[float, float]:
        """R^2 (centered with an intercept) and adjusted R^2 (NaN at dof 0)."""
        tss = self.tss_centered if spec.intercept else self.tss_uncentered
        if tss > 0.0:
            r2 = 1.0 - rss / tss
            if spec.intercept:
                r2 = min(1.0, max(0.0, r2))
        else:
            # constant response: an exact fit explains it fully
            r2 = 1.0 if rss <= 1e-12 else 0.0
        n, p = self.n, spec.n_parameters
        r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p) if n > p else math.nan
        return float(r2), float(r2_adj)

    def score(self, spec: ModelSpec) -> tuple[float, float]:
        """R^2 and adjusted R^2 of a sub-model, without inference.

        Raises what ``fit`` raises for the same spec (saturated models
        are refused).
        """
        _, _, _, rss = self._solve(spec, allow_saturated=False)
        return self._r2(spec, rss)

    def fit(self, spec: ModelSpec, allow_saturated: bool = False) -> FittedModel:
        """Coefficients and full inference for a sub-model; see :func:`fit`."""
        r, perm, qty, rss = self._solve(spec, allow_saturated)
        n, p = self.n, spec.n_parameters
        dof = n - p
        coef = np.empty(p)
        coef[perm] = scipy.linalg.solve_triangular(r, qty)

        # (X'X)^{-1} from R_S: permute (R'R)^{-1} back to the spec's order.
        r_inv = scipy.linalg.solve_triangular(r, np.eye(p))
        cov_unscaled = np.empty((p, p))
        cov_unscaled[np.ix_(perm, perm)] = r_inv @ r_inv.T

        r2, r2_adj = self._r2(spec, rss)
        if dof > 0:
            cov = (rss / dof) * cov_unscaled
            se = np.sqrt(np.maximum(np.diag(cov), 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(se > 0.0, coef / se, np.inf * np.sign(coef))
            pvals = np.array([student_t_two_sided_p(float(tv), dof) for tv in t])
        else:
            cov = np.full((p, p), np.nan)
            se = np.full(p, np.nan)
            t = np.full(p, np.nan)
            pvals = np.full(p, np.nan)

        for arr in (coef, se, t, pvals, cov):
            arr.flags.writeable = False
        return FittedModel(
            spec=spec,
            coef=coef,
            se=se,
            t=t,
            p=pvals,
            r2=r2,
            r2_adj=r2_adj,
            rss=rss,
            n=n,
            dof=dof,
            cov=cov,
            data_fingerprint=self.fingerprint,
        )


def _label(spec: ModelSpec, column: int) -> str:
    labels = ["(intercept)"] * spec.intercept + [term.label for term in spec.terms]
    return labels[column]


def fit(d: Dataset, spec: ModelSpec, allow_saturated: bool = False) -> FittedModel:
    """Fit a model by least squares.

    Parameters
    ----------
    d : Dataset
    spec : ModelSpec
        Response and term list; the response column must exist in ``d``.
    allow_saturated : bool
        Permit dof = 0 (exact fit).  Inference (se/t/p, adjusted R^2) is
        suppressed to NaN in that case.

    Raises
    ------
    CollinearityError
        Rank-deficient design, naming a dependent column.
    SaturatedModelError
        dof < 1 without ``allow_saturated`` (or dof < 0 always).
    """
    return Factorization(d, spec.response, spec.terms).fit(spec, allow_saturated)


def predict(m: FittedModel, point: Mapping[str, float]) -> float:
    """Model prediction at one predictor assignment."""
    missing = [name for name in m.spec.predictors if name not in point]
    if missing:
        raise AssignmentError(f"assignment missing predictors: {missing}")
    value = m.intercept_value
    offset = 1 if m.spec.intercept else 0
    for i, term in enumerate(m.spec.terms):
        value += float(m.coef[offset + i]) * term.value_at(point)
    return value


@dataclass(frozen=True)
class NestedComparison:
    """Fit change from a smaller model m1 to a larger model m2."""

    delta_r2: float
    delta_rss: float
    delta_dof: int
    r2_small: float
    r2_large: float


def compare(m1: FittedModel, m2: FittedModel) -> NestedComparison:
    """Nested-model report: requires m1's spec to nest inside m2's.

    Both models must be fits of the same response on the same data.
    """
    if m1.spec.response != m2.spec.response:
        raise NestingError(
            f"different responses: {m1.spec.response!r} vs {m2.spec.response!r}"
        )
    if m1.n != m2.n:
        raise NestingError(f"different sample sizes: {m1.n} vs {m2.n}")
    if (
        m1.data_fingerprint is not None
        and m2.data_fingerprint is not None
        and m1.data_fingerprint != m2.data_fingerprint
    ):
        raise NestingError("models were fitted on different data")
    if m1.spec.intercept and not m2.spec.intercept:
        raise NestingError("smaller model has an intercept the larger lacks")
    small = set(m1.spec.terms)
    large = set(m2.spec.terms)
    if not small <= large:
        extra = sorted(t.label for t in small - large)
        raise NestingError(f"models are not nested; extra terms in m1: {extra}")
    return NestedComparison(
        delta_r2=m2.r2 - m1.r2,
        delta_rss=m1.rss - m2.rss,
        delta_dof=m1.dof - m2.dof,
        r2_small=m1.r2,
        r2_large=m2.r2,
    )
