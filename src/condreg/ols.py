"""Least-squares fitting from one factorization of the data.

Every fit goes through one :class:`Factorization`: the R factor of
[intercept | pool term columns | response] is built by LAPACK's
Householder QR (``dgeqrf``) folded over row blocks, R <- qr([R; block]),
a sequential TSQR (Demmel et al. 2012).  One Fortran buffer of
[R; block] is reused for every block and factored in place: each term's
column of a block's design rows is written into its own slice of it,
from that block's rows of the data alone.  A block has
``defaults.ROW_BLOCK_BYTES`` of design rows (2,048 rows of a 22-column
factor), and never fewer rows than the factor has columns, so the
n x (P + 2) design never exists and the fold allocates nothing n-sized.
Only the small R is kept, never Q and never the normal equations.  Each
column of R is then divided by the power of two at its norm, which is
exact, so no later step depends on the data's scale.  A sub-model S of
the pool has design X_S = Q R[:, S] and response y = Q R[:, y], so it is
solved from R alone, at a cost that does not depend on n.

Sub-models are solved as a stack: the slices R[:, [0] + S + [y]] of C
sub-models with the same number of terms go to one call of numpy's
batched QR, and for each of them

* its R factor gives R_S, Q_S' y and, as the square of its corner
  entry, the residual sum of squares;
* rank test: the first column, in the spec's order, whose diagonal
  entry of R_S is below 1e-10 times the largest column norm of the
  scaled X_S is named as dependent; a design whose columns are all zero
  is "zero".

The checks that need no QR (a predictor absent from the data, an
overflowed term column, too few observations, an all-zero design) read
flags kept once per pool term, and the rank test reads the stacked
diagonals, so every rule is applied by the same code whatever the
stack's size.  Model search scores its candidates a block at a time.
:meth:`Factorization.fit` solves a stack of one, once, and from that
factor computes the coefficients, their covariance sigma^2 (X'X)^{-1}
with sigma^2 = RSS/dof, standard errors and t over the scaled R.  A
:class:`FittedModel` is the record of that solve, with every value
taken back to the data's scale; its two-sided Student t p-values are
computed on first read.

R^2 uses the response's centered total sum of squares when an intercept
is present and its uncentered one, the square of its column's norm in R,
otherwise.  The centered one comes from the moments engine of
:mod:`condreg.dataset`, which makes it exactly 0 for a constant
response.  :func:`fit` is one factorization over the model's own terms;
model search reuses one for many sub-models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import lapack_lite

from .dataset import Dataset, _moments
from .defaults import ROW_BLOCK_BYTES
from .errors import (
    AssignmentError,
    CollinearityError,
    CondregError,
    ModelError,
    SaturatedModelError,
    UnderdeterminedModelError,
    UnknownPredictorError,
)
from .stats import student_t_two_sided_p
from .terms import ModelSpec, Term

RANK_TOLERANCE = 1e-10


def _block_rows(width: int) -> int:
    """Rows per block of the fold for a factor of ``width`` columns:
    ``ROW_BLOCK_BYTES`` of design rows, and never fewer rows than columns."""
    return max(ROW_BLOCK_BYTES // (8 * width), width)


def _read_only(values, exponent=0) -> np.ndarray:
    """values * 2**exponent as a read-only array (inf or 0 out of range)."""
    with np.errstate(over="ignore", under="ignore"):
        out = np.asarray(np.ldexp(values, exponent))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FittedModel:
    """One least-squares fit, or published coefficients without data.

    A fit is solved once, by :meth:`Factorization.fit`, which fills in
    every field.  ``coef`` is ordered as the design matrix: intercept
    first when present, then the spec's terms.  At dof = 0 (an exact
    fit, or published coefficients, which have ``n = 0``) ``cov``,
    ``se``, ``t`` and ``p`` are NaN; published coefficients also have a
    NaN ``rss``.  ``p`` is computed on first read.
    """

    spec: ModelSpec
    r2: float
    n: int
    coef: np.ndarray = field(repr=False, compare=False)
    cov: np.ndarray = field(repr=False, compare=False)
    se: np.ndarray = field(repr=False, compare=False)
    t: np.ndarray = field(repr=False, compare=False)
    rss: float = field(repr=False, compare=False)

    @property
    def dof(self) -> int:
        """n - p, and 0 for published coefficients (n = 0)."""
        return max(self.n - self.spec.n_parameters, 0)

    @property
    def r2_adj(self) -> float:
        """Adjusted R^2; NaN at dof 0."""
        if self.dof == 0:
            return math.nan
        return 1.0 - (1.0 - self.r2) * (self.n - 1) / self.dof

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

        Raises AssignmentError unless there is one finite value per
        parameter.
        """
        coef = np.array(coef, dtype=float)
        p = spec.n_parameters
        if coef.shape != (p,):
            raise AssignmentError(
                f"expected {p} coefficients for this model, got {coef.size}"
            )
        if not np.isfinite(coef).all():
            raise AssignmentError(f"coefficients must be finite numbers, got {coef.tolist()}")
        nan = _read_only(np.full(p, math.nan))
        cov = _read_only(np.full((p, p), math.nan))
        return cls(spec, math.nan, 0, coef=_read_only(coef), cov=cov, se=nan, t=nan, rss=math.nan)

    @cached_property
    def p(self) -> np.ndarray:
        if not self.dof:
            return _read_only(np.full(self.t.shape, math.nan))
        return _read_only(student_t_two_sided_p(self.t, self.dof))


class Factorization:
    """One Householder QR of [intercept | pool term columns | response].

    Built once per dataset, response and term pool; any sub-model whose
    terms come from the pool is then fitted from the small R factor
    alone, at a cost that does not depend on n.  Pool terms that use a
    predictor absent from the data are left out; a sub-model that uses
    one raises UnknownPredictorError when solved.  A pool term whose
    column is not finite (it overflowed) is left out of R; a sub-model
    that uses it raises CollinearityError naming it.  ``r`` is R, and
    ``tss_*`` the response's sums of squares, with each column divided
    by the power of two at its norm.  ``pool`` keeps the terms in the
    order given: :meth:`score` takes sub-models as positions in it.

    Raises UnknownColumnError when the response is not in the data.
    """

    def __init__(self, d: Dataset, response: str, pool: Sequence[Term]):
        y = d.column(response)
        # the engine's chunk is freed before the fold's buffer is made
        _, _, squares, exponent = _moments(d, [response], constant_ok=True)
        self.pool = tuple(pool)
        terms = [t for t in self.pool if all(name in d for name in t.predictors)]
        width = len(terms) + 2
        rows = _block_rows(width)
        # [R; block] in one Fortran buffer, factored in place: R, upper
        # trapezoidal with min(rows so far, P + 2) rows, over the next
        # block's design rows.  LAPACK reads the buffer's transpose, which
        # is C-contiguous, as the column-major matrix it is.
        stack = np.empty((width + min(rows, d.n), width), order="F")
        below = np.tri(width, width, -1, dtype=bool)
        tau, work = np.empty(width), np.empty(1)
        lapack_lite.dgeqrf(len(stack), width, stack.T, len(stack), tau, work, -1, 0)
        work = np.empty(int(work[0]))
        height = 0
        overflowed: set[Term] = set()
        for start in range(0, d.n, rows):
            stop = min(start + rows, d.n)
            block = stack[height : height + stop - start]
            values = {name: d.column(name)[start:stop] for name in d.names}
            block[:, 0] = 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                for j, term in enumerate(terms, start=1):
                    block[:, j] = term.column(values)
            block[:, -1] = y[start:stop]
            # A non-finite entry would turn all of R into NaN: its term's
            # column is zeroed and no sub-model may use it.
            for j in np.flatnonzero(~np.isfinite(block).all(axis=0)):
                block[:, j] = 0.0
                overflowed.add(terms[j - 1])
            height += stop - start
            lapack_lite.dgeqrf(height, width, stack.T, len(stack), tau, work, len(work), 0)
            height = min(height, width)
            # below R's diagonal are the reflectors, not zeros
            stack[:height][below[:height]] = 0.0
        r = np.ascontiguousarray(stack[:height])
        # the scaled column norms lie in [0.5, 1), or are 0 for a zero column
        self._norms, self._exponents = np.frexp(np.hypot.reduce(r, axis=0))
        self.r = np.ldexp(r, -self._exponents)
        self.response = response
        self.n = d.n
        self.tss_centered = float(np.ldexp(squares[0], 2 * (exponent[0] - self._exponents[-1])))
        self.tss_uncentered = float(self._norms[-1]) ** 2
        # Per pool position: the term's first predictor absent from the
        # data (or None), whether its column overflowed, its column of R.
        self._absent = [next((n for n in t.predictors if n not in d), None) for t in self.pool]
        self._unknown = np.array([name is not None for name in self._absent], dtype=bool)
        self._overflowed = np.array([t in overflowed for t in self.pool], dtype=bool)
        column = {term: j for j, term in enumerate(terms, start=1)}
        self._column = np.array([column.get(t, 0) for t in self.pool], dtype=np.intp)
        self._position = {term: i for i, term in enumerate(self.pool)}

    def _columns(self, intercept: bool, candidates: np.ndarray) -> np.ndarray:
        """Each candidate's columns of R: [0] + S + [y]."""
        count = len(candidates)
        parts = [np.zeros((count, 1), np.intp)] if intercept else []
        y = np.full((count, 1), self.r.shape[1] - 1, np.intp)
        return np.hstack([*parts, self._column[candidates], y])

    def _solve(self, intercept: bool, candidates: np.ndarray, allow_saturated: bool):
        """Checks in ``fit``'s order, then one QR of the stacked slices R[:, S + [y]].

        ``candidates`` is a C x k array of positions in the pool, one row
        per sub-model of k terms.  Returns the C slices' R factors (the
        response's column last), their residual sums of squares, both
        over the scaled R, and a dict from candidate index to the
        CondregError that refuses it.
        """
        count, k = candidates.shape
        p = k + intercept
        errors: dict[int, CondregError] = {}

        def label(i: int, column: int) -> str:
            if intercept and column == 0:
                return "(intercept)"
            return self.pool[candidates[i, column - intercept]].label

        for i, j in _first(self._unknown[candidates]):
            name = self._absent[candidates[i, j]]
            errors[i] = UnknownPredictorError(f"predictor {name!r} not in dataset")
        shared = None
        if p > self.n:
            shared = UnderdeterminedModelError(
                f"model has {p} parameters but only {self.n} observations"
            )
        elif p == 0:
            shared = ModelError("model has no parameters to fit")
        elif self.n - p < 1 and not (allow_saturated and self.n == p):
            shared = SaturatedModelError(
                f"model has {p} parameters for {self.n} observations (dof={self.n - p});"
                " pass allow_saturated=True to permit an exact fit"
            )
        if shared is not None:
            for i in range(count):
                errors.setdefault(i, shared)
            return np.empty((count, 0, p + 1)), np.full(count, math.nan), errors
        for i, j in _first(self._overflowed[candidates]):
            column = label(i, j + intercept)
            errors.setdefault(i, CollinearityError("design matrix is rank deficient", column=column))
        columns = self._columns(intercept, candidates)
        largest = self._norms[columns[:, :p]].max(axis=1)
        for i in np.flatnonzero(largest == 0.0):
            errors.setdefault(i, CollinearityError("design matrix is zero", column=label(i, 0)))
        # rows of R.T are R's columns: each slice comes out in Fortran order
        r = np.linalg.qr(self.r.T[columns].swapaxes(1, 2), mode="r")
        # Written so that a NaN diagonal also fails.
        diagonal = np.abs(np.diagonal(r, axis1=1, axis2=2)[:, :p])
        for i, j in _first(~(diagonal >= RANK_TOLERANCE * largest[:, None])):
            column = label(i, j)
            errors.setdefault(i, CollinearityError("design matrix is rank deficient", column=column))
        rss = r[:, p, p] ** 2 if r.shape[1] > p else np.zeros(count)
        return r, rss, errors

    def score(self, intercept: bool, candidates: np.ndarray, allow_saturated: bool = False):
        """R^2 of a stack of sub-models, and the errors that refuse some.

        ``candidates`` is a C x k array of positions in ``pool``.  Returns
        C values of R^2 (meaningless where refused) and a dict from
        candidate index to the CondregError that refuses it.  R^2 uses
        the centered total sum of squares with an intercept and the
        uncentered one without; a constant response is explained fully
        by an exact fit and not at all otherwise.
        """
        _, rss, errors = self._solve(intercept, candidates, allow_saturated)
        return self._r2(intercept, rss), errors

    def _r2(self, intercept: bool, rss: np.ndarray) -> np.ndarray:
        """R^2 of each residual sum of squares over the scaled R; see :meth:`score`."""
        tss = self.tss_centered if intercept else self.tss_uncentered
        if tss == 0.0:  # a constant response, or with no intercept an all-zero one
            return np.where(rss <= 1e-12, 1.0, 0.0)
        r2 = 1.0 - rss / tss
        return np.clip(r2, 0.0, 1.0) if intercept else r2

    def fit(self, spec: ModelSpec, allow_saturated: bool = False) -> FittedModel:
        """A sub-model's fit, solved once from its slice of R; see :func:`fit`."""
        if spec.response != self.response:
            raise ModelError(
                f"model responds to {spec.response!r}, factorization to {self.response!r}"
            )
        candidates = np.array([[self._position[t] for t in spec.terms]], dtype=np.intp)
        r, rss, errors = self._solve(spec.intercept, candidates, allow_saturated)
        if errors:
            raise errors[0]
        r2 = float(self._r2(spec.intercept, rss)[0])
        p, r, rss = spec.n_parameters, r[0], float(rss[0])
        coef = np.linalg.solve(r[:p, :p], r[:p, p])
        cov = np.full((p, p), np.nan)
        if self.n > p:
            r_inv = np.linalg.inv(r[:p, :p])
            cov = (rss / (self.n - p)) * (r_inv @ r_inv.T)  # (X'X)^{-1} = (R'R)^{-1}
        se = np.sqrt(np.diag(cov))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = coef / se  # before scaling back, so that it is scale-free
        # back to the data's scale by the powers of two R's columns were divided by
        exponents = self._exponents[self._columns(spec.intercept, candidates)[0]]
        shift = exponents[-1] - exponents[:-1]
        return FittedModel(
            spec, r2, self.n, coef=_read_only(coef, shift), cov=_read_only(cov, shift[:, None] + shift),
            se=_read_only(se, shift), t=_read_only(t), rss=float(_read_only(rss, 2 * exponents[-1])),
        )


def _first(mask: np.ndarray):
    """(row, column) of the first True in each row of ``mask`` that has one."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return []
    return zip(rows.tolist(), mask[rows].argmax(axis=1).tolist())


def fit(d: Dataset, spec: ModelSpec, allow_saturated: bool = False) -> FittedModel:
    """Fit a model by least squares.

    Parameters
    ----------
    d : Dataset
    spec : ModelSpec
        Response and term list; the response column must exist in ``d``.
    allow_saturated : bool
        Permit dof = 0 (exact fit).  Inference (cov/se/t/p, adjusted
        R^2) is NaN in that case.

    Raises
    ------
    CollinearityError
        Rank-deficient design, or a term column that overflowed, naming
        a dependent column.
    SaturatedModelError
        dof < 1 without ``allow_saturated`` (or dof < 0 always).
    """
    return Factorization(d, spec.response, spec.terms).fit(spec, allow_saturated)


def predict(m: FittedModel, point: Mapping[str, float]) -> float:
    """Model prediction at one predictor assignment."""
    missing = [name for name in m.spec.predictors if name not in point]
    if missing:
        raise AssignmentError(f"assignment missing predictors: {missing}")
    x = {name: float(point[name]) for name in m.spec.predictors}
    value = m.intercept_value
    offset = 1 if m.spec.intercept else 0
    for i, term in enumerate(m.spec.terms):
        value += float(m.coef[offset + i]) * term.column(x)
    return value

