"""Model search: exhaustive best-subset and backward stepwise elimination.

Each search factors its data once: one :class:`~condreg.ols.Factorization`
(a Householder QR of [intercept | term pool | response]) covers every
candidate, and candidates are solved from slices of the small R factor,
so their cost does not depend on n.  Best-subset scores its candidates
a block at a time: one batched QR factors the slices of up to
``_BLOCK_CANDIDATES`` candidates, each candidate's R^2 comes from the
corner entry of its factor, and the rank test and every other check are
those of :func:`~condreg.ols.fit`, applied to the whole block.
Rank-deficient or otherwise ill-posed candidates are skipped with a
note rather than aborting the search.  The result is kept as arrays: the
ranked candidates as rows of positions in the sorted pool and their R^2,
from which adjusted R^2 and the formulas are computed a column at a
time.  No model object is built per candidate: a ranked
:class:`~condreg.ols.FittedModel` is fitted from the factorization, in
one solve, when it is first read.  Stepwise takes every round's p-values
from slices of its start model's factorization.  Advisory checks cover
the term-count rule (k < n/10), strong pairwise predictor correlations
(:func:`strong_correlations`, which also gives conditional responses
their cautions), and hierarchy violations.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset, column_scales, pearson_matrix
from .defaults import DESTABILIZATION_THRESHOLD
from .errors import (
    InsufficientDataError,
    ModelError,
    SearchError,
    UnknownColumnError,
)
from .ols import Factorization, FittedModel
from .terms import ModelSpec, Term, anchored_predictors, canonical_order, check_hierarchy, check_response_unused

MAX_CANDIDATE_FITS = 1_000_000
# Candidates factored by one numpy.linalg.qr call; bounds the stack's memory.
_BLOCK_CANDIDATES = 512


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Candidate models ranked by R^2 (ties: canonical term order).

    ``candidates`` holds the ranked candidates as a C x k array of
    positions in ``core.pool`` (the sorted term pool), and ``r2`` their
    R^2.  ``skipped`` lists each refused candidate's term labels and the
    reason.
    """

    core: Factorization
    intercept: bool
    candidates: np.ndarray
    r2: np.ndarray
    skipped: list[tuple[tuple[str, ...], str]]

    @cached_property
    def r2_adj(self) -> np.ndarray:
        """Adjusted R^2, in FittedModel.r2_adj's order of operations.

        Every ranked candidate has dof >= 1: the search allows no exact fit.
        """
        n = self.core.n
        dof = n - self.candidates.shape[1] - self.intercept
        r2_adj = 1.0 - (1.0 - self.r2) * (n - 1) / dof
        r2_adj.flags.writeable = False
        return r2_adj

    @cached_property
    def formulas(self) -> list[str]:
        """print_formula of each ranked candidate, from labels made once."""
        labels = [term.label for term in self.core.pool]
        head = f"{self.core.response} ~ " + ("" if self.intercept else "0 + ")
        return [head + " + ".join([labels[j] for j in row]) for row in self.candidates.tolist()]

    @cached_property
    def ranked(self) -> Sequence[FittedModel]:
        """The ranked candidates' fitted models, each built when first read."""
        return _RankedModels(self)

    @property
    def best(self) -> FittedModel:
        return self.ranked[0]


class _RankedModels(Sequence):
    """A SearchResult's ranked models, each built on first read and kept."""

    def __init__(self, result: SearchResult):
        self._result = result
        self._models: dict[int, FittedModel] = {}

    def __len__(self) -> int:
        return len(self._result.r2)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if i not in self._models:
            result, core = self._result, self._result.core
            terms = tuple(core.pool[j] for j in result.candidates[i].tolist())
            self._models[i] = core.fit(ModelSpec(core.response, terms, result.intercept))
        return self._models[i]


def strong_correlations(
    d: Dataset, names: Sequence[str], threshold: float
) -> list[tuple[str, str, float]]:
    """Pairs (a, b, r) of the named columns with |r| > ``threshold``.

    Pairs come in the order of ``names``; names absent from ``d`` and
    constant columns, whose r is undefined, are left out.  With n < 3
    there are none.
    """
    present = [name for name in names if name in d]
    _, constant = column_scales(d, present)
    present = [name for name, flat in zip(present, constant.tolist()) if not flat]
    if len(present) < 2:
        return []
    try:
        r = pearson_matrix(d, present).r
    except InsufficientDataError:
        return []
    return [
        (present[i], present[j], float(r[i, j]))
        for i in range(len(present))
        for j in range(i + 1, len(present))
        if abs(r[i, j]) > threshold
    ]


def advisories(
    d: Dataset,
    spec: ModelSpec,
    correlation_threshold: float = DESTABILIZATION_THRESHOLD,
) -> list[str]:
    """Rule-of-thumb warnings for a model on a dataset.

    Flags k >= n/10 (too many terms for the sample), pairwise predictor
    correlations above the destabilization threshold, and predictors in
    higher-order terms lacking a linear term.
    """
    out: list[str] = []
    k = len(spec.terms)
    if k >= d.n / 10.0:
        out.append(
            f"k-rule: {k} terms with n={d.n} violates k < n/10 (= {d.n / 10.0:g})"
        )
    for a, b, r in strong_correlations(d, spec.predictors, correlation_threshold):
        out.append(f"correlation: |r({a}, {b})| = {abs(r):.3f} exceeds {correlation_threshold:g}")
    violations = check_hierarchy(spec)
    if violations:
        out.append(
            "hierarchy: no linear term for predictor(s) "
            + ", ".join(violations)
        )
    return out


def best_subset(
    d: Dataset,
    response: str,
    pool: Sequence[Term],
    subset_size: int,
    intercept: bool = True,
) -> SearchResult:
    """Score every size-``subset_size`` combination from the term pool.

    Candidates are ranked by R^2 descending.  Rank-deficient or
    otherwise ill-posed combinations are recorded in ``skipped``.  The
    search refuses outright above 10^6 candidate fits, and, before
    anything is factored, a pool term that uses the response.
    """
    unique_pool = canonical_order(set(pool))
    if not unique_pool:
        raise SearchError("term pool is empty")
    # no candidate ModelSpec is built, so its check is made on the pool
    check_response_unused(response, unique_pool)
    if not 1 <= subset_size <= len(unique_pool):
        raise SearchError(
            f"subset size {subset_size} out of range for a pool of {len(unique_pool)}"
        )
    n_candidates = math.comb(len(unique_pool), subset_size)
    if n_candidates > MAX_CANDIDATE_FITS:
        raise SearchError(
            f"{n_candidates} candidate fits exceed the cap of {MAX_CANDIDATE_FITS}"
        )

    try:
        core = Factorization(d, response, unique_pool)
    except UnknownColumnError as exc:
        # no response column: every candidate would fail on it alike
        raise SearchError("every candidate combination was ill-posed") from exc
    labels = [term.label for term in unique_pool]
    combinations = itertools.combinations(range(len(unique_pool)), subset_size)
    kept: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    skipped: list[tuple[tuple[str, ...], str]] = []
    for _ in range(0, n_candidates, _BLOCK_CANDIDATES):
        block = np.array(list(itertools.islice(combinations, _BLOCK_CANDIDATES)), dtype=np.intp)
        r2, errors = core.score(intercept, block)
        refused = sorted(errors)
        for i in refused:
            skipped.append((tuple(labels[j] for j in block[i].tolist()), str(errors[i])))
        keep = np.ones(len(block), dtype=bool)
        keep[refused] = False
        kept.append(block[keep])
        scores.append(r2[keep])
    r2 = np.concatenate(scores)
    if not r2.size:
        raise SearchError("every candidate combination was ill-posed")
    # Candidates come in combination order of the sorted pool, so a stable
    # sort by R^2 breaks ties by term order.
    order = np.argsort(-r2, kind="stable")
    candidates, r2 = np.concatenate(kept)[order], r2[order]
    candidates.flags.writeable = r2.flags.writeable = False
    return SearchResult(core, intercept, candidates, r2, skipped)


@dataclass(frozen=True)
class StepwiseStep:
    removed: Term
    p_value: float
    spec_after: ModelSpec
    r2_after: float
    r2_adj_after: float


@dataclass(frozen=True)
class StepwiseResult:
    """Backward-elimination trace: one record per removed term."""

    start: FittedModel
    steps: list[StepwiseStep]
    final: FittedModel


def backward_stepwise(
    d: Dataset,
    start: ModelSpec,
    alpha: float = 0.05,
    protected: Sequence[Term] = (),
    enforce_hierarchy: bool = True,
) -> StepwiseResult:
    """Iteratively drop the least-significant removable term.

    Each round removes the removable term with the largest p-value above
    ``alpha`` (ties broken by the smallest |t|, then by canonical term
    order) and refits from the
    start model's factorization, so the surviving coefficients are
    recalculated after every exclusion.
    Protected terms, which must be terms of ``start``, are never dropped,
    nor is a model's last parameter
    (the last term of a model without an intercept); with
    ``enforce_hierarchy`` a linear term stays as long as any surviving
    higher-order term uses its predictor.
    """
    if not 0.0 < alpha < 1.0:
        raise ModelError(f"alpha must lie in (0, 1), got {alpha}")
    absent = [term.label for term in protected if term not in start.terms]
    if absent:
        raise ModelError(f"protected terms not in the start model: {absent}")
    protected_set = set(protected)
    core = Factorization(d, start.response, start.terms)
    start_fit = core.fit(start)
    current = start_fit
    steps: list[StepwiseStep] = []
    while True:
        candidate = _least_significant(current, alpha, protected_set, enforce_hierarchy)
        if candidate is None:
            break
        term, p_value = candidate
        next_spec = current.spec.without(term)
        current = core.fit(next_spec)
        steps.append(
            StepwiseStep(
                removed=term,
                p_value=p_value,
                spec_after=next_spec,
                r2_after=current.r2,
                r2_adj_after=current.r2_adj,
            )
        )
    return StepwiseResult(start=start_fit, steps=steps, final=current)


def _least_significant(
    model: FittedModel,
    alpha: float,
    protected: set[Term],
    enforce_hierarchy: bool,
) -> tuple[Term, float] | None:
    spec = model.spec
    if spec.n_parameters <= 1:
        return None  # never remove a model's last parameter
    anchored = anchored_predictors(spec) if enforce_hierarchy else set()
    removable = []
    for term in spec.terms:
        if term in protected:
            continue
        if term.degree == 1 and term.factors[0][0] in anchored:
            continue
        i = model.term_index(term)
        p = float(model.p[i])
        if math.isnan(p) or p <= alpha:
            continue
        # largest p; ties by smallest |t|, the same rule in exact arithmetic
        # at the model's one dof, then by term order
        removable.append(((-p, abs(float(model.t[i])), term.sort_key), term, p))
    if not removable:
        return None
    _, term, p = min(removable, key=lambda entry: entry[0])
    return term, p
