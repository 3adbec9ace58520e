"""Model search: exhaustive best-subset and backward stepwise elimination.

Each search factors its data once: one :class:`~condreg.ols.Factorization`
(a Householder QR of [intercept | term pool | response]) covers every
candidate, and a candidate is solved from its slice of the small R
factor, so its cost does not depend on n.  The slice gets the same
pivoted rank test as :func:`~condreg.ols.fit`; rank-deficient or
otherwise ill-posed candidates are skipped with a note rather than
aborting the search.  Best-subset ranks candidates by R^2 alone and
computes a ranked model's coefficients and inference
(:attr:`RankedModel.fitted`) only when first asked for.  Stepwise takes
every round's p-values from slices of its start model's factorization.
Advisory checks cover the term-count rule (k < n/10), strong pairwise
predictor correlations, and hierarchy violations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .dataset import Dataset, pearson_matrix
from .errors import CondregError, ModelError, SearchError, UnknownColumnError
from .ols import Factorization, FittedModel
from .relations import DESTABILIZATION_THRESHOLD
from .terms import ModelSpec, Term, check_hierarchy

MAX_CANDIDATE_FITS = 1_000_000


@dataclass(frozen=True)
class RankedModel:
    """One scored candidate; ``fitted`` is solved on first access."""

    spec: ModelSpec
    r2: float
    r2_adj: float
    factorization: Factorization = field(repr=False, compare=False)

    @cached_property
    def fitted(self) -> FittedModel:
        return self.factorization.fit(self.spec)


@dataclass(frozen=True)
class SearchResult:
    """Candidate models ranked by R^2 (ties: fewer terms, then term order)."""

    ranked: list[RankedModel]
    warnings: list[str]
    skipped: list[tuple[tuple[str, ...], str]]

    @property
    def best(self) -> RankedModel:
        return self.ranked[0]


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
    names = [name for name in spec.predictors if name in d]
    if len(names) >= 2:
        corr = pearson_matrix(d, names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                r = float(corr.r[i, j])
                if abs(r) > correlation_threshold:
                    out.append(
                        f"correlation: |r({names[i]}, {names[j]})| = {abs(r):.3f}"
                        f" exceeds {correlation_threshold:g}"
                    )
    violations = check_hierarchy(spec)
    if violations:
        out.append(
            "hierarchy: no linear term for predictor(s) "
            + ", ".join(violations)
        )
    return out


def _ranking_key(entry: RankedModel):
    return (
        -entry.r2,
        len(entry.spec.terms),
        tuple(t.sort_key for t in entry.spec.terms),
    )


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
    search refuses outright above 10^6 candidate fits.
    """
    unique_pool = sorted(set(pool), key=lambda t: t.sort_key)
    if not unique_pool:
        raise SearchError("term pool is empty")
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
    ranked: list[RankedModel] = []
    skipped: list[tuple[tuple[str, ...], str]] = []
    for combo in itertools.combinations(unique_pool, subset_size):
        spec = ModelSpec(response=response, terms=combo, intercept=intercept)
        try:
            r2, r2_adj = core.score(spec)
        except CondregError as exc:
            skipped.append((tuple(t.label for t in combo), str(exc)))
            continue
        ranked.append(RankedModel(spec=spec, r2=r2, r2_adj=r2_adj, factorization=core))
    if not ranked:
        raise SearchError("every candidate combination was ill-posed")
    ranked.sort(key=_ranking_key)
    return SearchResult(
        ranked=ranked,
        warnings=advisories(d, ranked[0].spec),
        skipped=skipped,
    )


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
    warnings: list[str]


def backward_stepwise(
    d: Dataset,
    response: str,
    start: ModelSpec,
    alpha: float = 0.05,
    protected: Sequence[Term] = (),
    enforce_hierarchy: bool = True,
) -> StepwiseResult:
    """Iteratively drop the least-significant removable term.

    Each round removes the removable term with the largest p-value above
    ``alpha`` (ties broken by canonical term order) and refits from the
    start model's factorization, so the surviving coefficients are
    recalculated after every exclusion.
    Protected terms are never dropped; with ``enforce_hierarchy`` a
    linear term stays as long as any surviving higher-order term uses
    its predictor.
    """
    if not 0.0 < alpha < 1.0:
        raise ModelError(f"alpha must lie in (0, 1), got {alpha}")
    if start.response != response:
        raise ModelError(
            f"start model responds to {start.response!r}, expected {response!r}"
        )
    protected_set = set(protected)
    core = Factorization(d, response, start.terms)
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
    return StepwiseResult(
        start=start_fit,
        steps=steps,
        final=current,
        warnings=advisories(d, current.spec),
    )


def _least_significant(
    model: FittedModel,
    alpha: float,
    protected: set[Term],
    enforce_hierarchy: bool,
) -> tuple[Term, float] | None:
    spec = model.spec
    anchored: set[str] = set()
    if enforce_hierarchy:
        for term in spec.terms:
            if term.degree >= 2:
                anchored.update(term.predictors)
    best: tuple[Term, float] | None = None
    for term in spec.terms:
        if term in protected:
            continue
        if (
            enforce_hierarchy
            and term.degree == 1
            and term.factors[0][0] in anchored
        ):
            continue
        p = float(model.p[model.term_index(term)])
        if math.isnan(p) or p <= alpha:
            continue
        if best is None or p > best[1] or (
            p == best[1] and term.sort_key < best[0].sort_key
        ):
            best = (term, p)
    return best
