"""Property tests for the shared factorization behind fit, best_subset and
backward_stepwise, against per-candidate numpy.linalg.lstsq and
numpy.linalg.matrix_rank oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condreg import (
    Dataset,
    ModelSpec,
    Term,
    backward_stepwise,
    best_subset,
    fit,
    full_quadratic_terms,
)
from condreg.errors import SearchError

NAMES = ["x1", "x2", "x3"]
# x1 and dup = 2 * x1 are an exactly collinear pair; zz is in no dataset.
POOL_TERMS = full_quadratic_terms(NAMES) + [Term.linear("dup")]
FORCED = [Term.linear("x1"), Term.linear("dup"), Term.linear("zz")]


def _dataset(n, seed):
    rng = np.random.default_rng(seed)
    columns = {name: rng.normal(size=n) for name in NAMES}
    columns["dup"] = 2.0 * columns["x1"]
    y = 0.5 + columns["x1"] - columns["x2"] * columns["x3"] + rng.normal(size=n)
    return Dataset({"Y": y, **columns})


@st.composite
def search_cases(draw):
    # n as low as 3 makes most pools wider than the data
    d = _dataset(draw(st.integers(3, 16)), draw(st.integers(0, 2**32 - 1)))
    drawn = draw(st.lists(st.sampled_from(POOL_TERMS), max_size=len(POOL_TERMS), unique=True))
    return d, drawn + FORCED, draw(st.integers(1, 3)), draw(st.booleans())


@st.composite
def stepwise_cases(draw):
    d = _dataset(draw(st.integers(12, 40)), draw(st.integers(0, 2**32 - 1)))
    terms = draw(
        st.lists(st.sampled_from(full_quadratic_terms(NAMES)), min_size=1, unique=True)
    )
    alpha = draw(st.sampled_from([0.05, 0.3, 0.8]))
    return d, ModelSpec("Y", tuple(terms)), alpha, draw(st.booleans())


def _design(d, spec):
    columns = [np.ones(d.n)] if spec.intercept else []
    for term in spec.terms:
        columns.append(np.prod([d.column(name) ** k for name, k in term.factors], axis=0))
    return np.column_stack(columns)


def _labels(spec):
    return (["(intercept)"] if spec.intercept else []) + [t.label for t in spec.terms]


def _oracle(d, spec):
    """('ranked', r2, r2_adj) or ('skipped', reason, nameable dependent columns)."""
    for name in spec.predictors:
        if name not in d:
            return "skipped", f"predictor {name!r} not in dataset", None
    n, p = d.n, spec.n_parameters
    if p > n:
        return "skipped", f"model has {p} parameters but only {n} observations", None
    if n - p < 1:
        reason = (
            f"model has {p} parameters for {n} observations (dof={n - p});"
            " pass allow_saturated=True to permit an exact fit"
        )
        return "skipped", reason, None
    X = _design(d, spec)
    rank = np.linalg.matrix_rank(X)
    if rank < p:
        # any column whose removal keeps the rank depends on the others
        labels = _labels(spec)
        dependent = {
            labels[j] for j in range(p) if np.linalg.matrix_rank(np.delete(X, j, axis=1)) == rank
        }
        return "skipped", "design matrix is rank deficient", dependent
    y = d.column("Y")
    resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    tss = ((y - y.mean()) ** 2).sum() if spec.intercept else (y**2).sum()
    r2 = 1.0 - resid @ resid / tss
    if spec.intercept:
        r2 = min(1.0, max(0.0, r2))
    return "ranked", r2, 1.0 - (1.0 - r2) * (n - 1) / (n - p)


def _assert_same_fit(got, want):
    scale = np.max(np.abs(want.coef))
    np.testing.assert_allclose(got.coef, want.coef, rtol=1e-10, atol=1e-14 * scale)
    np.testing.assert_allclose(got.se, want.se, rtol=1e-10)
    np.testing.assert_allclose(got.p, want.p, rtol=1e-10, atol=1e-300)
    np.testing.assert_allclose(got.cov, want.cov, rtol=1e-10, atol=1e-14 * np.max(np.abs(want.cov)))
    assert got.r2 == pytest.approx(want.r2, abs=1e-12)
    assert got.rss == pytest.approx(want.rss, rel=1e-10, abs=1e-12)
    assert (got.n, got.dof, got.data_fingerprint) == (want.n, want.dof, want.data_fingerprint)


@given(search_cases())
def test_best_subset_matches_lstsq_oracle(case):
    d, pool, size, intercept = case
    unique_pool = sorted(set(pool), key=lambda t: t.sort_key)
    expected = {}
    for combo in itertools.combinations(unique_pool, size):
        expected[combo] = _oracle(d, ModelSpec("Y", combo, intercept=intercept))
    if all(kind == "skipped" for kind, _, _ in expected.values()):
        with pytest.raises(SearchError, match="every candidate combination was ill-posed"):
            best_subset(d, "Y", pool, size, intercept=intercept)
        return
    result = best_subset(d, "Y", pool, size, intercept=intercept)

    ranked = {entry.spec.terms: entry for entry in result.ranked}
    assert set(ranked) == {c for c, (kind, _, _) in expected.items() if kind == "ranked"}
    oracle_r2 = [expected[entry.spec.terms][1] for entry in result.ranked]
    assert all(a >= b - 1e-12 for a, b in zip(oracle_r2, oracle_r2[1:]))
    for terms, entry in ranked.items():
        _, r2, r2_adj = expected[terms]
        assert entry.r2 == pytest.approx(r2, abs=1e-12)
        assert entry.r2_adj == pytest.approx(r2_adj, abs=1e-12 * d.n)
        _assert_same_fit(entry.fitted, fit(d, entry.spec))

    skipped = [(c, e) for c, e in expected.items() if e[0] == "skipped"]
    assert [labels for labels, _ in result.skipped] == [
        tuple(t.label for t in combo) for combo, _ in skipped
    ]
    for (_, got), (_, (_, reason, dependent)) in zip(result.skipped, skipped):
        if dependent is None:
            assert got == reason
        else:
            prefix = f"{reason} (dependent column: "
            assert got.startswith(prefix) and got.endswith(")")
            assert got[len(prefix):-1] in dependent


@given(stepwise_cases())
def test_stepwise_steps_match_fresh_fits(case):
    d, start, alpha, hierarchy = case
    result = backward_stepwise(d, "Y", start, alpha=alpha, enforce_hierarchy=hierarchy)
    _assert_same_fit(result.start, fit(d, start))
    spec = start
    for step in result.steps:
        before = fit(d, spec)
        assert step.p_value == pytest.approx(
            float(before.p[before.term_index(step.removed)]), rel=1e-10
        )
        spec = step.spec_after
        after = fit(d, spec)
        assert step.r2_after == pytest.approx(after.r2, abs=1e-12)
    assert result.final.spec == spec
    _assert_same_fit(result.final, fit(d, spec))
