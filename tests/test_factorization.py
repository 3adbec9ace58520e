"""Property tests for the shared factorization behind fit, best_subset and
backward_stepwise, against per-candidate numpy.linalg.lstsq and
numpy.linalg.matrix_rank oracles."""

import itertools
import math
import tracemalloc
import warnings

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
from condreg.errors import CollinearityError, CondregError, SearchError
from condreg.formula import print_formula
from condreg.ols import Factorization, _block_rows
from condreg.selection import _BLOCK_CANDIDATES, advisories

NAMES = ["x1", "x2", "x3"]
# x1 and dup = 2 * x1 are an exactly collinear pair; zz is in no dataset.
POOL_TERMS = full_quadratic_terms(NAMES) + [Term.linear("dup")]
FORCED = [Term.linear("x1"), Term.linear("dup"), Term.linear("zz")]
# Five predictors: their full quadratic and the intercept and response
# make a 22-column factor, as in the large-n benchmark.
WIDE = [f"x{i}" for i in range(1, 6)]
WIDE_ROWS = _block_rows(len(full_quadratic_terms(WIDE)) + 2)


def _dataset(n, seed, names=NAMES):
    rng = np.random.default_rng(seed)
    columns = {name: rng.normal(size=n) for name in names}
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
            f"model has {p} parameters for {n} observations (dof={n - p}),"
            " so it fits the data exactly"
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
    assert (got.n, got.dof) == (want.n, want.dof)


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
        _assert_same_fit(entry, fit(d, entry.spec))

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


# b = 2a is exactly dependent on a and c nearly so; k is constant beside
# the intercept, o is all zero, h^2 overflows, and zz is in no dataset.
HOSTILE_POOL = [Term.linear(name) for name in ("a", "b", "c", "k", "o", "h", "x", "zz")] + [
    Term.power("h", 2),
    Term.cross("a", "x"),
]


@st.composite
def hostile_cases(draw):
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, x, noise = rng.normal(size=(3, n))
    columns = {
        "a": a,
        "b": 2.0 * a,
        "c": a + draw(st.sampled_from([1e-13, 1e-10, 1e-8, 1e-4])) * rng.normal(size=n),
        "k": np.full(n, 3.0),
        "o": np.zeros(n),
        "h": 1e200 * rng.normal(size=n),
        "x": x,
    }
    d = Dataset({"Y": 1.0 + a - 0.5 * x + noise, **columns})
    pool = draw(st.lists(st.sampled_from(HOSTILE_POOL), min_size=1, unique=True))
    return d, pool, draw(st.integers(1, min(3, len(pool)))), draw(st.booleans())


@given(hostile_cases())
def test_batched_search_matches_a_loop_of_fits(case):
    """Stacked candidates get the same ranking, skips and messages as
    fitting each candidate on its own."""
    d, pool, size, intercept = case
    unique_pool = sorted(set(pool), key=lambda t: t.sort_key)
    core = Factorization(d, "Y", unique_pool)
    fitted, skipped = [], []
    for combo in itertools.combinations(unique_pool, size):
        try:
            fitted.append(core.fit(ModelSpec("Y", combo, intercept=intercept)))
        except CondregError as exc:
            skipped.append((tuple(t.label for t in combo), str(exc)))
    if not fitted:
        with pytest.raises(SearchError, match="every candidate combination was ill-posed"):
            best_subset(d, "Y", pool, size, intercept=intercept)
        # the search reports no skips then: compare the stack's own
        stack = np.array(list(itertools.combinations(range(len(unique_pool)), size)))
        errors = core.score(intercept, stack)[1]
        assert [str(errors[i]) for i in range(len(stack))] == [reason for _, reason in skipped]
        return
    fitted.sort(key=lambda m: (-m.r2, tuple(t.sort_key for t in m.spec.terms)))
    result = best_subset(d, "Y", pool, size, intercept=intercept)
    assert [m.spec for m in result.ranked] == [m.spec for m in fitted]
    assert result.skipped == skipped
    for got, want in zip(result.ranked, fitted):
        assert got.r2 == pytest.approx(want.r2, rel=1e-13, abs=0.0)


def _search_shape(n=200):
    """27 full-quadratic terms of six predictors, as the search benchmark."""
    names = [f"x{i}" for i in range(1, 7)]
    rng = np.random.default_rng(2)
    d = Dataset({"Y": rng.normal(size=n), **{name: rng.normal(size=n) for name in names}})
    return d, full_quadratic_terms(names)


def test_search_factors_candidates_in_blocks(monkeypatch):
    d, pool = _search_shape()
    assert len(pool) == 27 and d.n <= _block_rows(len(pool) + 2)
    qr = np.linalg.qr
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    result = best_subset(d, "Y", pool, 3)
    candidates = math.comb(27, 3)
    assert len(result.ranked) + len(result.skipped) == candidates
    # the fold factors in place; then one call per block of candidates
    assert len(calls) == -(-candidates // _BLOCK_CANDIDATES)
    # across block boundaries the stacked scores are those of one fit at a time
    core = Factorization(d, "Y", sorted(pool, key=lambda t: t.sort_key))
    fitted = [core.fit(ModelSpec("Y", combo)) for combo in itertools.combinations(core.pool, 3)]
    fitted.sort(key=lambda m: -m.r2)
    assert result.r2.tolist() == [m.r2 for m in fitted]
    assert result.formulas == [print_formula(m.spec) for m in fitted]
    assert all(result.ranked[i].r2 == result.r2[i] for i in range(len(result.r2)))


def test_fit_solves_its_slice_once(monkeypatch):
    """After the fold, a fit and every read of its values make one QR."""
    d = _dataset(40, 0)
    spec = ModelSpec("Y", tuple(full_quadratic_terms(NAMES)))
    core = Factorization(d, "Y", spec.terms)
    qr = np.linalg.qr
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    m = core.fit(spec)
    for name in ("coef", "cov", "se", "t", "p", "rss"):
        getattr(m, name)
    assert calls == [(1, len(spec.terms) + 2, len(spec.terms) + 2)]


def _transient_peak(d, pool, size):
    """Bytes the search allocates above what its result keeps."""
    best_subset(d, "Y", pool, size)
    tracemalloc.start()
    try:
        result = best_subset(d, "Y", pool, size)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ranked
    return peak - current


def test_search_memory_does_not_grow_with_candidates():
    """From k = 2 (351 candidates, one block) to k = 3 (2,925, six blocks)
    the peak above the result grows with the largest stack only, not
    with the number of candidates."""
    d, pool = _search_shape()
    pair, triple = _transient_peak(d, pool, 2), _transient_peak(d, pool, 3)
    # the largest stack: 351 slices of 4 columns, then 512 slices of 5
    assert triple / (_BLOCK_CANDIDATES * 5) < 1.5 * pair / (351 * 4)
    # one copy of every k = 3 slice at once
    assert triple < math.comb(27, 3) * (len(pool) + 2) * (3 + 2) * 8


@given(stepwise_cases())
def test_stepwise_steps_match_fresh_fits(case):
    d, start, alpha, hierarchy = case
    result = backward_stepwise(d, start, alpha=alpha, enforce_hierarchy=hierarchy)
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


QUAD = ModelSpec("Y", tuple(full_quadratic_terms(["x1", "x2"])))


def _quad_fit(d, y_factor=1.0, x1_factor=1.0, scale=np.multiply):
    """``QUAD`` fitted with the response and x1 rescaled by ``scale``."""
    y, x1 = scale(d.column("Y"), y_factor), scale(d.column("x1"), x1_factor)
    return fit(Dataset({"Y": y, "x1": x1, "x2": d.column("x2")}), QUAD)


@given(st.integers(8, 40), st.integers(0, 2**32 - 1), st.integers(-900, 900), st.integers(-300, 300))
def test_power_of_two_scaling_leaves_inference_bit_identical(n, seed, k, m):
    """R is scaled column by column by powers of two, which is exact, so
    y * 2^k and x1 * 2^m give the very same t, p and R^2."""
    d = _dataset(n, seed)
    base = _quad_fit(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = _quad_fit(d, k, m, scale=np.ldexp)
        np.testing.assert_array_equal(scaled.t, base.t)
        np.testing.assert_array_equal(scaled.p, base.p)
    assert (scaled.r2, scaled.r2_adj) == (base.r2, base.r2_adj)


@given(
    st.integers(20, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e150, 1e-150]),
    st.sampled_from([1.0, 1e150, 1e-150]),
)
def test_scaling_by_powers_of_ten_leaves_inference_unchanged(n, seed, y_factor, x1_factor):
    """Whose squares leave the double range, at the rounding of the
    rescaled data alone."""
    d = _dataset(n, seed)
    base = _quad_fit(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = _quad_fit(d, y_factor, x1_factor)
        np.testing.assert_allclose(scaled.t, base.t, rtol=1e-12)
        np.testing.assert_allclose(scaled.p, base.p, rtol=1e-12)
    assert scaled.r2 == pytest.approx(base.r2, rel=1e-12)
    assert scaled.r2_adj == pytest.approx(base.r2_adj, rel=1e-12)


@pytest.mark.parametrize("n", [WIDE_ROWS - 1, WIDE_ROWS, WIDE_ROWS + 1, 2 * WIDE_ROWS + 17])
def test_fold_over_row_blocks_matches_lstsq(n):
    """R is built block by block; around and past a block's end the fits
    still match lstsq and the explicit (X'X)^{-1}."""
    d = _dataset(n, seed=n, names=WIDE)
    pool = full_quadratic_terms(WIDE)
    spec = ModelSpec("Y", tuple(pool))
    X, y = _design(d, spec), d.column("Y")
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ coef
    rss = resid @ resid
    se = np.sqrt(rss / (n - X.shape[1]) * np.diag(np.linalg.inv(X.T @ X)))
    m = fit(d, spec)
    np.testing.assert_allclose(m.coef, coef, rtol=1e-10)
    np.testing.assert_allclose(m.se, se, rtol=1e-10)
    assert m.rss == pytest.approx(rss, rel=1e-10)

    result = best_subset(d, "Y", pool, 2)
    assert len(result.ranked) == len(list(itertools.combinations(pool, 2)))
    for entry in result.ranked:
        assert entry.r2 == pytest.approx(_oracle(d, entry.spec)[1], abs=1e-12)


def test_fold_within_one_block_is_numpy_qr():
    """The fold factors its buffer in place with LAPACK; within one block
    its R is numpy.linalg.qr's, bit for bit, before the power-of-two scaling."""
    d = _dataset(500, seed=3, names=WIDE)
    spec = ModelSpec("Y", tuple(full_quadratic_terms(WIDE)))
    core = Factorization(d, "Y", spec.terms)
    r = np.linalg.qr(np.column_stack([_design(d, spec), d.column("Y")]), mode="r")
    assert np.array_equal(core.r, np.ldexp(r, -np.frexp(np.hypot.reduce(r, axis=0))[1]))


@pytest.mark.parametrize("where", ["first", "last"])
def test_overflow_in_any_block_refuses_the_term(where):
    """A term whose column overflows in one row is refused alike whether
    that row is in the first block or the last; the other sub-models of
    the same factorization still match lstsq."""
    n = 2 * WIDE_ROWS + 17
    d = _dataset(n, seed=11, names=WIDE)
    big = np.random.default_rng(12).uniform(1.0, 2.0, n)
    big[5 if where == "first" else n - 3] = 1e200
    d = Dataset({**{name: d.column(name) for name in d.names}, "big": big})
    linear = [Term.linear(name) for name in WIDE]
    pool = full_quadratic_terms(WIDE) + [Term.linear("big"), Term.power("big", 2)]
    core = Factorization(d, "Y", pool)
    with pytest.raises(CollinearityError) as err:
        core.fit(ModelSpec("Y", (*linear, Term.power("big", 2))))
    assert err.value.column == "big^2"
    assert str(err.value) == "design matrix is rank deficient (dependent column: big^2)"
    for terms in (tuple(linear), tuple(full_quadratic_terms(WIDE)), (linear[0], Term.cross("x2", "x3"))):
        spec = ModelSpec("Y", terms)
        oracle = np.linalg.lstsq(_design(d, spec), d.column("Y"), rcond=None)[0]
        coef = core.fit(spec).coef
        assert np.abs(coef - oracle).max() <= 1e-10 * np.abs(oracle).max()


def _fold_peak(n):
    """Bytes the fold allocates, above its inputs, on n rows of six columns."""
    rng = np.random.default_rng(5)
    d = Dataset({"Y": rng.normal(size=n), **{name: rng.normal(size=n) for name in WIDE}})
    tracemalloc.start()
    try:
        Factorization(d, "Y", full_quadratic_terms(WIDE))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_factorization_never_holds_the_design():
    """Design rows are built a block at a time into one reused buffer,
    and the response's sums of squares are taken over the same blocks:
    from 20 blocks to 80 the peak grows by less than one n-vector."""
    small, large = 20 * WIDE_ROWS, 80 * WIDE_ROWS
    growth = _fold_peak(large) - _fold_peak(small)
    assert growth < (large - small) * 8
    assert _fold_peak(small) < small * 22 * 8 / 3


def test_advisories_never_stack_the_predictors():
    """The predictor correlations behind the advisories are accumulated
    over row chunks: on 100,000 rows of five predictors the peak stays
    below a quarter of the 4 MB that stacking their columns takes."""
    n = 100_000
    rng = np.random.default_rng(6)
    d = Dataset({"Y": rng.normal(size=n), **{name: rng.normal(size=n) for name in WIDE}})
    spec = ModelSpec("Y", tuple(Term.linear(name) for name in WIDE))
    tracemalloc.start()
    try:
        advisories(d, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 5 * 8 / 4
