import numpy as np
import pytest

from condreg import (
    Dataset,
    correlation_p_value,
    ModelSpec,
    Term,
    advisories,
    backward_stepwise,
    best_subset,
    fit,
    full_quadratic_terms,
    pearson_matrix,
)
from condreg import dataset, parse_terms, print_formula, selection
from condreg.errors import ResponseTermError, SearchError
from condreg.ols import Factorization
from condreg.selection import MAX_CANDIDATE_FITS, strong_correlations
from conftest import random_dataset


def _signal_dataset(seed=5):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=40)
    v = rng.normal(size=40)
    w = rng.normal(size=40)
    y = 3.0 * u - 2.0 * v + 0.3 * rng.normal(size=40)
    return Dataset({"Y": y, "u": u, "v": v, "w": w})


class TestBestSubset:
    def test_singleton_pool(self):
        d = _signal_dataset()
        result = best_subset(d, "Y", [Term.linear("u")], 1)
        assert len(result.ranked) == 1
        assert [t.label for t in result.best.spec.terms] == ["u"]

    def test_recovers_true_pair(self):
        # oracle: exhaustive R^2 over all three pairs via direct lstsq
        d = _signal_dataset()
        pool = [Term.linear(n) for n in ("u", "v", "w")]
        result = best_subset(d, "Y", pool, 2)
        assert len(result.ranked) == 3
        y = d.column("Y")
        tss = ((y - y.mean()) ** 2).sum()
        oracle = {}
        for pair in (("u", "v"), ("u", "w"), ("v", "w")):
            X = np.column_stack([np.ones(40)] + [d.column(n) for n in pair])
            rss = ((y - X @ np.linalg.lstsq(X, y, rcond=None)[0]) ** 2).sum()
            oracle[pair] = 1.0 - rss / tss
        best_pair = max(oracle, key=oracle.get)
        assert tuple(t.label for t in result.best.spec.terms) == best_pair
        assert best_pair == ("u", "v")
        assert result.best.r2 == pytest.approx(oracle[best_pair], rel=1e-10)

    def test_top_pair_can_beat_marginal_correlations(self):
        # suppressor pattern: the winning pair includes a predictor whose
        # own correlation with the response is tiny
        rng = np.random.default_rng(13)
        u = rng.normal(size=60)
        v = rng.normal(size=60)
        y = u + 0.05 * rng.normal(size=60)
        x1 = u + v
        x2 = v
        x3 = 0.5 * y + 1.2 * rng.normal(size=60)
        d = Dataset({"Y": y, "x1": x1, "x2": x2, "x3": x3})
        marginal = {
            name: abs(np.corrcoef(y, d.column(name))[0, 1])
            for name in ("x1", "x2", "x3")
        }
        assert marginal["x2"] == min(marginal.values())
        result = best_subset(d, "Y", [Term.linear(n) for n in ("x1", "x2", "x3")], 2)
        assert {t.label for t in result.best.spec.terms} == {"x1", "x2"}

    def test_ranking_independent_of_pool_order(self):
        d = _signal_dataset()
        pool = [Term.linear(n) for n in ("u", "v", "w")]
        forward = best_subset(d, "Y", pool, 2)
        backward = best_subset(d, "Y", pool[::-1], 2)
        assert [
            tuple(t.label for t in entry.spec.terms) for entry in forward.ranked
        ] == [tuple(t.label for t in entry.spec.terms) for entry in backward.ranked]

    def test_skipped_combinations_recorded(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        d = Dataset({"Y": rng.normal(size=20), "a": x, "b": 2.0 * x, "c": rng.normal(size=20)})
        pool = [Term.linear(n) for n in ("a", "b", "c")]
        result = best_subset(d, "Y", pool, 2)
        assert len(result.ranked) == 2
        assert len(result.skipped) == 1
        assert set(result.skipped[0][0]) == {"a", "b"}

    def test_overflowed_term_is_skipped_without_spoiling_the_others(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=30)
        d = Dataset(
            {"Y": 1.0 + b + 0.1 * rng.normal(size=30), "a": 1e200 * rng.normal(size=30), "b": b, "c": rng.normal(size=30)}
        )
        pool = [Term.linear("a"), Term.linear("b"), Term.linear("c"), Term.power("a", 2)]
        result = best_subset(d, "Y", pool, 1)
        best = result.ranked[0]
        assert best.spec.terms == (Term.linear("b"),)
        assert best.r2 > 0.9
        assert best.r2 == pytest.approx(fit(d, best.spec).r2, abs=1e-12)
        assert (("a^2",), "design matrix is rank deficient (dependent column: a^2)") in result.skipped

    def test_badly_scaled_term_is_ranked(self):
        """The rank rule looks at each column at its own scale: a ~ 1e200
        is no multiple of the intercept, and only the overflowed a^2 goes."""
        rng = np.random.default_rng(8)
        a, b, c = rng.normal(size=(3, 30))
        y = 1.0 + b + 0.1 * rng.normal(size=30) + 0.05 * a
        d = Dataset({"Y": y, "a": 1e200 * a, "b": b, "c": c})
        pool = [Term.linear("a"), Term.linear("b"), Term.linear("c"), Term.power("a", 2)]
        result = best_subset(d, "Y", pool, 1)
        assert result.skipped == [(("a^2",), "design matrix is rank deficient (dependent column: a^2)")]
        ranked = {entry.spec.terms: entry.r2 for entry in result.ranked}
        unit = fit(Dataset({"Y": y, "a": a}), ModelSpec("Y", (Term.linear("a"),)))
        assert ranked[(Term.linear("a"),)] == pytest.approx(unit.r2, rel=1e-12)

    def test_all_skipped_is_an_error(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=20)
        d = Dataset({"Y": rng.normal(size=20), "a": x, "b": 2.0 * x})
        with pytest.raises(SearchError):
            best_subset(d, "Y", [Term.linear("a"), Term.linear("b")], 2)

    def test_missing_response_is_a_search_error(self):
        d = _signal_dataset()
        with pytest.raises(SearchError, match="every candidate combination was ill-posed"):
            best_subset(d, "Q", [Term.linear("u"), Term.linear("v")], 1)

    def test_candidate_cap(self):
        d = _signal_dataset()
        pool = [Term.linear(f"g{i}") for i in range(60)]
        with pytest.raises(SearchError) as err:
            best_subset(d, "Y", pool, 30)
        assert str(MAX_CANDIDATE_FITS) in str(err.value)

    def test_bad_sizes(self):
        d = _signal_dataset()
        with pytest.raises(SearchError):
            best_subset(d, "Y", [], 1)
        with pytest.raises(SearchError):
            best_subset(d, "Y", [Term.linear("u")], 2)

    @pytest.mark.parametrize("intercept", [True, False])
    def test_arrays_match_the_ranked_models_bit_for_bit(self, intercept):
        rng = np.random.default_rng(17)
        d = random_dataset(rng, 30, 4)
        pool = [Term.linear("x1"), Term.cross("x1", "x2"), Term.linear("x3"), Term.power("x4", 2),
                Term.linear("x2"), Term.linear("zz")]
        result = best_subset(d, "Y", pool, 3, intercept=intercept)
        models = list(result.ranked)
        assert result.r2.tolist() == [m.r2 for m in models]
        assert result.r2_adj.tolist() == [m.r2_adj for m in models]
        assert result.formulas == [print_formula(m.spec) for m in models]
        assert result.candidates.shape == (len(models), 3)
        assert result.best is result.ranked[0] is result.ranked[-len(models)]
        assert result.ranked[1:3] == models[1:3]

    @pytest.mark.parametrize("pool", [["u", "Y"], ["u", "u:Y"], ["Y^2", "v"]])
    def test_pool_term_using_the_response_is_refused_before_factoring(self, monkeypatch, pool):
        def no_factoring(*args):
            raise AssertionError("factored a pool that uses the response")

        monkeypatch.setattr(selection, "Factorization", no_factoring)
        with pytest.raises(ResponseTermError, match="uses the response 'Y'"):
            best_subset(_signal_dataset(), "Y", parse_terms(",".join(pool)), 1)


class TestBackwardStepwise:
    def test_all_significant_is_a_noop(self):
        d = _signal_dataset()
        start = ModelSpec("Y", (Term.linear("u"), Term.linear("v")))
        result = backward_stepwise(d, start, alpha=0.05)
        assert result.steps == []
        assert result.final.spec == start

    def test_recovers_planted_terms(self):
        hits = 0
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            x1 = rng.normal(size=80)
            x2 = rng.normal(size=80)
            y = 2.0 * x1 + 1.5 * x1 * x2 + 0.5 * rng.normal(size=80)
            d = Dataset({"Y": y, "x1": x1, "x2": x2})
            start = ModelSpec("Y", tuple(full_quadratic_terms(["x1", "x2"])))
            result = backward_stepwise(d, start, alpha=0.05)
            survivors = {t.label for t in result.final.spec.terms}
            if {"x1", "x1:x2"} <= survivors:
                hits += 1
        assert hits >= 7

    def test_trace_is_monotone_and_recalculated(self):
        rng = np.random.default_rng(77)
        d = random_dataset(rng, 60, 3, noise=5.0)
        start = ModelSpec("Y", tuple(full_quadratic_terms(["x1", "x2", "x3"])))
        result = backward_stepwise(d, start, alpha=0.05, enforce_hierarchy=False)
        counts = [len(start.terms)] + [len(s.spec_after.terms) for s in result.steps]
        assert all(a - 1 == b for a, b in zip(counts, counts[1:]))
        for step in result.steps:
            assert step.p_value > 0.05
        # refit of the final spec reproduces the recorded model exactly
        refit = fit(d, result.final.spec)
        np.testing.assert_allclose(refit.coef, result.final.coef, rtol=1e-12)

    def test_each_removal_was_least_significant(self):
        rng = np.random.default_rng(90)
        d = random_dataset(rng, 50, 3, noise=8.0)
        start = ModelSpec(
            "Y",
            (
                Term.linear("x1"),
                Term.linear("x2"),
                Term.linear("x3"),
                Term.cross("x1", "x2"),
            ),
        )
        result = backward_stepwise(d, start, alpha=0.5, enforce_hierarchy=False)
        spec = start
        for step in result.steps:
            stage = fit(d, spec)
            removable_ps = {
                t.label: float(stage.p[stage.term_index(t)]) for t in spec.terms
            }
            worst = max(removable_ps.values())
            assert removable_ps[step.removed.label] == pytest.approx(worst)
            spec = step.spec_after

    def test_null_terms_leave_in_order_of_smallest_t(self):
        """Noise orthogonal to the whole design leaves every null term with
        |t| near 1e-14 and p within 1e-13 of 1: the term dropped is the one
        with the largest p and, among equal p, the smallest |t|."""
        rng = np.random.default_rng(61)
        n = 400
        x1, x2, x3 = rng.uniform(-1.0, 1.0, size=(3, n))
        x = {"x1": x1, "x2": x2, "x3": x3}
        start = ModelSpec("Y", tuple(full_quadratic_terms(x)))
        full = np.column_stack([np.ones(n)] + [t.column(x) for t in start.terms])
        noise = rng.normal(size=n)
        noise -= full @ np.linalg.lstsq(full, noise, rcond=None)[0]
        d = Dataset({**x, "Y": 1.0 + x1 - x2 * x3 + noise})
        result = backward_stepwise(d, start, alpha=0.05, enforce_hierarchy=False)
        assert {t.label for t in result.final.spec.terms} == {"x1", "x2:x3"}
        # |t| this small is rounding noise: read it from the search's own
        # factorization, as a fresh fit's R would give other noise
        core = Factorization(d, "Y", start.terms)
        spec = start
        for step in result.steps:
            stage = core.fit(spec)
            index = {t: stage.term_index(t) for t in spec.terms}
            assert step.removed == min(
                spec.terms, key=lambda t: (-stage.p[index[t]], abs(stage.t[index[t]]))
            )
            assert step.p_value < 1.0
            spec = step.spec_after

    def test_hierarchy_keeps_linear_terms_under_live_cross(self):
        rng = np.random.default_rng(21)
        x1 = rng.normal(size=100)
        x2 = rng.normal(size=100)
        # strong interaction, weak mains: the bare linear terms are
        # insignificant but protected while the cross term survives
        y = 3.0 * x1 * x2 + 0.5 * rng.normal(size=100)
        d = Dataset({"Y": y, "x1": x1, "x2": x2})
        start = ModelSpec(
            "Y", (Term.linear("x1"), Term.linear("x2"), Term.cross("x1", "x2"))
        )
        kept = backward_stepwise(d, start, alpha=0.05, enforce_hierarchy=True)
        labels = {t.label for t in kept.final.spec.terms}
        assert {"x1", "x2", "x1:x2"} <= labels
        loose = backward_stepwise(d, start, alpha=0.05, enforce_hierarchy=False)
        assert {t.label for t in loose.final.spec.terms} == {"x1:x2"}

    def test_protected_terms_survive(self):
        rng = np.random.default_rng(30)
        d = random_dataset(rng, 50, 2, noise=50.0)
        start = ModelSpec("Y", (Term.linear("x1"), Term.linear("x2")))
        result = backward_stepwise(d, start, alpha=0.05, protected=[Term.linear("x2")])
        assert Term.linear("x2") in result.final.spec.terms

    def test_alpha_extremes(self):
        rng = np.random.default_rng(44)
        # pure noise response: nothing is significant
        d = Dataset(
            {
                "Y": rng.normal(size=50),
                "x1": rng.normal(size=50),
                "x2": rng.normal(size=50),
            }
        )
        start = ModelSpec("Y", (Term.linear("x1"), Term.linear("x2")))
        # near-zero alpha treats everything as removable
        stripped = backward_stepwise(d, start, alpha=1e-9)
        assert stripped.final.spec.terms == ()
        # alpha near 1 removes only wholly uninformative terms
        kept = backward_stepwise(d, start, alpha=0.999999)
        assert len(kept.final.spec.terms) == 2

    def test_keeps_the_last_term_without_an_intercept(self):
        rng = np.random.default_rng(45)
        d = Dataset({name: rng.normal(size=40) for name in ("Y", "x1", "x2", "x3")})
        terms = tuple(Term.linear(name) for name in ("x1", "x2", "x3"))
        start = ModelSpec("Y", terms, intercept=False)
        result = backward_stepwise(d, start, alpha=1e-9)
        assert len(result.final.spec.terms) == 1
        assert not result.final.spec.intercept
        # the removals before the last term are the usual least-significant ones
        spec = start
        for step in result.steps:
            stage = fit(d, spec)
            worst = max(spec.terms, key=lambda t: stage.p[stage.term_index(t)])
            assert step.removed == worst
            spec = step.spec_after
        assert len(result.steps) == 2
        assert result.final.spec == spec


class TestStrongCorrelations:
    @staticmethod
    def _correlated(n=30, seed=13):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        return {"a": a, "b": a + 0.3 * rng.normal(size=n), "c": a + 0.4 * rng.normal(size=n)}

    def test_pairs_come_in_the_order_of_names(self):
        d = Dataset(self._correlated())
        r = pearson_matrix(d, ["c", "a", "b"]).r
        assert strong_correlations(d, ["c", "a", "b"], 0.5) == [
            ("c", "a", r[0, 1]), ("c", "b", r[0, 2]), ("a", "b", r[1, 2])
        ]

    def test_a_pair_at_the_threshold_is_not_strong(self):
        d = Dataset(self._correlated())
        r = float(pearson_matrix(d, ["a", "b"]).r[0, 1])
        assert strong_correlations(d, ["a", "b"], abs(r)) == []
        assert strong_correlations(d, ["a", "b"], np.nextafter(abs(r), 0.0)) == [("a", "b", r)]

    def test_fewer_than_three_rows_give_none(self):
        columns = {name: values[:2] for name, values in self._correlated().items()}
        assert strong_correlations(Dataset(columns), ["a", "b", "c"], 0.0) == []

    @pytest.mark.parametrize("value", [2.5, 0.1, 1.0])
    def test_a_constant_column_is_left_out(self, value):
        """r with a constant column is undefined; the other pairs still count,
        whether or not the column's mean rounds to its value."""
        columns = self._correlated()
        columns["k"] = np.full(30, value)
        d = Dataset(columns)
        r = float(pearson_matrix(d, ["a", "b"]).r[0, 1])
        assert strong_correlations(d, ["k", "a", "k2", "b"], 0.0) == [("a", "b", r)]
        assert strong_correlations(d, ["a", "k"], 0.0) == []

    def test_names_absent_from_the_data_are_skipped(self):
        d = Dataset(self._correlated())
        r = float(pearson_matrix(d, ["a", "b"]).r[0, 1])
        assert strong_correlations(d, ["zz", "a", "yy", "b"], 0.5) == [("a", "b", r)]
        assert strong_correlations(d, ["zz", "a"], 0.0) == []


class TestAdvisories:
    def test_k_rule_satisfied(self):
        rng = np.random.default_rng(8)
        cols = {"Y": rng.normal(size=200)}
        cols.update({f"x{i}": rng.normal(size=200) for i in range(1, 6)})
        d = Dataset(cols)
        spec = ModelSpec("Y", tuple(Term.linear(f"x{i}") for i in range(1, 6)))
        assert not any(w.startswith("k-rule") for w in advisories(d, spec))

    def test_k_rule_violated_on_small_sample(self):
        rng = np.random.default_rng(9)
        cols = {"Y": rng.normal(size=19)}
        cols.update({f"x{i}": rng.normal(size=19) for i in range(1, 4)})
        d = Dataset(cols)
        spec = ModelSpec("Y", tuple(Term.linear(f"x{i}") for i in range(1, 4)))
        warnings = advisories(d, spec)
        assert any(w.startswith("k-rule") for w in warnings)

    def test_correlation_warning(self):
        rng = np.random.default_rng(10)
        x1 = rng.normal(size=30)
        x2 = 0.729 * x1 + np.sqrt(1 - 0.729**2) * rng.normal(size=30)
        d = Dataset({"Y": rng.normal(size=30), "x1": x1, "x2": x2})
        spec = ModelSpec("Y", (Term.linear("x1"), Term.linear("x2")))
        corr = abs(np.corrcoef(x1, x2)[0, 1])
        warnings = advisories(d, spec, correlation_threshold=min(0.7, corr - 0.01))
        assert any(w.startswith("correlation") for w in warnings)

    def test_hierarchy_warning(self):
        rng = np.random.default_rng(11)
        d = Dataset(
            {
                "Y": rng.normal(size=30),
                "x1": rng.normal(size=30),
                "x2": rng.normal(size=30),
            }
        )
        spec = ModelSpec("Y", (Term.cross("x1", "x2"),))
        warnings = advisories(d, spec)
        assert any(w.startswith("hierarchy") for w in warnings)

    def test_computes_no_p_values(self, monkeypatch):
        rng = np.random.default_rng(12)
        x1 = rng.normal(size=30)
        x2 = 0.9 * x1 + 0.3 * rng.normal(size=30)
        d = Dataset({"Y": rng.normal(size=30), "x1": x1, "x2": x2, "x3": rng.normal(size=30)})
        spec = ModelSpec("Y", tuple(Term.linear(f"x{i}") for i in range(1, 4)))
        expected = advisories(d, spec)
        assert any(w.startswith("correlation") for w in expected)

        def refuse(*args):
            raise AssertionError("p-value computed")

        monkeypatch.setattr(dataset, "student_t_two_sided_p", refuse)
        assert advisories(d, spec) == expected
        report = pearson_matrix(d, ["x1", "x2", "x3"])
        # the patched name is the one p goes through, so the check above bites
        with pytest.raises(AssertionError, match="p-value computed"):
            report.p
        monkeypatch.undo()
        # on first access, p is what the eager per-pair loop computed
        eager = np.ones((3, 3))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            eager[i, j] = eager[j, i] = correlation_p_value(float(report.r[i, j]), d.n)
        np.testing.assert_array_equal(report.p, eager)
        assert not report.p.flags.writeable
