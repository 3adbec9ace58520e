import numpy as np
import pytest

from condreg import (
    Dataset,
    ModelSpec,
    Term,
    advisories,
    backward_stepwise,
    best_subset,
    fit,
    full_quadratic,
)
from condreg.errors import SearchError
from condreg.selection import MAX_CANDIDATE_FITS
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


class TestBackwardStepwise:
    def test_all_significant_is_a_noop(self):
        d = _signal_dataset()
        start = ModelSpec("Y", (Term.linear("u"), Term.linear("v")))
        result = backward_stepwise(d, "Y", start, alpha=0.05)
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
            start = full_quadratic(["x1", "x2"], response="Y")
            result = backward_stepwise(d, "Y", start, alpha=0.05)
            survivors = {t.label for t in result.final.spec.terms}
            if {"x1", "x1:x2"} <= survivors:
                hits += 1
        assert hits >= 7

    def test_trace_is_monotone_and_recalculated(self):
        rng = np.random.default_rng(77)
        d = random_dataset(rng, 60, 3, noise=5.0)
        start = full_quadratic(["x1", "x2", "x3"], response="Y")
        result = backward_stepwise(d, "Y", start, alpha=0.05, enforce_hierarchy=False)
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
        result = backward_stepwise(d, "Y", start, alpha=0.5, enforce_hierarchy=False)
        spec = start
        for step in result.steps:
            stage = fit(d, spec)
            removable_ps = {
                t.label: float(stage.p[stage.term_index(t)]) for t in spec.terms
            }
            worst = max(removable_ps.values())
            assert removable_ps[step.removed.label] == pytest.approx(worst)
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
        kept = backward_stepwise(d, "Y", start, alpha=0.05, enforce_hierarchy=True)
        labels = {t.label for t in kept.final.spec.terms}
        assert {"x1", "x2", "x1:x2"} <= labels
        loose = backward_stepwise(d, "Y", start, alpha=0.05, enforce_hierarchy=False)
        assert {t.label for t in loose.final.spec.terms} == {"x1:x2"}

    def test_protected_terms_survive(self):
        rng = np.random.default_rng(30)
        d = random_dataset(rng, 50, 2, noise=50.0)
        start = ModelSpec("Y", (Term.linear("x1"), Term.linear("x2")))
        result = backward_stepwise(
            d, "Y", start, alpha=0.05, protected=[Term.linear("x2")]
        )
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
        stripped = backward_stepwise(d, "Y", start, alpha=1e-9)
        assert stripped.final.spec.terms == ()
        # alpha near 1 removes only wholly uninformative terms
        kept = backward_stepwise(d, "Y", start, alpha=0.999999)
        assert len(kept.final.spec.terms) == 2


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
