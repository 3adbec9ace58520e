import math

import numpy as np
import pytest

from condreg import (
    Dataset,
    FittedModel,
    ModelSpec,
    Term,
    compare,
    fit,
    predict,
)
from condreg.errors import (
    AssignmentError,
    CollinearityError,
    NestingError,
    SaturatedModelError,
)
from conftest import random_dataset


def linear_spec(response, *names):
    return ModelSpec(response, tuple(Term.linear(n) for n in names))


def normal_equations(X, y):
    """Independent oracle: explicit (X'X)^{-1} X'y."""
    return np.linalg.inv(X.T @ X) @ (X.T @ y)


class TestFit:
    def test_exact_line(self):
        d = Dataset({"Y": [0.0, 2.0, 4.0, 6.0], "x": [0.0, 1.0, 2.0, 3.0]})
        m = fit(d, linear_spec("Y", "x"))
        np.testing.assert_allclose(m.coef, [0.0, 2.0], atol=1e-12)
        assert m.r2 == pytest.approx(1.0)
        assert m.rss == pytest.approx(0.0, abs=1e-20)

    def test_closed_form_simple_regression(self):
        # oracle: slope = Sxy/Sxx = 4.5/5, intercept = ybar - slope*xbar
        d = Dataset({"Y": [1.0, 2.0, 2.0, 4.0], "x": [0.0, 1.0, 2.0, 3.0]})
        m = fit(d, linear_spec("Y", "x"))
        np.testing.assert_allclose(m.coef, [0.9, 0.9], rtol=1e-12)

    def test_coded_cell_means(self, coded_cells):
        spec = ModelSpec(
            "SDH", (Term.linear("Pb"), Term.linear("Cd"), Term.cross("Pb", "Cd"))
        )
        m = fit(coded_cells, spec, allow_saturated=True)
        np.testing.assert_allclose(m.coef, [693.0, -4.70, 4.49, 43.92], atol=0.05)

    def test_saturated_requires_flag(self, coded_cells):
        spec = ModelSpec(
            "SDH", (Term.linear("Pb"), Term.linear("Cd"), Term.cross("Pb", "Cd"))
        )
        with pytest.raises(SaturatedModelError):
            fit(coded_cells, spec)

    def test_saturated_suppresses_inference(self, coded_cells):
        spec = ModelSpec(
            "SDH", (Term.linear("Pb"), Term.linear("Cd"), Term.cross("Pb", "Cd"))
        )
        m = fit(coded_cells, spec, allow_saturated=True)
        assert m.dof == 0
        assert np.all(np.isnan(m.se))
        assert np.all(np.isnan(m.p))
        assert math.isnan(m.r2_adj)

    def test_collinearity_names_a_column(self, rng):
        x = rng.normal(size=10)
        d = Dataset({"Y": rng.normal(size=10), "a": x, "b": 2.0 * x})
        with pytest.raises(CollinearityError) as err:
            fit(d, linear_spec("Y", "a", "b"))
        assert err.value.column in ("a", "b")

    def test_inference_matches_scipy_reference(self, rng):
        import scipy.stats

        d = random_dataset(rng, 30, 2)
        m = fit(d, linear_spec("Y", "x1", "x2"))
        # reference: textbook formulas on the design matrix
        X = np.column_stack([np.ones(30), d.column("x1"), d.column("x2")])
        y = d.column("Y")
        beta = normal_equations(X, y)
        resid = y - X @ beta
        sigma2 = resid @ resid / (30 - 3)
        cov = sigma2 * np.linalg.inv(X.T @ X)
        se = np.sqrt(np.diag(cov))
        np.testing.assert_allclose(m.coef, beta, rtol=1e-10)
        np.testing.assert_allclose(m.se, se, rtol=1e-9)
        np.testing.assert_allclose(m.cov, cov, rtol=1e-9, atol=1e-12)
        t = beta / se
        p = 2.0 * scipy.stats.t.sf(np.abs(t), 27)
        np.testing.assert_allclose(m.p, p, rtol=1e-9)

    def test_r2_and_adjustment(self, rng):
        d = random_dataset(rng, 40, 3)
        m = fit(d, linear_spec("Y", "x1", "x2", "x3"))
        y = d.column("Y")
        tss = ((y - y.mean()) ** 2).sum()
        assert m.r2 == pytest.approx(1.0 - m.rss / tss, rel=1e-12)
        assert m.r2_adj == pytest.approx(1.0 - (1.0 - m.r2) * 39 / 36, rel=1e-12)
        assert m.r2_adj <= m.r2
        assert 0.0 <= m.r2 <= 1.0

    def test_uncentered_r2_without_intercept(self, rng):
        d = random_dataset(rng, 25, 1)
        spec = ModelSpec("Y", (Term.linear("x1"),), intercept=False)
        m = fit(d, spec)
        y = d.column("Y")
        assert m.r2 == pytest.approx(1.0 - m.rss / (y**2).sum(), rel=1e-12)


class TestOracleSuite:
    def test_small_designs_match_normal_equations(self):
        # every p <= 3, n <= 8 combination over several seeds
        for seed in range(12):
            rng = np.random.default_rng(seed)
            for p in (1, 2, 3):
                for n in range(p + 1, 9):
                    X = rng.normal(size=(n, p))
                    y = rng.normal(size=n)
                    cols = {"Y": y}
                    cols.update({f"x{j}": X[:, j] for j in range(p)})
                    d = Dataset(cols)
                    spec = ModelSpec(
                        "Y",
                        tuple(Term.linear(f"x{j}") for j in range(1, p)),
                        intercept=True,
                    )
                    # intercept + p-1 slopes keeps total columns at p
                    design = np.column_stack([np.ones(n), X[:, 1:p]])
                    oracle = normal_equations(design, y)
                    m = fit(d, spec)
                    np.testing.assert_allclose(m.coef, oracle, rtol=1e-9, atol=1e-12)

    def test_residual_orthogonality_every_fit(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(6, 30))
            d = random_dataset(rng, n, 2)
            spec = ModelSpec(
                "Y",
                (Term.linear("x1"), Term.linear("x2"), Term.cross("x1", "x2")),
            )
            m = fit(d, spec)
            from condreg.terms import expand

            X, _ = expand(d, spec)
            resid = d.column("Y") - X @ m.coef
            scale = np.abs(X).sum(axis=0) * np.abs(resid).max() + 1e-30
            assert np.all(np.abs(X.T @ resid) / scale < 1e-8)


class TestPredict:
    def test_published_coefficients_at_corners(self):
        spec = ModelSpec(
            "SDH", (Term.linear("Pb"), Term.linear("Cd"), Term.cross("Pb", "Cd"))
        )
        m = FittedModel.from_coefficients(spec, [693.0, -4.70, 4.49, 43.92])
        assert predict(m, {"Pb": -1.0, "Cd": -1.0}) == pytest.approx(737.13, abs=0.005)
        assert predict(m, {"Pb": 1.0, "Cd": 1.0}) == pytest.approx(736.71, abs=0.005)

    def test_centroid_prediction_is_mean(self, rng):
        d = random_dataset(rng, 15, 2)
        m = fit(d, linear_spec("Y", "x1", "x2"))
        point = {"x1": d.column("x1").mean(), "x2": d.column("x2").mean()}
        assert predict(m, point) == pytest.approx(d.column("Y").mean(), rel=1e-12)

    def test_missing_predictor(self, rng):
        d = random_dataset(rng, 10, 2)
        m = fit(d, linear_spec("Y", "x1", "x2"))
        with pytest.raises(AssignmentError):
            predict(m, {"x1": 0.0})

    def test_published_coefficient_count_checked(self):
        spec = linear_spec("Y", "x1")
        with pytest.raises(AssignmentError):
            FittedModel.from_coefficients(spec, [1.0, 2.0, 3.0])


class TestCompare:
    def test_self_comparison(self, rng):
        d = random_dataset(rng, 20, 2)
        m = fit(d, linear_spec("Y", "x1", "x2"))
        report = compare(m, m)
        assert report.delta_r2 == 0.0
        assert report.delta_rss == 0.0

    def test_adding_column_never_decreases_r2(self, rng):
        for _ in range(10):
            d = random_dataset(rng, 10, 3)
            small = fit(d, linear_spec("Y", "x1", "x2"))
            large = fit(d, linear_spec("Y", "x1", "x2", "x3"))
            report = compare(small, large)
            assert report.delta_r2 >= -1e-12
            assert report.delta_rss >= -1e-10

    def test_cross_term_strictly_improves(self, rng):
        d = random_dataset(rng, 25, 2)
        small = fit(d, linear_spec("Y", "x1", "x2"))
        spec = ModelSpec(
            "Y", (Term.linear("x1"), Term.linear("x2"), Term.cross("x1", "x2"))
        )
        large = fit(d, spec)
        assert compare(small, large).delta_r2 > 0.0

    def test_non_nested_rejected(self, rng):
        d = random_dataset(rng, 20, 2)
        m1 = fit(d, linear_spec("Y", "x1"))
        m2 = fit(d, linear_spec("Y", "x2"))
        with pytest.raises(NestingError):
            compare(m1, m2)

    def test_different_data_rejected(self, rng):
        d1 = random_dataset(rng, 20, 2)
        d2 = random_dataset(rng, 20, 2)
        m1 = fit(d1, linear_spec("Y", "x1"))
        m2 = fit(d2, linear_spec("Y", "x1", "x2"))
        with pytest.raises(NestingError):
            compare(m1, m2)

    def test_same_response_different_predictors_rejected(self, rng):
        d1 = random_dataset(rng, 20, 2)
        d2 = Dataset(
            {
                "Y": d1.column("Y"),
                "x1": d1.column("x1"),
                "x2": rng.normal(size=20),
            }
        )
        small = fit(d1, linear_spec("Y", "x1"))
        large = fit(d2, linear_spec("Y", "x1", "x2"))
        with pytest.raises(NestingError, match="different data"):
            compare(small, large)


class TestProperties:
    def test_scale_equivariance(self, rng):
        d = random_dataset(rng, 30, 2)
        base = fit(d, linear_spec("Y", "x1", "x2"))
        scaled_data = Dataset(
            {
                "Y": d.column("Y"),
                "x1": 4.0 * d.column("x1"),
                "x2": d.column("x2"),
            }
        )
        scaled = fit(scaled_data, linear_spec("Y", "x1", "x2"))
        assert scaled.coefficient(Term.linear("x1")) == pytest.approx(
            base.coefficient(Term.linear("x1")) / 4.0, rel=1e-10
        )
        assert scaled.r2 == pytest.approx(base.r2, rel=1e-12)

    def test_orthogonal_column_leaves_coefficients_alone(self, rng):
        d = random_dataset(rng, 30, 2)
        base_spec = linear_spec("Y", "x1", "x2")
        base = fit(d, base_spec)
        # orthogonalize a random column against intercept + x1 + x2
        X = np.column_stack([np.ones(30), d.column("x1"), d.column("x2")])
        z = rng.normal(size=30)
        z = z - X @ normal_equations(X, z)
        extended = Dataset(
            {
                "Y": d.column("Y"),
                "x1": d.column("x1"),
                "x2": d.column("x2"),
                "z": z,
            }
        )
        larger = fit(extended, linear_spec("Y", "x1", "x2", "z"))
        np.testing.assert_allclose(larger.coef[:3], base.coef, rtol=1e-9, atol=1e-12)

    def test_coded_design_cross_term_is_orthogonal(self, coded_cells):
        # two-level orthogonal design: adding the cross term leaves the
        # linear coefficients untouched
        linear = fit(
            coded_cells,
            linear_spec("SDH", "Pb", "Cd"),
        )
        full = fit(
            coded_cells,
            ModelSpec(
                "SDH", (Term.linear("Pb"), Term.linear("Cd"), Term.cross("Pb", "Cd"))
            ),
            allow_saturated=True,
        )
        np.testing.assert_allclose(full.coef[:3], linear.coef, rtol=1e-12)
