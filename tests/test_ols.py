import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condreg import (
    Dataset,
    FittedModel,
    ModelSpec,
    Term,
    best_subset,
    bridge,
    derive,
    fit,
    full_quadratic_terms,
    predict,
    residualize,
)
from condreg import ols
from condreg.stats import student_t_two_sided_p
from condreg.errors import (
    AssignmentError,
    CollinearityError,
    SaturatedModelError,
    ScaleError,
    UnderdeterminedModelError,
    UnknownPredictorError,
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

    @pytest.mark.parametrize("n", [30, 40])
    @pytest.mark.parametrize("value", [0.1, 3.0, 1e6, 1e12, 1e200])
    def test_constant_response_is_explained_fully(self, n, value):
        """A constant's centered TSS is the rounding error of its mean, not
        variance; fit and best_subset share the rule."""
        rng = np.random.default_rng(n)
        d = Dataset({"Y": np.full(n, value), "x": rng.normal(size=n), "z": rng.normal(size=n)})
        assert fit(d, linear_spec("Y", "x")).r2 == 1.0
        result = best_subset(d, "Y", [Term.linear("x"), Term.linear("z")], 1)
        assert [m.r2 for m in result.ranked] == [1.0, 1.0]

    def test_small_variance_response_keeps_its_r2(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        y = 1.0 + 1e-6 * (0.5 * x + rng.normal(size=50))
        m = fit(Dataset({"Y": y, "x": x}), linear_spec("Y", "x"))
        # oracle: y - 1 is exact here and R^2 does not depend on the shift
        z = y - 1.0
        X = np.column_stack([np.ones(50), x])
        resid = z - X @ np.linalg.lstsq(X, z, rcond=None)[0]
        assert m.r2 == pytest.approx(1.0 - resid @ resid / ((z - z.mean()) ** 2).sum(), rel=1e-9)
        assert 0.1 < m.r2 < 0.5

    def test_more_parameters_than_rows(self):
        spec = ModelSpec("Y", (Term.linear("x1"), Term.linear("x2"), Term.cross("x1", "x2")))
        d = Dataset({"Y": [0.0, 1.0], "x1": [2.0, 0.0], "x2": [3.0, 0.0]})
        with pytest.raises(UnderdeterminedModelError, match="model has 4 parameters but only 2 observations"):
            fit(d, spec)

    def test_unknown_predictor(self):
        d = Dataset({"Y": [1.0, 2.0], "x1": [1.0, 2.0]})
        with pytest.raises(UnknownPredictorError, match="predictor 'zz' not in dataset"):
            fit(d, ModelSpec("Y", (Term.linear("zz"),)))

    def test_full_quadratic_parameter_count(self, rng):
        d = random_dataset(rng, 20, 4)
        m = fit(d, ModelSpec("Y", tuple(full_quadratic_terms([f"x{i}" for i in range(1, 5)]))))
        # 1 intercept + 4 linear + 6 cross + 4 squares
        assert m.coef.shape == (15,)
        assert m.labels[:6] == ["(intercept)", "x1", "x2", "x3", "x4", "x1:x2"]

    def test_row_permutation_leaves_coefficients(self, rng):
        data = {"Y": rng.normal(size=9), "a": rng.normal(size=9), "b": rng.normal(size=9)}
        spec = ModelSpec("Y", (Term.linear("a"), Term.cross("a", "b")))
        perm = rng.permutation(9)
        m1 = fit(Dataset(data), spec)
        m2 = fit(Dataset({k: v[perm] for k, v in data.items()}), spec)
        np.testing.assert_allclose(m2.coef, m1.coef, rtol=1e-12)
        np.testing.assert_allclose(m2.se, m1.se, rtol=1e-12)


class TestRankRule:
    """The dependent column named is the first, in the spec's order, that
    the columns before it span."""

    @pytest.mark.parametrize("names, dependent", [(("a", "b"), "b"), (("b", "a"), "a")])
    def test_first_dependent_column_in_spec_order(self, rng, names, dependent):
        x = rng.normal(size=10)
        d = Dataset({"Y": rng.normal(size=10), "a": x, "b": 2.0 * x})
        with pytest.raises(CollinearityError, match=rf"rank deficient \(dependent column: {dependent}\)$") as err:
            fit(d, linear_spec("Y", *names))
        assert err.value.column == dependent

    def test_constant_column_beside_the_intercept(self, rng):
        d = Dataset({"Y": rng.normal(size=10), "k": np.full(10, 3.0), "a": rng.normal(size=10)})
        with pytest.raises(CollinearityError, match="rank deficient") as err:
            fit(d, linear_spec("Y", "k", "a"))
        assert err.value.column == "k"

    def test_overflowed_column_is_refused_not_fitted_to_nan(self):
        # No errstate here: numpy's overflow warning must not leak from fit.
        d = Dataset({"Y": [1.0, 2.0, 3.0, 5.0], "a": [1e200, 2e200, -1e200, 4e200]})
        with pytest.raises(CollinearityError, match="rank deficient") as err:
            fit(d, ModelSpec("Y", (Term.linear("a"), Term.power("a", 2))))
        assert err.value.column == "a^2"

    @pytest.mark.parametrize("scale, names", [(1e200, ("a",)), (1e-12, ("a", "b"))])
    def test_badly_scaled_predictor_is_not_dependent(self, rng, scale, names):
        d = Dataset({"Y": rng.normal(size=20), "a": 1.0 + rng.normal(size=20), "b": rng.normal(size=20)})
        scaled = Dataset({"Y": d.column("Y"), "a": scale * d.column("a"), "b": d.column("b")})
        m, unit = fit(scaled, linear_spec("Y", *names)), fit(d, linear_spec("Y", *names))
        np.testing.assert_allclose(m.p, unit.p, rtol=1e-12)
        assert m.coefficient(Term.linear("a")) == pytest.approx(unit.coefficient(Term.linear("a")) / scale)

    def test_zero_design_names_its_first_column(self, rng):
        d = Dataset({"Y": rng.normal(size=6), "z": np.zeros(6), "w": np.zeros(6)})
        spec = ModelSpec("Y", (Term.linear("w"), Term.linear("z")), intercept=False)
        with pytest.raises(CollinearityError, match=r"^design matrix is zero \(dependent column: w\)$") as err:
            fit(d, spec)
        assert err.value.column == "w"


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
            values = {name: d.column(name) for name in d.names}
            X = np.column_stack([np.ones(n)] + [term.column(values) for term in spec.terms])
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

    def test_name_the_model_does_not_use(self, rng):
        d = random_dataset(rng, 10, 2)
        m = fit(d, linear_spec("Y", "x1", "x2"))
        with pytest.raises(AssignmentError, match=r"^fixed assignment has superfluous entries: \['zz'\]$"):
            predict(m, {"x1": 0.0, "x2": 1.0, "zz": 3.0})

    def test_published_coefficient_count_checked(self):
        spec = linear_spec("Y", "x1")
        with pytest.raises(AssignmentError):
            FittedModel.from_coefficients(spec, [1.0, 2.0, 3.0])


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_published_coefficients_must_be_finite(self, bad):
        with pytest.raises(AssignmentError, match="must be finite"):
            FittedModel.from_coefficients(linear_spec("Y", "x1"), [1.0, bad])


class TestLazyInference:
    """A model's p-values are computed when first read, and only then."""

    @pytest.fixture
    def t_tail_calls(self, monkeypatch):
        calls = []

        def counted(t, dof):
            calls.append((t, dof))
            return student_t_two_sided_p(t, dof)

        monkeypatch.setattr(ols, "student_t_two_sided_p", counted)
        return calls

    def test_coefficient_readers_compute_no_p_values(self, rng, t_tail_calls):
        d = random_dataset(rng, 40, 3)
        bridge(d, "Y", ["x1", "x2", "x3"], "x1")
        residualize(d, "x1", ["x2", "x3"])
        m = fit(d, linear_spec("Y", "x1", "x2", "x3"))
        derive(m, "x1", {"x2": 0.5, "x3": -1.0})
        ranked = best_subset(d, "Y", [Term.linear(f"x{i}") for i in (1, 2, 3)], 2).ranked
        assert [entry.r2 for entry in ranked] == sorted((entry.r2 for entry in ranked), reverse=True)
        assert t_tail_calls == []

    def test_reading_p_computes_each_once(self, rng, t_tail_calls):
        m = fit(random_dataset(rng, 40, 3), linear_spec("Y", "x1", "x2", "x3"))
        first = m.p
        assert m.p is first
        # one tail call over every coefficient's t
        assert [dof for _, dof in t_tail_calls] == [36]
        np.testing.assert_array_equal(t_tail_calls[0][0], m.t)
        np.testing.assert_array_equal(first, [student_t_two_sided_p(float(t), 36) for t in m.t])

    def test_no_inference_at_zero_dof(self, coded_cells, t_tail_calls):
        spec = ModelSpec("SDH", (Term.linear("Pb"), Term.linear("Cd"), Term.cross("Pb", "Cd")))
        for m in (fit(coded_cells, spec, allow_saturated=True),
                  FittedModel.from_coefficients(spec, [693.0, -4.70, 4.49, 43.92])):
            assert m.dof == 0
            for name in ("cov", "se", "t", "p"):
                assert np.isnan(getattr(m, name)).all(), name
        assert t_tail_calls == []


class TestCompare:
    """Nested fits of one response on one dataset, compared by r2 and rss."""

    def test_self_comparison(self, rng):
        d = random_dataset(rng, 20, 2)
        m = fit(d, linear_spec("Y", "x1", "x2"))
        again = fit(d, linear_spec("Y", "x1", "x2"))
        assert (again.r2, again.rss) == (m.r2, m.rss)

    def test_adding_column_never_decreases_r2(self, rng):
        for _ in range(10):
            d = random_dataset(rng, 10, 3)
            small = fit(d, linear_spec("Y", "x1", "x2"))
            large = fit(d, linear_spec("Y", "x1", "x2", "x3"))
            assert large.r2 - small.r2 >= -1e-12
            assert small.rss - large.rss >= -1e-10

    def test_cross_term_strictly_improves(self, rng):
        d = random_dataset(rng, 25, 2)
        small = fit(d, linear_spec("Y", "x1", "x2"))
        spec = ModelSpec(
            "Y", (Term.linear("x1"), Term.linear("x2"), Term.cross("x1", "x2"))
        )
        large = fit(d, spec)
        assert large.r2 > small.r2
        assert large.rss < small.rss


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


def _design_column(columns, label):
    """A design column from its report label: '(intercept)', 'x1' or 'x1:x2'."""
    column = np.ones(len(next(iter(columns.values()))))
    for name in label.split(":") if label != "(intercept)" else []:
        column = column * columns[name]
    return column


def _mpmath_inference(design, y):
    """t statistics' two-sided p of a least-squares fit, solved from the
    normal equations in 40-digit arithmetic."""
    n, p = design.shape
    with mpmath.workdps(40):
        x, b = mpmath.matrix(design.tolist()), mpmath.matrix(y.tolist())
        inverse = (x.T * x) ** -1
        beta = inverse * (x.T * b)
        residual = b - x * beta
        dof = mpmath.mpf(n - p)
        s2 = sum(r**2 for r in residual) / dof
        out = []
        for j in range(p):
            t2 = beta[j] ** 2 / (s2 * inverse[j, j])
            out.append(float(mpmath.betainc(dof / 2, mpmath.mpf(0.5), 0, dof / (dof + t2), regularized=True)))
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 30),
    k=st.integers(1, 3),
    cross=st.booleans(),
)
def test_fit_matches_lstsq_and_its_p_values_match_40_digit_mpmath(seed, n, k, cross):
    """Predictors of scale 0.5 to 5 and offset up to 3, an optional cross
    term and unit noise: every coefficient agrees with numpy.linalg.lstsq
    within 1e-12 times the largest, and every p with a 40-digit solve of
    the normal equations within 1e-10 relative.  The worst gaps over 300
    such designs were 2.0e-14 and 1.2e-13."""
    rng = np.random.default_rng(seed)
    names = [f"x{i + 1}" for i in range(k)]
    columns = {name: rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 5), n) for name in names}
    terms = [Term.linear(name) for name in names]
    if cross and k > 1:
        terms.append(Term.cross("x1", "x2"))
    if n - len(terms) - 1 < 1:
        return
    labels = ["(intercept)"] + [term.label for term in terms]
    design = np.column_stack([_design_column(columns, label) for label in labels])
    y = design @ rng.normal(0.0, 2.0, len(labels)) + rng.standard_normal(n)
    m = fit(Dataset({"Y": y, **columns}), ModelSpec("Y", tuple(terms)))
    assert m.labels == labels
    oracle = np.linalg.lstsq(design, y, rcond=None)[0]
    np.testing.assert_allclose(m.coef, oracle, rtol=0.0, atol=1e-12 * np.abs(oracle).max())
    np.testing.assert_allclose(m.p, _mpmath_inference(design, y), rtol=1e-10, atol=0.0)


def test_a_prediction_past_the_double_range_is_refused():
    m = FittedModel.from_coefficients(linear_spec("Y", "a", "b"), [0.0, 1e308, 1e308])
    with pytest.raises(AssignmentError, match=r"^prediction at a=1.0, b=1.0 leaves the double range$"):
        predict(m, {"b": 1.0, "a": 1.0})
    assert predict(m, {"a": 1.0, "b": -1.0}) == 0.0


def test_a_coefficient_past_the_double_range_is_inf_until_read():
    """x1 of subnormal scale: t and p are scale-free and kept, and each
    reader of the coefficients refuses them."""
    x1 = np.array([1e-310, 2e-310, 3.1e-310, 4e-310, 5.2e-310])
    m = fit(Dataset({"Y": [1.0, 2.0, 3.0, 4.0, 5.0], "x1": x1}), linear_spec("Y", "x1"))
    assert math.isinf(m.coef[1]) and math.isfinite(m.t[1]) and m.p[1] < 1e-4
    for read in (m.check_range, lambda: derive(m, "x1", {})):
        with pytest.raises(ScaleError, match=r"^coefficient of 'x1' leaves the double range; rescale its column$"):
            read()
