from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condreg import (
    Dataset,
    FittedModel,
    ModelSpec,
    Term,
    derive,
    fit,
    predict,
    quartiles,
    resolve_assignment,
    t_coefficients,
    unit_effect,
)
from condreg.errors import AssignmentError, ScopeError
from condreg.selection import strong_correlations
from conftest import random_dataset

# published two-predictor cross-term model: morbidity ~ CO, SO2
CO_SO2 = FittedModel.from_coefficients(
    ModelSpec("Y", (Term.linear("CO"), Term.linear("SO2"), Term.cross("CO", "SO2"))),
    [204.0, 1674.0, 36.0, -413.0],
)

# published four-predictor model with two cross terms
TB_SPEC = ModelSpec(
    "Y",
    (
        Term.linear("x1"),
        Term.linear("x2"),
        Term.linear("x3"),
        Term.linear("x4"),
        Term.cross("x1", "x2"),
        Term.cross("x1", "x3"),
    ),
)
TB_MODEL = FittedModel.from_coefficients(
    TB_SPEC, [1175.0, -15.08, -3.411, -39.62, -4.810, 0.0504, 0.565]
)

EPS = float(np.finfo(float).eps)
# Products that underflow lose digits that no relative bound covers; with
# the values drawn below, each parameter's such loss is far below this.
TINY = float(np.finfo(float).tiny)
NAMES = ("x1", "x2", "x3")
QUADRATIC = ModelSpec("Y", (Term.linear("x1"), Term.power("x1", 2)))


@st.composite
def sections(draw):
    """A model of degree <= 3 in at most 3 predictors with published
    coefficients, a target it uses and a point for the others."""
    powers = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: 1 <= sum(e) <= 3)
    exponents = draw(st.lists(powers, min_size=1, max_size=6, unique=True))
    terms = tuple(Term([(n, e) for n, e in zip(NAMES, row) if e]) for row in exponents)
    spec = ModelSpec("Y", terms, intercept=draw(st.booleans()))
    coef = draw(st.lists(st.floats(-1e6, 1e6), min_size=spec.n_parameters, max_size=spec.n_parameters))
    target = draw(st.sampled_from(spec.predictors))
    fixed = {name: draw(st.floats(-1e3, 1e3)) for name in spec.predictors if name != target}
    return FittedModel.from_coefficients(spec, coef), target, fixed


def exact_partials(m, point):
    """(power of the target, exact coefficient times the term at ``point``)
    per parameter; the target, absent from ``point``, counts as 1."""
    out = [(0, Fraction(m.coef[0]))] if m.spec.intercept else []
    for term, c in zip(m.spec.terms, m.coef[int(m.spec.intercept):]):
        value = Fraction(c)
        for name, power in term.factors:
            value *= Fraction(point.get(name, 1.0)) ** power
        out.append((sum(p for n, p in term.factors if n not in point), value))
    return out


class TestDerive:
    def test_cross_term_model_low_fix(self):
        section = derive(CO_SO2, "CO", {"SO2": 0.598})
        assert section.poly[0] == pytest.approx(225.5, abs=0.5)
        assert section.poly[1] == pytest.approx(1427.0, abs=0.5)

    def test_cross_term_model_high_fix(self):
        section = derive(CO_SO2, "CO", {"SO2": 2.63})
        assert section.poly[1] == pytest.approx(587.8, abs=0.5)
        assert section.poly[0] == pytest.approx(298.7, abs=0.5)

    def test_pure_linear_slope_independent_of_fix(self, rng):
        d = random_dataset(rng, 20, 2)
        m = fit(d, ModelSpec("Y", (Term.linear("x1"), Term.linear("x2"))))
        b1 = m.coefficient(Term.linear("x1"))
        for value in (-3.0, 0.0, 5.5):
            section = derive(m, "x1", {"x2": value})
            assert section.poly[1] == pytest.approx(b1, rel=1e-12)

    def test_section_property(self, rng):
        d = random_dataset(rng, 30, 3)
        spec = ModelSpec(
            "Y",
            (
                Term.linear("x1"),
                Term.linear("x2"),
                Term.linear("x3"),
                Term.cross("x1", "x2"),
                Term.power("x1", 2),
                Term.power("x3", 2),
            ),
        )
        m = fit(d, spec)
        fixed = {"x2": 0.7, "x3": -1.2}
        section = derive(m, "x1", fixed)
        assert section.degree == 2
        for v in np.linspace(-4.0, 4.0, 9):
            direct = predict(m, {**fixed, "x1": v})
            assert section(v) == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_degree_matches_target_power(self):
        spec = ModelSpec("Y", (Term.linear("a"), Term.power("a", 3), Term.linear("b")))
        m = FittedModel.from_coefficients(spec, [0.0, 1.0, 2.0, 3.0])
        assert derive(m, "a", {"b": 0.0}).degree == 3
        assert derive(m, "b", {"a": 0.0}).degree == 1

    def test_incomplete_assignment(self):
        with pytest.raises(AssignmentError):
            derive(CO_SO2, "CO", {})

    def test_superfluous_assignment(self):
        with pytest.raises(AssignmentError):
            derive(CO_SO2, "CO", {"SO2": 1.0, "bogus": 2.0})

    def test_target_must_be_in_model(self):
        with pytest.raises(AssignmentError):
            derive(CO_SO2, "NO2", {"CO": 1.0, "SO2": 1.0})

    def test_fixing_target_rejected(self):
        with pytest.raises(AssignmentError):
            derive(CO_SO2, "CO", {"CO": 1.0, "SO2": 1.0})

    def test_caution_annotation_for_correlated_fix(self, rng):
        x1 = rng.normal(size=40)
        x2 = 0.9 * x1 + 0.2 * rng.normal(size=40)
        y = x1 + x2 + rng.normal(size=40)
        d = Dataset({"Y": y, "x1": x1, "x2": x2})
        m = fit(
            d,
            ModelSpec(
                "Y", (Term.linear("x1"), Term.linear("x2"), Term.cross("x1", "x2"))
            ),
        )
        pairs = strong_correlations(d, ["x1", "x2"], 0.7)
        section = derive(m, "x1", {"x2": 0.0}, correlations=pairs)
        assert len(section.cautions) == 1
        name, r = section.cautions[0]
        assert name == "x2"
        assert abs(r) > 0.7

    def test_cautions_are_the_pairs_with_the_target_in_fixed_order(self):
        spec = ModelSpec("Y", (Term.linear("x1"), Term.linear("x2"), Term.linear("x3")))
        m = FittedModel.from_coefficients(spec, [0.0, 1.0, 2.0, 3.0])
        pairs = [("x1", "x3", 0.9), ("x3", "x2", -0.8), ("x2", "x1", 0.75)]
        section = derive(m, "x2", {"x3": 1.0, "x1": 2.0}, correlations=pairs)
        assert section.cautions == (("x1", 0.75), ("x3", -0.8))


class TestSectionMap:
    @given(sections())
    def test_poly_is_the_exact_substitution_to_rounding(self, case):
        m, target, fixed = case
        poly = derive(m, target, fixed).poly
        exact = [Fraction(0)] * len(poly)
        scale = [Fraction(0)] * len(poly)
        for k, partial in exact_partials(m, fixed):
            exact[k] += partial
            scale[k] += abs(partial)
        p = m.spec.n_parameters
        for value, want, bound in zip(poly, exact, scale):
            assert abs(Fraction(value) - want) <= (p + 2) * EPS * bound + p * TINY

    @given(sections(), st.floats(-1e3, 1e3))
    def test_section_at_a_point_is_the_prediction(self, case, x):
        m, target, fixed = case
        point = {**fixed, target: x}
        scale = float(sum(abs(partial) for _, partial in exact_partials(m, point)))
        bound = (2 * m.spec.n_parameters + 12) * EPS * scale + m.spec.n_parameters * TINY
        assert abs(derive(m, target, fixed)(x) - predict(m, point)) <= bound

    @pytest.mark.filterwarnings("error")
    def test_a_scalar_past_the_double_range_is_refused(self):
        section = derive(FittedModel.from_coefficients(QUADRATIC, [1.0, 2.0, 3.0]), "x1", {})
        assert section(1e100) == pytest.approx(3e200, rel=1e-15)
        with pytest.raises(AssignmentError, match=r"^section along 'x1' at x1=1e\+200 leaves the double range$"):
            section(1e200)

    @pytest.mark.filterwarnings("error")
    def test_an_array_past_the_double_range_is_refused_at_its_first_such_point(self):
        section = derive(FittedModel.from_coefficients(QUADRATIC, [1.0, 2.0, 3.0]), "x1", {})
        np.testing.assert_array_equal(section(np.array([-1.0, 0.0, 1.0])), [2.0, 1.0, 6.0])
        assert np.isnan(section(np.array([np.nan]))).all()  # only a finite argument is checked
        with pytest.raises(AssignmentError, match=r"^section along 'x1' at x1=-1e\+200 leaves the double range$"):
            section(np.array([0.0, -1e200, 1e200]))


class TestUnitEffect:
    def test_pure_linear_model(self, rng):
        d = random_dataset(rng, 20, 2)
        m = fit(d, ModelSpec("Y", (Term.linear("x1"), Term.linear("x2"))))
        b1 = m.coefficient(Term.linear("x1"))
        for at in (-2.0, 0.0, 3.0):
            for fix in (-1.0, 4.0):
                assert unit_effect(m, "x1", {"x2": fix}, at) == pytest.approx(
                    b1, rel=1e-10
                )

    def test_cross_term_model_slope(self):
        change = unit_effect(CO_SO2, "CO", {"SO2": 2.63}, at=0.0)
        assert change == pytest.approx(587.8, abs=0.5)
        # no square term in CO: same change at any starting point
        assert unit_effect(CO_SO2, "CO", {"SO2": 2.63}, at=7.0) == pytest.approx(
            change, rel=1e-12
        )

    def test_quadratic_oracle(self):
        # Y = 1 + 2a + 3a^2: Y(2) - Y(1) = 17 - 6 = 11
        spec = ModelSpec("Y", (Term.linear("a"), Term.power("a", 2)))
        m = FittedModel.from_coefficients(spec, [1.0, 2.0, 3.0])
        assert unit_effect(m, "a", {}, at=1.0) == pytest.approx(11.0, rel=1e-12)

    @pytest.mark.parametrize("at", [0.0, 1e6, 1e8, -1e8, 1e200])
    def test_quadratic_to_a_rounding_at_any_point(self, at):
        # Y = 1000 + 3.1a + 0.7a^2 changes by exactly 3.1 + 0.7 (2a + 1)
        spec = ModelSpec("Y", (Term.linear("a"), Term.power("a", 2)))
        m = FittedModel.from_coefficients(spec, [1000.0, 3.1, 0.7])
        exact = Fraction(3.1) + Fraction(0.7) * (2 * Fraction(at) + 1)
        assert abs(Fraction(unit_effect(m, "a", {}, at)) / exact - 1) <= 1e-15

    @given(sections(), st.floats(1e-3, 1e8), st.booleans())
    def test_is_the_exact_forward_difference_of_the_section(self, case, size, negative):
        m, target, fixed = case
        at = -size if negative else size
        poly = derive(m, target, fixed).poly
        a = Fraction(at)
        steps = [Fraction(c) * ((a + 1) ** k - a**k) for k, c in enumerate(poly)]
        bound = 8 * EPS * float(sum(map(abs, steps))) + len(poly) * TINY
        assert abs(Fraction(unit_effect(m, target, fixed, at)) - sum(steps)) <= bound

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_point_is_refused(self, at):
        with pytest.raises(AssignmentError, match="effect point must be a finite number"):
            unit_effect(CO_SO2, "CO", {"SO2": 2.63}, at)

    def test_matches_finite_difference_of_section(self, rng):
        d = random_dataset(rng, 25, 2)
        spec = ModelSpec(
            "Y",
            (
                Term.linear("x1"),
                Term.linear("x2"),
                Term.cross("x1", "x2"),
                Term.power("x1", 2),
            ),
        )
        m = fit(d, spec)
        section = derive(m, "x1", {"x2": 1.3})
        at = 0.4
        assert unit_effect(m, "x1", {"x2": 1.3}, at) == pytest.approx(
            section(at + 1.0) - section(at), rel=1e-12
        )


class TestTCoefficients:
    def test_quartile_fixes(self):
        tc = t_coefficients(derive(TB_MODEL, "x1", {"x2": 54.0, "x3": 18.5, "x4": 4.42}))
        assert tc.t_linear == pytest.approx(-1.921, abs=0.06)
        assert tc.t0 == pytest.approx(236.5758, abs=1e-9)
        assert tc.t_quad == 0.0

    def test_second_target(self):
        tc = t_coefficients(derive(TB_MODEL, "x2", {"x1": 69.3, "x3": 18.5, "x4": 4.42}))
        assert tc.t_linear == pytest.approx(0.0817, abs=0.0005)

    def test_all_zero_fix_recovers_bare_coefficient(self, rng):
        d = random_dataset(rng, 20, 3)
        spec = ModelSpec(
            "Y", (Term.linear("x1"), Term.linear("x2"), Term.linear("x3"))
        )
        m = fit(d, spec)
        tc = t_coefficients(derive(m, "x2", {"x1": 0.0, "x3": 0.0}))
        assert tc.t_linear == pytest.approx(m.coefficient(Term.linear("x2")), rel=1e-12)

    def test_cubic_target_redirects_to_derive(self):
        spec = ModelSpec("Y", (Term.linear("a"), Term.power("a", 3)))
        m = FittedModel.from_coefficients(spec, [0.0, 1.0, 1.0])
        with pytest.raises(ScopeError):
            t_coefficients(derive(m, "a", {}))

    def test_linear_in_fixed_values(self):
        # T_linear responds affinely to each fixed value: second
        # difference over a grid vanishes
        values = []
        for x2 in (40.0, 60.0, 80.0):
            tc = t_coefficients(derive(TB_MODEL, "x1", {"x2": x2, "x3": 18.5, "x4": 4.42}))
            values.append(tc.t_linear)
        assert values[2] - 2 * values[1] + values[0] == pytest.approx(0.0, abs=1e-12)


class TestPresets:
    def test_numeric_pass_through(self):
        resolved = resolve_assignment({"a": 1.5})
        assert resolved == {"a": 1.5}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_refused(self, value):
        with pytest.raises(AssignmentError, match="fixed value for 'a' must be a finite number"):
            resolve_assignment({"b": 1.0, "a": value})

    def test_quartile_presets(self):
        d = Dataset({"a": [1.0, 2.0, 3.0, 4.0, 5.0], "b": [10.0, 10.0, 40.0, 40.0, 10.0]})
        summary = quartiles(d)
        resolved = resolve_assignment({"a": "q25", "b": "max"}, summary)
        assert resolved == {"a": 2.0, "b": 40.0}

    def test_unknown_preset(self):
        with pytest.raises(AssignmentError):
            resolve_assignment({"a": "median"}, quartiles(Dataset({"a": [1.0, 2.0]})))

    def test_preset_without_summary(self):
        with pytest.raises(AssignmentError):
            resolve_assignment({"a": "mean"})

    def test_preset_on_absent_column(self):
        summary = quartiles(Dataset({"a": [1.0, 2.0]}))
        with pytest.raises(Exception):
            resolve_assignment({"zz": "mean"}, summary)
