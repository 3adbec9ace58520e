import numpy as np
import pytest

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
