from dataclasses import replace

import numpy as np
import pytest

from condreg import (
    Dataset,
    ModelSpec,
    Term,
    bridge,
    detect_paradox,
    fit,
    residualize,
    two_predictor_bridge,
)
from condreg.errors import CollinearityError, UnknownPredictorError
from condreg.relations import BridgeReport
from conftest import random_dataset


class TestTwoPredictorBridge:
    def test_published_constants(self):
        b1, b2 = two_predictor_bridge(579.0, 52.5, 0.316, 1.683, 0.729)
        assert b1 == pytest.approx(1047.0, abs=1.0)
        assert b2 == pytest.approx(-278.0, abs=1.0)

    def test_uncorrelated_is_identity(self):
        b1, b2 = two_predictor_bridge(3.0, -2.0, 0.0, 0.0, 0.0)
        assert (b1, b2) == (3.0, -2.0)

    def test_perfect_correlation_rejected(self):
        with pytest.raises(CollinearityError):
            two_predictor_bridge(1.0, 1.0, 1.0, 1.0, 1.0)

    def test_closure_against_direct_fit(self, rng):
        # reconstructing (b1, b2) from (a1, a2, c12, c21, r) matches the
        # direct two-predictor fit on any full-rank dataset
        for _ in range(25):
            d = random_dataset(rng, int(rng.integers(8, 40)), 2)
            report = bridge(d, "Y", ["x1", "x2"], "x1")
            b1, b2 = two_predictor_bridge(
                report.slr["x1"],
                report.slr["x2"],
                report.c[("x1", "x2")],
                report.c[("x2", "x1")],
                report.r["x2"],
            )
            assert b1 == pytest.approx(report.mlr["x1"], rel=1e-9)
            assert b2 == pytest.approx(report.mlr["x2"], rel=1e-9)
            assert report.reconstruction_discrepancy < 1e-9 * max(
                1.0, abs(b1), abs(b2)
            )


class TestBridge:
    def test_uncorrelated_predictors_no_adjustment(self, coded_cells):
        report = bridge(coded_cells, "SDH", ["Pb", "Cd"], "Pb")
        assert report.b == pytest.approx(report.a, rel=1e-12)
        assert report.c[("Cd", "Pb")] == pytest.approx(0.0, abs=1e-12)
        assert report.c[("Pb", "Cd")] == pytest.approx(0.0, abs=1e-12)
        assert not report.sign_flip

    def test_abbott_carroll_collapse(self, rng):
        # the adjusted sum equals the simple slope for predictor-linear fits
        for _ in range(20):
            k = int(rng.integers(2, 6))
            d = random_dataset(rng, 30, k)
            report = bridge(d, "Y", [f"x{i + 1}" for i in range(k)], "x1")
            assert report.ac_sum == pytest.approx(report.a, rel=1e-9)

    def test_target_validated(self, rng):
        d = random_dataset(rng, 15, 2)
        with pytest.raises(UnknownPredictorError):
            bridge(d, "Y", ["x1", "x2"], "x9")

    def test_collinear_predictors(self, rng):
        x = rng.normal(size=12)
        d = Dataset({"Y": rng.normal(size=12), "a": x, "b": 3.0 * x})
        with pytest.raises(CollinearityError):
            bridge(d, "Y", ["a", "b"], "a")

    def test_expected_sign(self, rng):
        d = random_dataset(rng, 40, 2, coefs=np.array([-5.0, 1.0]), noise=0.1)
        report = bridge(d, "Y", ["x1", "x2"], "x1", expected_sign=+1)
        assert report.expectation_violation is True
        report = bridge(d, "Y", ["x1", "x2"], "x1", expected_sign=-1)
        assert report.expectation_violation is False


class TestResidualize:
    def test_uncorrelated_others_leave_column_alone(self, coded_cells):
        result = residualize(coded_cells, "Pb", ["Cd"])
        np.testing.assert_allclose(result.column, coded_cells.column("Pb"), atol=1e-12)
        assert result.slopes["Cd"] == pytest.approx(0.0, abs=1e-12)

    def test_slope_on_residualized_recovers_mlr_coefficient(self, rng):
        # independent oracle: the multivariate fit itself
        for _ in range(20):
            k = int(rng.integers(2, 5))
            d = random_dataset(rng, 25, k)
            names = [f"x{i + 1}" for i in range(k)]
            m = fit(d, ModelSpec("Y", tuple(Term.linear(n) for n in names)))
            target_coef = m.coefficient(Term.linear("x1"))
            star = residualize(d, "x1", names[1:]).column
            d_star = Dataset({"Y": d.column("Y"), "xs": star})
            slr = fit(d_star, ModelSpec("Y", (Term.linear("xs"),)))
            assert slr.coefficient(Term.linear("xs")) == pytest.approx(
                target_coef, rel=1e-9
            )

    def test_residualized_column_uncorrelated_with_removed(self, rng):
        d = random_dataset(rng, 30, 2)
        star = residualize(d, "x1", ["x2"]).column
        x2 = d.column("x2")
        sc = star - star.mean()
        oc = x2 - x2.mean()
        r = (sc @ oc) / np.sqrt((sc @ sc) * (oc @ oc))
        assert abs(r) < 1e-9

    def test_argument_validation(self, rng):
        d = random_dataset(rng, 10, 2)
        with pytest.raises(UnknownPredictorError):
            residualize(d, "x1", [])
        with pytest.raises(UnknownPredictorError):
            residualize(d, "x1", ["x1", "x2"])


class TestAbbottCarroll:
    def test_single_predictor(self, rng):
        # with one predictor the sum over co-predictors is empty
        d = random_dataset(rng, 15, 1)
        report = bridge(d, "Y", ["x1"], "x1")
        assert report.ac_sum == pytest.approx(report.a, rel=1e-12)
        assert abs(report.ac_sum - report.a) == pytest.approx(0.0, abs=1e-9)

    def test_identity_for_linear_models(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(10, 51))
            d = random_dataset(rng, n, k)
            report = bridge(d, "Y", [f"x{i + 1}" for i in range(k)], "x1")
            assert abs(report.ac_sum - report.a) < 1e-9 * max(1.0, abs(report.a))


class TestDetectParadox:
    def _example_report(self):
        return BridgeReport(
            target="SO2",
            a=52.5,
            b=-278.0,
            slr={"CO": 579.0, "SO2": 52.5},
            mlr={"CO": 1047.0, "SO2": -278.0},
            c={("CO", "SO2"): 0.316, ("SO2", "CO"): 1.683},
            r={"CO": 0.729},
            ac_sum=52.5,
            sign_flip=True,
        )

    def test_example_flip_detected(self):
        findings = detect_paradox(self._example_report())
        kinds = {f.kind for f in findings}
        assert "sign-flip" in kinds
        assert "high-correlation" in kinds

    def test_uncorrelated_clean_report(self, coded_cells):
        report = bridge(coded_cells, "SDH", ["Pb", "Cd"], "Pb")
        assert detect_paradox(report) == []

    def test_expectation_violation(self):
        report = replace(self._example_report(), expectation_violation=True)
        findings = detect_paradox(report)
        assert any(f.kind == "expectation-violation" for f in findings)

    def test_flip_flag_invariant_under_positive_rescaling(self, rng):
        d = random_dataset(rng, 30, 2)
        r1 = bridge(d, "Y", ["x1", "x2"], "x1")
        scaled = Dataset(
            {
                "Y": d.column("Y"),
                "x1": 10.0 * d.column("x1"),
                "x2": 0.25 * d.column("x2"),
            }
        )
        r2 = bridge(scaled, "Y", ["x1", "x2"], "x1")
        assert r1.sign_flip == r2.sign_flip
