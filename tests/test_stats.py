import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats

from condreg.stats import (
    chi_square_quantile_2dof,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(0.5, 8.5, 0.3), (3.0, 1.0, 0.7), (10.0, 10.0, 0.42)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity
        for x in [0.1, 0.25, 0.5, 0.9]:
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, rel=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = float(rng.uniform(0.2, 40.0))
            b = float(rng.uniform(0.2, 40.0))
            x = float(rng.uniform(0.0, 1.0))
            ours = regularized_incomplete_beta(a, b, x)
            ref = float(scipy.special.betainc(a, b, x))
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_t_zero_gives_one(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0

    def test_symmetric_in_t(self):
        assert student_t_two_sided_p(2.3, 11) == student_t_two_sided_p(-2.3, 11)

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = float(rng.normal(scale=3.0))
            dof = int(rng.integers(1, 200))
            ours = student_t_two_sided_p(t, dof)
            ref = 2.0 * float(scipy.stats.t.sf(abs(t), dof))
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_monotone_decreasing_in_abs_t(self):
        values = [student_t_two_sided_p(t, 17) for t in np.linspace(0.0, 8.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_clamped_into_unit_interval(self):
        assert 0.0 < student_t_two_sided_p(1e8, 3) <= 1.0
        assert student_t_two_sided_p(math.inf, 3) > 0.0

    def test_nan_statistic_propagates(self):
        assert math.isnan(student_t_two_sided_p(math.nan, 4))

    def test_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0)

    @pytest.mark.parametrize("dof", [5, 30, 998])
    def test_against_mpmath(self, dof):
        # 40-digit oracle; small |t| at large dof is where 1 - x cancels.
        # log_beta's rounding limits other dof more (3.7e-12 at dof 920).
        with mpmath.workdps(40):
            v = mpmath.mpf(dof)
            for t in np.logspace(-6.0, math.log10(40.0), 150):
                tt = mpmath.mpf(float(t)) ** 2
                ref = mpmath.betainc(v / 2, mpmath.mpf(0.5), 0, v / (v + tt), regularized=True)
                ours = student_t_two_sided_p(float(t), dof)
                assert ours == pytest.approx(float(ref), rel=1e-12), t


class TestChiSquareQuantile:
    def test_95_percent(self):
        # independent oracle: numeric inversion of the CDF 1 - exp(-x/2)
        assert chi_square_quantile_2dof(0.95) == pytest.approx(5.99146454710798, abs=1e-10)

    def test_matches_scipy_inversion(self):
        for level in [0.5, 0.75, 0.9, 0.95, 0.99]:
            ref = float(scipy.stats.chi2.ppf(level, 2))
            assert chi_square_quantile_2dof(level) == pytest.approx(ref, rel=1e-12)

    def test_round_trip_through_cdf(self):
        for level in [0.1, 0.42, 0.8, 0.999]:
            q = chi_square_quantile_2dof(level)
            assert 1.0 - math.exp(-q / 2.0) == pytest.approx(level, rel=1e-12)

    def test_rejects_bad_level(self):
        for level in [0.0, 1.0, -0.2, 2.0]:
            with pytest.raises(ValueError):
                chi_square_quantile_2dof(level)
