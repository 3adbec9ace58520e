import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from condreg.dataset import correlation_p_value
from condreg.stats import (
    _BLOCK,
    _incomplete_beta,
    chi_square_quantile_2dof,
    log_beta,
    student_t_two_sided_p,
)


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) at one x, through the array routine the t tail uses."""
    return float(_incomplete_beta(a, b, np.array([x]), np.array([1.0 - x]))[0])


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
        with pytest.raises(ValueError):
            student_t_two_sided_p(np.ones(3), -1.0)

    @pytest.mark.parametrize("dof", [5, 30, 920, 998])
    def test_against_mpmath(self, dof):
        # 40-digit oracle; small |t| at large dof is where 1 - x cancels.
        with mpmath.workdps(40):
            v = mpmath.mpf(dof)
            for t in np.logspace(-6.0, math.log10(40.0), 150):
                tt = mpmath.mpf(float(t)) ** 2
                ref = mpmath.betainc(v / 2, mpmath.mpf(0.5), 0, v / (v + tt), regularized=True)
                ours = student_t_two_sided_p(float(t), dof)
                assert ours == pytest.approx(float(ref), rel=1e-12), t

    @pytest.mark.parametrize("dof, rel", [(2e5, 1e-10), (1e8, 5e-8)])
    def test_large_dof_against_mpmath(self, dof, rel):
        # what is left at large dof is log x's rounding times dof/2
        t = np.concatenate([np.logspace(-3.0, 1.0, 40), np.linspace(1.5, 2.0, 21)])
        np.testing.assert_allclose(student_t_two_sided_p(t, dof), [_mpmath_p(float(v), dof) for v in t],
                                   rtol=rel, atol=0.0)

    @pytest.mark.parametrize("dof", [5, 30, 998, 2e5])
    def test_tiny_t_takes_p_from_the_complement(self, dof):
        """Where t^2 < dof * 2^-53, dof/(dof + t^2) rounds to 1 but p does not."""
        bound = math.sqrt(dof * 2.0**-53)
        with mpmath.workdps(50):
            v = mpmath.mpf(dof)
            for t in np.logspace(math.log10(bound) - 8.0, math.log10(bound), 40, endpoint=False):
                t = float(t)
                assert t * t < dof * 2.0**-53
                tt = mpmath.mpf(t) ** 2
                ref = float(mpmath.betainc(v / 2, mpmath.mpf(0.5), 0, v / (v + tt), regularized=True))
                ours = student_t_two_sided_p(t, dof)
                assert ours < 1.0
                assert ours == pytest.approx(ref, rel=2e-15, abs=0.0), t
                assert ours == pytest.approx(2.0 * float(scipy.special.stdtr(dof, -t)), rel=2e-15, abs=0.0), t


def _mpmath_p(t: float, dof: float) -> float:
    with mpmath.workdps(40):
        v, tt = mpmath.mpf(dof), mpmath.mpf(t) ** 2
        return float(mpmath.betainc(v / 2, mpmath.mpf(0.5), 0, v / (v + tt), regularized=True))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestLogBeta:
    @pytest.mark.parametrize("dof", [1, 8, 11, 19.5])
    def test_small_arguments_keep_the_log_gamma_sum(self, dof):
        a = dof / 2
        assert log_beta(a, 0.5) == math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)

    @pytest.mark.parametrize("dof", [20, 21, 30, 920, 998, 2e5, 1e8, 1e12])
    def test_half_against_mpmath(self, dof):
        with mpmath.workdps(50):
            ref = mpmath.log(mpmath.beta(mpmath.mpf(dof) / 2, mpmath.mpf(0.5)))
            assert abs(mpmath.mpf(log_beta(dof / 2, 0.5)) - ref) < 1e-15
            assert log_beta(0.5, dof / 2) == log_beta(dof / 2, 0.5)

    @pytest.mark.parametrize("a, b", [(3.0, 40.0), (12.5, 15.0), (0.2, 1e6), (40.0, 40.0)])
    def test_other_shapes_against_mpmath(self, a, b):
        with mpmath.workdps(50):
            ref = mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(b)))
            assert float(ref) == pytest.approx(log_beta(a, b), rel=1e-14, abs=1e-15)


class TestArrayTail:
    """One call over an array of t: each entry as a one-element call gives it."""

    def test_against_mpmath_with_both_representations(self):
        dof = 30
        t = np.concatenate([np.logspace(-4.0, math.log10(40.0), 60), -np.logspace(-2.0, 1.0, 20)])
        x = dof / (dof + t * t)
        first = x < (dof / 2 + 1.0) / (dof / 2 + 2.5)
        assert first.any() and not first.all()
        p = student_t_two_sided_p(t, dof)
        np.testing.assert_allclose(p, [_mpmath_p(float(v), dof) for v in t], rtol=1e-12, atol=0.0)

    def test_edge_values_in_one_array(self):
        dof = 998
        tiny = 1e-9  # t^2 < dof * 2^-53: the complement branch
        assert dof / (dof + tiny * tiny) == 1.0
        t = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, tiny, -tiny, 1e40, 1e200, 2.0])
        p = student_t_two_sided_p(t, dof)
        assert math.isnan(p[0])
        assert list(p[1:3]) == [5e-324, 5e-324]
        assert list(p[3:5]) == [1.0, 1.0]
        assert p[5] == p[6] < 1.0
        assert p[5] == pytest.approx(_mpmath_p(tiny, dof), rel=2e-15, abs=0.0)
        # p underflows to the floor with t^2 finite (1e80) and with t^2 = inf
        assert list(p[7:9]) == [5e-324, 5e-324]
        assert 0.0 < p[9] < 1.0
        for value, got in zip(t, p):
            assert _bits(student_t_two_sided_p(float(value), dof)) == _bits(got)

    def test_shapes(self):
        assert type(student_t_two_sided_p(2.0, 10)) is float
        zero_d = student_t_two_sided_p(np.array(2.0), 10)
        assert type(zero_d) is float and zero_d == student_t_two_sided_p(2.0, 10)
        for shape in [(0,), (0, 3)]:
            empty = student_t_two_sided_p(np.zeros(shape), 10)
            assert isinstance(empty, np.ndarray) and empty.shape == shape
        grid = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        p = student_t_two_sided_p(grid, 10)
        assert p.shape == (3, 4)
        assert (_bits(p) == _bits([[student_t_two_sided_p(float(v), 10) for v in row] for row in grid])).all()
        assert student_t_two_sided_p([1.0, 2.0], 10).shape == (2,)

    @pytest.mark.parametrize("dof", [1, 3, 10, 30.5, 998, 2e5])
    def test_each_entry_equals_a_one_element_call(self, dof):
        rng = np.random.default_rng(int(dof * 2) % 1000)
        t = np.concatenate([rng.normal(scale=s, size=40) for s in (1e-8, 0.3, 2.0, 8.0, 1e4)])
        p = student_t_two_sided_p(t, dof)
        singles = [student_t_two_sided_p(float(v), dof) for v in t]
        assert (_bits(p) == _bits(singles)).all()
        assert (_bits(p[::-1]) == _bits(student_t_two_sided_p(t[::-1].copy(), dof))).all()


# Zeros of both signs, the smallest subnormal and a larger one, +-inf and NaN.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan]


@given(
    st.sampled_from([1, 2.5, 30, 998, 2e5, 1e8]),
    st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(-50.0, 50.0), st.floats()), max_size=40),
)
def test_an_array_of_both_representations_equals_one_element_calls(dof, drawn):
    # |t| = 0.5 takes the (b, a, 1 - x) representation and |t| = 40 the (a, b, x) one at every dof
    t = np.array([0.5, *drawn, 40.0])
    with np.errstate(over="ignore"):
        x = dof / (dof + t[[0, -1]] ** 2)
    assert list(x < (dof / 2 + 1.0) / (dof / 2 + 2.5)) == [False, True]
    p = student_t_two_sided_p(t, dof)
    assert (_bits(p) == _bits([student_t_two_sided_p(float(v), dof) for v in t])).all()


def test_blocks_leave_every_entry_as_it_is():
    rng = np.random.default_rng(11)
    t = np.concatenate([rng.normal(scale=3.0, size=2 * _BLOCK + 17), _EDGES])
    rng.shuffle(t)
    chunks = [student_t_two_sided_p(t[i : i + 10_007], 998) for i in range(0, t.size, 10_007)]
    assert (_bits(student_t_two_sided_p(t, 998)) == _bits(np.concatenate(chunks))).all()


def _p_value_peak(size: int) -> int:
    """Bytes correlation_p_value allocates on ``size`` values of r, beyond
    its t and its result, 8 bytes a value each."""
    r = np.random.default_rng(3).uniform(-0.3, 0.3, size)
    tracemalloc.start()
    try:
        correlation_p_value(r, 1000)
        return tracemalloc.get_traced_memory()[1] - 2 * r.nbytes
    finally:
        tracemalloc.stop()


def test_the_tail_holds_one_block_whatever_its_input():
    """Beyond t and p, the peak on 1,000,000 values is that of two blocks,
    up to 1% for how the continued fraction's elements converge."""
    assert _p_value_peak(1_000_000) <= 1.01 * _p_value_peak(2 * _BLOCK)


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
