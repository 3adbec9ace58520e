"""Scalar distribution routines used by the inference code.

Two-sided Student-t tail probabilities go through the regularized
incomplete beta function, evaluated with a modified-Lentz continued
fraction.  Against 40-digit mpmath the relative error is below 3e-13 at
dof 5, 30 and 998 for 1e-6 <= |t| <= 40.  log_beta's rounding grows with
dof (3.7e-12 at dof 920, 3e-9 at 2e5, 2e-7 at 1e8).  Once t^2 < dof * 2^-53,
dof/(dof + t^2) rounds to 1 but its complement t^2/(dof + t^2) does not,
so p is taken from the complement and stays below 1.  The chi-square
quantile is only needed for 2 degrees of freedom, where the CDF is
1 - exp(-x/2) and the inverse is closed-form.
"""

from __future__ import annotations

import math

_REL_TOL = 1e-13
_MAX_ITER = 500
_TINY = 1e-300

# Smallest positive double; tail probabilities are clamped here so that
# p stays inside (0, 1] even when |t| is astronomically large.
_P_FLOOR = 5e-324


def log_beta(a: float, b: float) -> float:
    """log B(a, b) via log-gamma."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return _incomplete_beta(a, b, x, 1.0 - x)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) given both x and y = 1 - x, so neither is formed by subtraction."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    # Use the representation that converges fastest.
    if x < (a + 1.0) / (a + b + 2.0):
        front = math.exp(a * math.log(x) + b * math.log(y) - log_beta(a, b))
        return front * _beta_continued_fraction(a, b, x) / a
    # Here x is near 1 and the subtraction below amplifies any error in
    # front, so log x is taken from the complement.
    front = math.exp(a * math.log1p(-y) + b * math.log(y) - log_beta(a, b))
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T_dof| >= |t|) = I_{dof/(dof+t^2)}(dof/2, 1/2), clamped to (0, 1]."""
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return _P_FLOOR
    tt = t * t
    # 1 - x from tt, not by subtraction (unused when tt = inf, as x = 0)
    p = _incomplete_beta(dof / 2.0, 0.5, dof / (dof + tt), tt / (dof + tt))
    return min(1.0, max(p, _P_FLOOR))


def chi_square_quantile_2dof(level: float) -> float:
    """Quantile of chi-square with 2 dof: inverse of CDF 1 - exp(-x/2)."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return -2.0 * math.log1p(-level)
