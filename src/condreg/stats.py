"""Distribution routines used by the inference code, an array at a time.

Two-sided Student-t tail probabilities go through the regularized
incomplete beta function, evaluated with a modified-Lentz continued
fraction (Thompson & Barnett 1986).  :func:`student_t_two_sided_p` takes
a float or an array of t with one dof and returns a float or an array
of t's shape.  One loop runs the continued fraction over every element
at once; an element's result is its h at the iteration where its own
|delta - 1| < _REL_TOL, and it takes the (a, b, x) or (b, a, 1 - x)
representation by its own x.  The prefactor's log, log1p and exp are
numpy ufuncs over the whole array, each representation's logarithm
under a ``where=`` mask; a ufunc computes each element on its own, so
each entry equals a one-element call bit for bit.  Arguments outside
the domain (a or b not positive, x or 1 - x outside [0, 1]) raise
ValueError.  log B(dof/2, 1/2) comes from a Stirling-series difference
once dof >= 20, within 1e-15 of 50-digit mpmath up to dof 1e12.
Against 40-digit mpmath the relative error of p is below 3e-13 at dof
5, 30, 920 and 998 for 1e-6 <= |t| <= 40; it grows with dof to 3.2e-11
at dof 2e5 and 1.4e-8 at 1e8.  What is left is the rounding of log x
scaled by a = dof/2 in the prefactor exp(a log x + b log y - log B).  Once
t^2 < dof * 2^-53, dof/(dof + t^2) rounds to 1 but its complement
t^2/(dof + t^2) does not, so p is taken from the complement and stays
below 1.  The chi-square quantile is only needed for 2 degrees of
freedom, where the CDF is 1 - exp(-x/2) and the inverse is closed-form.
"""

from __future__ import annotations

import math

import numpy as np

_REL_TOL = 1e-13
_MAX_ITER = 500
_TINY = 1e-300
# Continued-fraction coefficients formed at once, live elements times
# iterations to come: many iterations' worth for one element, one
# iteration's for many.
_BATCH = 256

# Smallest positive double; tail probabilities are clamped here so that
# p stays inside (0, 1] even when |t| is astronomically large.
_P_FLOOR = 5e-324


# Stirling series of log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2),
# B_2k / (2k (2k - 1)) for k = 1..7: its truncation error stays below
# 1e-15 from z = _STIRLING_FROM on.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_FROM = 10.0


def _stirling_remainder(z: float) -> float:
    z2 = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * z2 + c
    return s / z


def log_beta(a: float, b: float) -> float:
    """log B(a, b).

    When the larger argument is at least _STIRLING_FROM, log Gamma(large)
    - log Gamma(small + large) is taken from a Stirling-series difference
    (DiDonato & Morris 1992, TOMS 708 ``algdiv``) instead of subtracting
    two log-gammas of size large * log(large), which loses their rounding.
    """
    small, large = min(a, b), max(a, b)
    if large < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    ratio = (
        (_stirling_remainder(large) - _stirling_remainder(small + large))
        - small * (math.log(large) - 1.0)
        - (small + large - 0.5) * math.log1p(small / large)
    )
    return math.lgamma(small) + ratio


def _away_from_zero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _beta_continued_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), per
    element of the equal-length 1-D arrays a, b and x.

    An iteration is an even and an odd step of d, c and h, updated in
    place; while few elements are live, the coefficients of several
    iterations are formed at once.  An element is done at the iteration
    where its own |delta - 1| < _REL_TOL, and its h then is its result;
    its d is then set to NaN, so that it is never done again.  Done
    elements leave the arrays only once they are at least half of them.
    """
    out = np.empty_like(x)
    if not x.size:
        return out
    index = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _away_from_zero(1.0 - qab * x / qap)
    h = d.copy()
    delta, done, work = np.empty_like(x), np.zeros(x.size, dtype=bool), np.empty((2, x.size))
    first = 1
    while first <= _MAX_ITER:
        m = np.arange(first, min(first + max(_BATCH // x.size, 1), _MAX_ITER + 1), dtype=float)
        first += len(m)
        m = m[:, None]
        both = a + 2.0 * m
        even = m * (b - m) * x / ((qam + 2.0 * m) * both)
        # minus the odd coefficient -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        odd = (a + m) * (qab + m) * x / (both * (qap + 2.0 * m))
        rows = tuple(work)
        for k in range(len(m)):
            for coefficient, sign in ((even[k], np.add), (odd[k], np.subtract)):
                _lentz_step(d, c, coefficient, sign, work, rows)
                np.multiply(h, np.multiply(d, c, out=delta), out=h)
            new = np.flatnonzero(np.abs(delta - 1.0) < _REL_TOL)
            if not new.size:
                continue
            out[index[new]] = h[new]
            d[new] = math.nan
            done[new] = True
            if 2 * np.count_nonzero(done) < done.size:
                continue
            live = np.flatnonzero(~done)
            if not live.size:
                return out
            index, a, b, x, qab, qap, qam, c, d, h, delta, work, even, odd = (
                v.take(live, axis=-1)
                for v in (index, a, b, x, qab, qap, qam, c, d, h, delta, work, even, odd)
            )
            done, rows = done[live], tuple(work)
    i = np.argmin(done)
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a[i]}, b={b[i]}, x={x[i]})"
    )


def _lentz_step(d, c, coefficient, sign, work, rows) -> None:
    """One Lentz step in place: d = 1 / (1 +- e d) and c = 1 +- e / c, both
    kept away from zero, for a coefficient of +-e (``sign`` is np.add or
    np.subtract).  ``work`` is 2 x len(d) scratch and ``rows`` its rows."""
    np.multiply(coefficient, d, out=rows[0])
    np.divide(coefficient, c, out=rows[1])
    sign(1.0, work, out=work)
    tiny = np.abs(work) < _TINY
    if np.count_nonzero(tiny):
        work[tiny] = _TINY
    np.divide(1.0, rows[0], out=d)
    np.copyto(c, rows[1])


def _incomplete_beta(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I_x(a, b) per element of 1-D arrays x and y = 1 - x, given both so
    that neither is formed by subtraction.  Raises ValueError unless a and
    b are positive and x and y lie in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if np.any((x < 0.0) | (x > 1.0) | (y < 0.0) | (y > 1.0)):
        raise ValueError("x and 1 - x must lie in [0, 1]")
    out = np.where(x == 0.0, 0.0, 1.0)
    inner = (x != 0.0) & (y != 0.0)
    x, y = x[inner], y[inner]
    # Each element takes the representation that converges fastest.
    first = x < (a + 1.0) / (a + b + 2.0)
    # Where x is near 1 the subtraction below amplifies any error in
    # front, so log x is taken from the complement.
    log_x = np.log(x, out=np.empty_like(x), where=first)
    np.log1p(-y, out=log_x, where=~first)
    front = np.exp(a * log_x + b * np.log(y) - log_beta(a, b))
    shape_a = np.where(first, a, b)
    fraction = front * _beta_continued_fraction(
        shape_a, np.where(first, b, a), np.where(first, x, y)
    ) / shape_a
    out[inner] = np.where(first, fraction, 1.0 - fraction)
    return out


def student_t_two_sided_p(t, dof: float):
    """P(|T_dof| >= |t|) = I_{dof/(dof+t^2)}(dof/2, 1/2), clamped to (0, 1].

    t is a float or an array; the result is a float or an array of t's
    shape.  NaN gives NaN and +-inf the floor.
    """
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    values = np.asarray(t, dtype=float)
    flat = values.ravel()
    p = np.where(np.isnan(flat), math.nan, _P_FLOOR)
    finite = np.isfinite(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        tt = flat[finite] * flat[finite]
        # 1 - x from tt, not by subtraction (unused when tt = inf, as x = 0)
        x, y = dof / (dof + tt), tt / (dof + tt)
    p[finite] = np.clip(_incomplete_beta(dof / 2.0, 0.5, x, y), _P_FLOOR, 1.0)
    return float(p[0]) if values.ndim == 0 else p.reshape(values.shape)


def chi_square_quantile_2dof(level: float) -> float:
    """Quantile of chi-square with 2 dof: inverse of CDF 1 - exp(-x/2)."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return -2.0 * math.log1p(-level)
