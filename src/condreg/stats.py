"""Distribution routines used by the inference code, an array at a time.

Two-sided Student-t tail probabilities go through the regularized
incomplete beta function, evaluated with a modified-Lentz continued
fraction (Thompson & Barnett 1986).  :func:`student_t_two_sided_p`
takes a float or an array of t with one dof and returns a float or an
array of t's shape.  It works through t in blocks of
``ROW_BLOCK_BYTES // 8`` elements, so its working set is that of one
block whatever t's size: the block's x and 1 - x, the prefactor, and
the continued fraction's elements of one representation with their
state (c, d, h, delta, two rows of Lentz scratch, two of coefficients
and the result).
Where every x of a block lies strictly inside (0, 1), x and 1 - x are
used as they are, not gathered; the b log y term, the fraction's
scaling by the prefactor and the clip to (0, 1] are formed in place;
and the map from live elements back to the result exists only once done
elements have first been dropped.  A one-block call peaks under
tracemalloc at 12.6 block-long arrays, its result included, when the
block splits 39 : 61 between the representations, and at 17.1 when
every element takes one.  Within a block each element takes the (a, b,
x) or (b, a, 1 - x) representation by its own x, and one loop per
representation runs the continued fraction, with scalar shape
parameters, over that representation's elements at once; an element's
result is its h at the iteration where its own |delta - 1| < _REL_TOL.
The prefactor's log, log1p and exp are numpy ufuncs over the block,
each representation's logarithm under a ``where=`` mask.  A ufunc
computes each element on its own, so each entry equals a one-element
call bit for bit, whatever the block or the other elements.  Arguments
outside the domain (a or b not positive, x or 1 - x outside [0, 1])
raise ValueError.  log B(dof/2, 1/2) comes from a Stirling-series
difference once dof >= 20, within 1e-15 of 50-digit mpmath up to dof
1e12.
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

from .defaults import ROW_BLOCK_BYTES

_REL_TOL = 1e-13
_MAX_ITER = 500
_TINY = 1e-300
# Continued-fraction coefficients formed at once, live elements times
# iterations to come: many iterations' worth for one element, one
# iteration's for many.
_BATCH = 256
# Elements of t per block of the tail: its arrays are each a block long.
_BLOCK = ROW_BLOCK_BYTES // 8

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


def _beta_continued_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz) at shape
    parameters a and b, per element of the 1-D array x.

    An iteration is an even and an odd step of d, c and h, updated in
    place.  The coefficients are formed in one reused buffer; while few
    elements are live, those of several iterations are formed at once.
    An element is done at the iteration where its own |delta - 1| <
    _REL_TOL, and its h then is its result; its d is then set to NaN, so
    that it is never done again.  Done elements leave the arrays only once
    they are at least half of them, and the live ones are moved to the
    front of the same buffers, x's among them: x is overwritten.
    """
    out = np.empty_like(x)
    if not x.size:
        return out
    index = None  # out's positions of the live elements, once they have moved
    c = np.ones_like(x)
    d = 1.0 / _away_from_zero(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    delta, done, work = np.empty_like(x), np.zeros(x.size, dtype=bool), np.empty((2, x.size))
    buffer = np.empty(2 * max(_BATCH, x.size))
    m = 1
    while m <= _MAX_ITER:
        steps = np.arange(m, min(m + max(_BATCH // x.size, 1), _MAX_ITER + 1), dtype=float)
        coefficients = buffer[: 2 * steps.size * x.size].reshape(2, steps.size, x.size)
        _coefficients(a, b, steps, x, coefficients)
        rows = tuple(work)
        for even, odd in zip(*coefficients):
            m += 1
            for coefficient, sign in ((even, np.add), (odd, np.subtract)):
                _lentz_step(d, c, coefficient, sign, work, rows)
                np.multiply(h, np.multiply(d, c, out=delta), out=h)
            # .nonzero(), not np.flatnonzero: fewer Python calls an iteration
            new = (np.abs(delta - 1.0) < _REL_TOL).nonzero()[0]
            if not new.size:
                continue
            out[new if index is None else index[new]] = h[new]
            d[new] = math.nan
            done[new] = True
            if 2 * np.count_nonzero(done) < done.size:
                continue
            live = np.flatnonzero(~done)
            if not live.size:
                return out
            index = live if index is None else _move_to_front(index, live)
            x, c, d, h = (_move_to_front(v, live) for v in (x, c, d, h))
            delta, done, work = delta[: live.size], done[: live.size], work[:, : live.size]
            done[:] = False
            break
    i = np.argmin(done)
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x[i]})"
    )


def _coefficients(a: float, b: float, m: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """The even coefficients m (b - m) x / ((a - 1 + 2m)(a + 2m)) of the steps
    m into out[0], and minus the odd ones, (a + m)(a + b + m) x / ((a + 2m)(a
    + 1 + 2m)), into out[1]: one row per step, one column per element of x."""
    both = a + 2.0 * m
    even, odd = out
    np.multiply((m * (b - m))[:, None], x, out=even)
    np.divide(even, ((a - 1.0 + 2.0 * m) * both)[:, None], out=even)
    np.multiply(((a + m) * (a + b + m))[:, None], x, out=odd)
    np.divide(odd, (both * (a + 1.0 + 2.0 * m))[:, None], out=odd)


def _move_to_front(v: np.ndarray, live: np.ndarray) -> np.ndarray:
    v[: live.size] = v[live]
    return v[: live.size]


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
    inner = (x != 0.0) & (y != 0.0)
    if inner.all():
        return _inner_incomplete_beta(a, b, x, y)
    out = np.where(x == 0.0, 0.0, 1.0)
    out[inner] = _inner_incomplete_beta(a, b, x[inner], y[inner])
    return out


def _inner_incomplete_beta(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I_x(a, b) where neither x nor y = 1 - x is 0, in a new array."""
    # Each element takes the representation that converges fastest.
    first = x < (a + 1.0) / (a + b + 2.0)
    second = ~first
    # front = exp(a log x + b log y - log B(a, b)), formed in place.  Where
    # x is near 1 the subtraction amplifies any error in front, so log x
    # is taken from the complement.
    front = np.log(x, out=np.empty_like(x), where=first)
    np.log1p(-y, out=front, where=second)
    front *= a
    term = np.log(y)
    front += np.multiply(term, b, out=term)
    del term  # not held through the continued fraction
    front -= log_beta(a, b)
    np.exp(front, out=front)
    for rows, shape, other, z, complement in ((first, a, b, x, False), (second, b, a, y, True)):
        fraction = _beta_continued_fraction(shape, other, z[rows])
        fraction *= front[rows]  # gathered now, not held through the fraction
        fraction /= shape
        front[rows] = np.subtract(1.0, fraction, out=fraction) if complement else fraction
    return front


def student_t_two_sided_p(t, dof: float):
    """P(|T_dof| >= |t|) = I_{dof/(dof+t^2)}(dof/2, 1/2), clamped to (0, 1].

    t is a float or an array; the result is a float or an array of t's
    shape.  NaN gives NaN and +-inf the floor.  The elements are taken
    in blocks of _BLOCK, so the working set does not grow with t's size.
    """
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    values = np.asarray(t, dtype=float)
    flat = values.ravel()
    p = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        _two_sided_p(flat[start : start + _BLOCK], dof, p[start : start + _BLOCK])
    return float(p[0]) if values.ndim == 0 else p.reshape(values.shape)


def _two_sided_p(t: np.ndarray, dof: float, out: np.ndarray) -> None:
    out.fill(_P_FLOOR)
    out[np.isnan(t)] = math.nan
    finite = np.isfinite(t)
    with np.errstate(over="ignore", invalid="ignore"):
        tt = t[finite]
        tt *= tt
        total = dof + tt
        # 1 - x from tt, not by subtraction (unused when tt = inf, as x = 0)
        y = np.divide(tt, total, out=tt)
        x = np.divide(dof, total, out=total)
    p = _incomplete_beta(dof / 2.0, 0.5, x, y)
    out[finite] = np.clip(p, _P_FLOOR, 1.0, out=p)


def chi_square_quantile_2dof(level: float) -> float:
    """Quantile of chi-square with 2 dof: inverse of CDF 1 - exp(-x/2)."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return -2.0 * math.log1p(-level)
