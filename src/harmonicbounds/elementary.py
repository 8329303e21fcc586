"""Certified elementary functions on balls: ln, exp, sqrt.

The kernels work on plain integers scaled by 2^-w (w = working bits) with
directed rounding: lower bounds only ever round down, upper bounds only
ever round up, so the returned interval encloses the true value by
construction.  Interval inputs are handled by evaluating at the midpoint
and adding a Lipschitz term, or for wide inputs by endpoint evaluation.

ln uses argument reduction to t in [1, 2) followed by the atanh series
    ln t = 2 * atanh((t-1)/(t+1)),   u = (t-1)/(t+1) in [0, 0.34)
whose tail is geometric with ratio u^2 < 0.12.  exp reduces modulo ln 2
and sums the Taylor series with a ratio tail bound.  ln 2 itself is
2 * atanh(1/3), cached per working precision.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction

from .ball import (
    Ball,
    DomainError,
    RangeError,
    MAX_PRECISION,
    _dyadic_fraction,
    _endpoints_scaled,
    _from_int_interval,
    add_rad_fraction,
    bits_of,
    hull,
)

__all__ = ["ln", "exp", "sqrt", "ln2_ball"]

# extra guard bits between requested precision and the integer kernels
_GUARD = 24

_SERIES_STOP = 32


def _working_bits(p: int) -> int:
    return min(p + _GUARD, MAX_PRECISION + 2 * _GUARD)


def _atanh_sum_iv(u_lo: int, u_hi: int, w: int) -> tuple[int, int]:
    """Enclose sum_{j>=0} u^(2j+1)/(2j+1) for u in [u_lo, u_hi]*2^-w, u < 0.35."""
    if u_hi > (2**w * 35) // 100 + 2:
        raise AssertionError("atanh argument out of the reduced range")
    v_lo = (u_lo * u_lo) >> w
    v_hi = ((u_hi * u_hi) >> w) + 1
    p_lo, p_hi = u_lo, u_hi
    s_lo = s_hi = 0
    d = 1
    while p_hi > _SERIES_STOP:
        s_lo += p_lo // d
        s_hi += -(-p_hi // d)
        p_lo = (p_lo * v_lo) >> w
        p_hi = ((p_hi * v_hi) >> w) + 1
        d += 2
    # geometric tail: remaining sum <= (p_hi/d) * 1/(1 - u^2) <= (8/7)(p_hi/d)
    s_hi += -(-(8 * p_hi) // (7 * d))
    return s_lo, s_hi


@lru_cache(maxsize=64)
def _ln2_iv(w: int) -> tuple[int, int]:
    """ln 2 = 2*atanh(1/3) as an integer interval at scale 2^-w."""
    u_lo = (1 << w) // 3
    s_lo, s_hi = _atanh_sum_iv(u_lo, u_lo + 1, w)
    return 2 * s_lo, 2 * s_hi


@lru_cache(maxsize=512)
def _ln_dyadic(man: int, exp: int, w: int) -> tuple[int, int]:
    """ln(man*2^exp) for man > 0 as an integer interval at scale 2^-w."""
    bl = man.bit_length()
    k = exp + bl - 1  # man*2^exp = t * 2^k with t in [1, 2)
    s = w - (bl - 1)
    if s >= 0:
        t_lo = t_hi = man << s
    else:
        t_lo = man >> -s
        t_hi = t_lo if man & ((1 << -s) - 1) == 0 else t_lo + 1
    one = 1 << w
    u_lo = ((t_lo - one) << w) // (t_hi + one)
    u_hi = -((-((t_hi - one) << w)) // (t_lo + one))
    s_lo, s_hi = _atanh_sum_iv(u_lo, u_hi, w)
    lo, hi = 2 * s_lo, 2 * s_hi
    if k:
        l2_lo, l2_hi = _ln2_iv(w)
        if k > 0:
            lo += k * l2_lo
            hi += k * l2_hi
        else:
            lo += k * l2_hi
            hi += k * l2_lo
    return lo, hi


def ln2_ball(prec) -> Ball:
    """Certified enclosure of ln 2."""
    p = bits_of(prec)
    w = _working_bits(p)
    lo, hi = _ln2_iv(w)
    return _from_int_interval(lo, hi, -w, p)


def ln(a: Ball, prec) -> Ball:
    """Natural logarithm of a ball whose enclosure is strictly positive."""
    p = bits_of(prec)
    lo_end, hi_end, e = _endpoints_scaled(a)
    if lo_end <= 0:
        raise DomainError("ln needs a strictly positive enclosure")
    w = _working_bits(p)
    lo, hi = _ln_dyadic(a.man, a.exp, w)
    res = _from_int_interval(lo, hi, -w, p)
    if a.rman:
        # |ln x - ln mid| <= radius / inf(ball)
        pad = a.rad_fraction() / _dyadic_fraction(lo_end, e)
        res = add_rad_fraction(res, pad)
    return res


def _imul_iv(a_lo: int, a_hi: int, b_lo: int, b_hi: int, w: int) -> tuple[int, int]:
    c1 = a_lo * b_lo
    c2 = a_lo * b_hi
    c3 = a_hi * b_lo
    c4 = a_hi * b_hi
    lo = min(c1, c2, c3, c4) >> w
    hi = -((-max(c1, c2, c3, c4)) >> w)
    return lo, hi


def _float_of_dyadic(man: int, exp: int) -> float:
    bl = man.bit_length()
    drop = max(0, bl - 53)
    return math.ldexp(man >> drop, exp + drop)


def _exp_dyadic(man: int, exp: int, w: int) -> tuple[int, int, int]:
    """exp(man*2^exp) as ([lo, hi], k): value lies in [lo, hi]*2^(k-w)."""
    if man == 0:
        one = 1 << w
        return one, one, 0
    if man.bit_length() + exp > 25:
        raise RangeError("exp argument magnitude above 2^25 is not supported")
    s = exp + w
    if s >= 0:
        x_lo = x_hi = man << s
    else:
        q = man >> -s
        x_lo = q
        x_hi = q if man & ((1 << -s) - 1) == 0 else q + 1
    l2_lo, l2_hi = _ln2_iv(w)
    k = int(math.floor(_float_of_dyadic(man, exp) * 1.4426950408889634 + 0.5))
    bound = (2**w * 36) // 100
    for _ in range(3):
        if k >= 0:
            r_lo = x_lo - k * l2_hi
            r_hi = x_hi - k * l2_lo
        else:
            r_lo = x_lo - k * l2_lo
            r_hi = x_hi - k * l2_hi
        if r_hi > bound:
            k += 1
        elif r_lo < -bound:
            k -= 1
        else:
            break
    else:
        raise AssertionError("exp argument reduction failed to settle")
    one = 1 << w
    t_lo = t_hi = one
    s_lo = s_hi = one
    j = 1
    while max(abs(t_lo), abs(t_hi)) > _SERIES_STOP:
        t_lo, t_hi = _imul_iv(t_lo, t_hi, r_lo, r_hi, w)
        t_lo = t_lo // j
        t_hi = -(-t_hi // j)
        s_lo += t_lo
        s_hi += t_hi
        j += 1
        if j > 10000:
            raise AssertionError("exp series failed to converge")
    # remaining terms are geometric with ratio |r|/(j+1) <= 0.36
    m = max(abs(t_lo), abs(t_hi)) + 1
    return s_lo - m, s_hi + m, k


def exp(a: Ball, prec) -> Ball:
    """Exponential of a ball."""
    p = bits_of(prec)
    w = _working_bits(p)
    lo, hi, k = _exp_dyadic(a.man, a.exp, w)
    res = _from_int_interval(lo, hi, k - w, p)
    if a.rman == 0:
        return res
    r = a.rad_fraction()
    if r <= Fraction(1, 2):
        # e^x <= e^mid * e^r <= 2 * sup(point enclosure) for r <= 1/2
        pad = 2 * r * res.upper()
        return add_rad_fraction(res, pad)
    # wide input: exp is increasing, evaluate both endpoints
    lo_end, hi_end, e = _endpoints_scaled(a)
    b_lo = exp(Ball(lo_end, e), p)
    b_hi = exp(Ball(hi_end, e), p)
    return hull(b_lo, b_hi, p)


def sqrt(a: Ball, prec) -> Ball:
    """Square root of a nonnegative ball via integer isqrt on the endpoints."""
    p = bits_of(prec)
    lo, hi, e = _endpoints_scaled(a)
    if lo < 0:
        raise DomainError("sqrt needs a nonnegative enclosure")
    if e & 1:
        lo <<= 1
        hi <<= 1
        e -= 1
    k = p + 8
    s_lo = math.isqrt(lo << (2 * k))
    t = hi << (2 * k)
    s_hi = math.isqrt(t)
    if s_hi * s_hi < t:
        s_hi += 1
    return _from_int_interval(s_lo, s_hi, e // 2 - k, p)
