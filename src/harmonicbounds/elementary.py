"""Certified elementary functions on balls: ln, exp, sqrt.

The kernels work on plain integers scaled by 2^-w (w = working bits) with
directed rounding: lower bounds only ever round down, upper bounds only
ever round up, so the returned interval encloses the true value by
construction.  Interval inputs are handled by evaluating at the midpoint
and adding a Lipschitz term, or for wide inputs by endpoint evaluation.

ln reduces its argument to t in [1, 2) times a power of two, then divides
out 1 + 2^-j for j = 1..r, each at most once, greedily (Brent and
Zimmermann, Modern Computer Arithmetic, 4.4), so that t < 1 + 2^-r and
    ln t = 2 * atanh((t-1)/(t+1)),   u = (t-1)/(t+1) < 2^-(r+1),
a series of about w/(2r+2) terms; r = isqrt(w/2).  ln 2 and every
ln(1 + 2^-j) taken out are 2 * atanh(1/q) for q = 3 and q = 2^(j+1) + 1,
a series whose terms are each the last divided by q^2, built once per
working precision.  exp reduces modulo ln 2 and sums the Taylor series
with a ratio tail bound.
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


def _reductions(w: int) -> int:
    """r, the number of factors 1 + 2^-j that ln may divide out at w bits.

    Each costs one short division and saves about w/(2r^2) series terms,
    each a w-bit product, so the best r grows like sqrt(w).
    """
    return math.isqrt(w // 2)


def _atanh_recip_iv(q: int, w: int) -> tuple[int, int]:
    """Enclose 2 atanh(1/q) = ln((q+1)/(q-1)), for an integer q >= 3, at
    scale 2^-w.

    2 atanh(1/q) 2^(w+16) is the sum of X_i / (2i+1) with X_i equal to
    2^(w+17) / q^(2i+1), and p_i = floor(X_i) is exact: each is the last
    floored by q^2.  So term i lies in [p_i // d, p_i // d + 1], d = 2i+1,
    and once p_i is 0 (at i >= 1) the rest sum below (1/3)(9/8) < 1.  The
    16 extra bits absorb the one ulp per term.
    """
    g = 16
    p = (1 << (w + g + 1)) // q
    q2 = q * q
    s = n = 0
    d = 1
    while p:
        s += p // d
        n += 1
        p //= q2
        d += 2
    return s >> g, -(-(s + n + 1) >> g)


@lru_cache(maxsize=64)
def _ln_constants(w: int) -> tuple[tuple[int, int], ...]:
    """ln 2, then ln(1 + 2^-j) for j = 1..r, as integer intervals at scale 2^-w."""
    qs = [3] + [(1 << (j + 1)) + 1 for j in range(1, _reductions(w) + 1)]
    return tuple(_atanh_recip_iv(q, w) for q in qs)


def _atanh_sum_iv(u_lo: int, u_hi: int, w: int, r: int) -> tuple[int, int]:
    """Enclose sum_{j>=0} u^(2j+1)/(2j+1) = atanh u for u in [u_lo, u_hi]*2^-w,
    u below 2^-(r+1) up to a few ulps.

    One chain of powers runs at U = u_lo 2^-w: p_0 = u_lo and p_(i+1) =
    floor(p_i v 2^-w) with v = floor(u_lo^2 2^-w).  Against the true
    a_i = U^(2i+1) 2^w, the error e_i = a_i - p_i is 0 at i = 0, and
    e_(i+1) < e_i U^2 + 2, so e_i < 3 since U^2 < 1/8.  The chain runs
    until p_i = 0; the terms after that one sum below (8/7) 3U^2 / (2i+3)
    < 1.  atanh(u_hi) - atanh(u_lo) <= (8/7)(u_hi - u_lo), the slope of
    atanh being at most 1/(1 - U^2) on the interval.
    """
    if u_hi > (1 << (w - r - 1)) + r + 2:
        raise AssertionError("atanh argument out of the reduced range")
    v = (u_lo * u_lo) >> w
    s_lo = s_hi = p = u_lo
    d = 1
    while p:
        p = (p * v) >> w
        d += 2
        s_lo += p // d
        s_hi += -(-(p + 3) // d)
    s_hi += 1 - (-(8 * (u_hi - u_lo)) // 7)
    return s_lo, s_hi


@lru_cache(maxsize=512)
def _ln_dyadic(man: int, exp: int, w: int) -> tuple[int, int]:
    """ln(man*2^exp) for man > 0 as an integer interval at scale 2^-w.

    Dividing out 1 + 2^-j when t >= 1 + 2^-j leaves t < 1 + 2^-j, since
    (1 + 2^-(j-1)) / (1 + 2^-j) < 1 + 2^-j, and a floor keeps t_lo there;
    t_lo stays >= 1 as 1 + 2^-j is exact at scale 2^-w.  Each step widens
    [t_lo, t_hi] by under 2 ulps, so u_hi is below 2^-(r+1) plus r + 2
    ulps.
    """
    bl = man.bit_length()
    k = exp + bl - 1  # man*2^exp = t * 2^k with t in [1, 2)
    s = w - (bl - 1)
    if s >= 0:
        t_lo = t_hi = man << s
    else:
        t_lo = man >> -s
        t_hi = t_lo if man & ((1 << -s) - 1) == 0 else t_lo + 1
    one = 1 << w
    consts = _ln_constants(w)
    r = len(consts) - 1
    lo = hi = 0
    for j in range(1, r + 1):
        if t_lo >= one + (one >> j):
            d = (1 << j) + 1
            t_lo = (t_lo << j) // d
            t_hi = -(-(t_hi << j) // d)
            lo += consts[j][0]
            hi += consts[j][1]
    u_lo = ((t_lo - one) << w) // (t_hi + one)
    u_hi = -((-((t_hi - one) << w)) // (t_lo + one))
    s_lo, s_hi = _atanh_sum_iv(u_lo, u_hi, w, r)
    lo += 2 * s_lo
    hi += 2 * s_hi
    if k:
        l2_lo, l2_hi = consts[0]
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
    lo, hi = _ln_constants(w)[0]
    return _from_int_interval(lo, hi, -w, p)


def ln(a: Ball, prec) -> Ball:
    """Natural logarithm of a ball whose enclosure is strictly positive."""
    p = bits_of(prec)
    lo_end, hi_end, _ = _endpoints_scaled(a)
    if lo_end <= 0:
        raise DomainError("ln needs a strictly positive enclosure")
    w = _working_bits(p)
    lo, hi = _ln_dyadic(a.man, a.exp, w)
    if a.rman:
        # |ln x - ln mid| <= radius / inf(ball) = (hi_end - lo_end) / (2 lo_end)
        pad = -(-((hi_end - lo_end) << (w - 1)) // lo_end)
        lo -= pad
        hi += pad
    return _from_int_interval(lo, hi, -w, p)


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
    l2_lo, l2_hi = _ln_constants(w)[0]
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
