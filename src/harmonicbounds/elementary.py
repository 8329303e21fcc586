"""Certified elementary functions on balls: ln, exp, sqrt, and the
constants ln 2 and pi.

The kernels work on plain integers scaled by 2^-w (w = working bits) with
directed rounding: lower bounds only ever round down, upper bounds only
ever round up, so the returned interval encloses the true value by
construction.

One series is summed here: 2 atanh(1/q) for an integer q >= 3, whose
terms are each the last divided by q^2, so no step multiplies big
integers; with alternating signs it is 2 arctan(1/q).  At q = 2m + 1 it
is ln(1 + 1/m), which `ln1p_recip` sums at the scale of its value so that
its error is relative.  ln 2 (m = 1) and every ln(1 + 2^-j) (m = 2^j) form
one table per working precision, and pi is 16 arctan(1/5) - 4 arctan(1/239)
(Machin).

ln reduces its argument to t in [1, 2) times a power of two, then divides
out 1 + 2^-j for j = 1..r, each at most once, greedily (Brent and
Zimmermann, Modern Computer Arithmetic, 4.4), so that t < 1 + 2^-r and
    ln t = 2 * atanh((t-1)/(t+1)),   u = (t-1)/(t+1) < 2^-(r+1),
a series of about w/(2r+2) terms; r = isqrt(w/2).  ln of a ball adds its
Lipschitz pad to ln of its midpoint.

exp reads the same table backwards: it writes x = k ln 2 + sum of the
ln(1 + 2^-j) it takes out, greedily, + z with 0 <= z < 2^-r, so that
    exp x = 2^k * prod (1 + 2^-j) * e^z,
the product by shift-adds and e^z by a Taylor series of about w/r terms,
one product each.  exp of a ball runs the lower chain at its lower
endpoint and the upper chain at its upper one, exp being increasing.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .ball import (
    Ball,
    DomainError,
    RangeError,
    _bits,
    _endpoints_scaled,
    _from_int_interval,
)

__all__ = ["ln", "exp", "sqrt", "ln2_ball", "ln1p_recip", "pi_ball"]

# extra guard bits between requested precision and the integer kernels
_GUARD = 24


def _working_bits(p: int) -> int:
    return p + _GUARD


def _reductions(w: int) -> int:
    """r, the number of factors 1 + 2^-j that ln and exp may take out at w bits.

    Each costs one short division and saves about w/(2r^2) series terms,
    each a w-bit product, so the best r grows like sqrt(w).
    """
    return math.isqrt(w // 2)


def _floor_ceil(man: int, s: int) -> tuple[int, int]:
    """Floor and ceiling of man * 2^s."""
    if s >= 0:
        return man << s, man << s
    lo = man >> -s
    return lo, lo + (man & ((1 << -s) - 1) != 0)


def _atanh_recip_iv(q: int, w: int, alternate: bool = False) -> tuple[int, int]:
    """Enclose 2 atanh(1/q) = ln((q+1)/(q-1)), or 2 arctan(1/q) if
    `alternate`, for an integer q >= 3, at scale 2^-w.

    2 atanh(1/q) 2^(w+16) is the sum of X_i / (2i+1) with X_i equal to
    2^(w+17) / q^(2i+1), and p_i = floor(X_i) is exact: each is the last
    floored by q^2.  So term i lies in [p_i // d, p_i // d + 1], d = 2i+1,
    and once p_i is 0 (at i >= 1) the rest sum below (1/3)(9/8) < 1.
    arctan flips the sign of every odd term, so its lower end may lose the
    n + 1 ulps that its upper end may gain; its rest lies within the first
    omitted term, below 1.  The 16 extra bits absorb the one ulp per term.
    """
    g = 16
    p = (1 << (w + g + 1)) // q
    q2 = q * q
    s = n = 0
    while p:
        t = p // (2 * n + 1)
        s += -t if alternate and n & 1 else t
        n += 1
        p //= q2
    return (s - (n + 1 if alternate else 0)) >> g, -(-(s + n + 1) >> g)


def ln1p_recip(m: int, prec) -> Ball:
    """Certified enclosure of ln(1 + 1/m) = 2 atanh(1/(2m+1)) for an int m >= 1.

    The series runs at scale 2^-(w + bit length of m), so the error is
    relative to the value, which lies in (1/(2m), 1/m].
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"m must be an int, got {type(m).__name__}")
    if m < 1:
        raise ValueError("m must be >= 1")
    p = _bits(prec)
    w = _working_bits(p) + m.bit_length()
    lo, hi = _atanh_recip_iv(2 * m + 1, w)
    return _from_int_interval(lo, hi, -w, p)


@lru_cache(maxsize=64)
def _ln_constants(w: int) -> tuple[tuple[int, int], ...]:
    """ln(1 + 2^-j) for j = 0..r, ln 2 first, as integer intervals at scale 2^-w."""
    return tuple(_atanh_recip_iv((2 << j) + 1, w) for j in range(_reductions(w) + 1))


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


def _ln_dyadic(man: int, exp: int, w: int) -> tuple[int, int]:
    """ln(man*2^exp) for man > 0 as an integer interval at scale 2^-w.

    man*2^exp = t * 2^k with t in [1, 2), and t depends on man only through
    its odd part: ln t comes from the one memo keyed by that odd part and
    w (_ln_mantissa), and k ln 2 is added after the lookup, so ln(2m + 1)
    and ln(m + 1/2) share one series.
    """
    odd = man >> ((man & -man).bit_length() - 1)
    lo, hi = _ln_mantissa(odd, w)
    k = exp + man.bit_length() - 1
    if k:
        l2_lo, l2_hi = _ln_constants(w)[0]
        if k > 0:
            lo += k * l2_lo
            hi += k * l2_hi
        else:
            lo += k * l2_hi
            hi += k * l2_lo
    return lo, hi


@lru_cache(maxsize=512)
def _ln_mantissa(odd: int, w: int) -> tuple[int, int]:
    """ln t for t = odd / 2^(bit length of odd - 1) in [1, 2), as an
    integer interval at scale 2^-w.

    Dividing out 1 + 2^-j when t >= 1 + 2^-j leaves t < 1 + 2^-j, since
    (1 + 2^-(j-1)) / (1 + 2^-j) < 1 + 2^-j, and a floor keeps t_lo there;
    t_lo stays >= 1 as 1 + 2^-j is exact at scale 2^-w.  Each step widens
    [t_lo, t_hi] by under 2 ulps, so u_hi is below 2^-(r+1) plus r + 2
    ulps.
    """
    t_lo, t_hi = _floor_ceil(odd, w - (odd.bit_length() - 1))
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
    return lo + 2 * s_lo, hi + 2 * s_hi


def ln2_ball(prec) -> Ball:
    """Certified enclosure of ln 2."""
    p = _bits(prec)
    w = _working_bits(p)
    lo, hi = _ln_constants(w)[0]
    return _from_int_interval(lo, hi, -w, p)


def pi_ball(prec) -> Ball:
    """Certified enclosure of pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin)."""
    p = _bits(prec)
    w = _working_bits(p)
    a_lo, a_hi = _atanh_recip_iv(5, w, alternate=True)
    b_lo, b_hi = _atanh_recip_iv(239, w, alternate=True)
    return _from_int_interval(8 * a_lo - 2 * b_hi, 8 * a_hi - 2 * b_lo, -w, p)


def ln(a: Ball, prec) -> Ball:
    """Natural logarithm of a ball whose enclosure is strictly positive."""
    p = _bits(prec)
    lo_end, hi_end, _ = _endpoints_scaled(a)
    if lo_end <= 0:
        raise DomainError("ln needs a strictly positive enclosure")
    w = _working_bits(p)
    lo, hi = _ln_dyadic(a.man, a.exp, w)
    if a.r:
        # |ln x - ln mid| <= radius / inf(ball) = (hi_end - lo_end) / (2 lo_end)
        pad = -(-((hi_end - lo_end) << (w - 1)) // lo_end)
        lo -= pad
        hi += pad
    return _from_int_interval(lo, hi, -w, p)


def _exp_taylor(y: int, z: int, w: int) -> int:
    """A lower bound on y e^z, with y, z and the result at scale 2^-w, for
    |y| >= 2 and 0 <= z < 2^(w-1).

    Term i is t_i = floor(t_(i-1) z / (i 2^w)) with t_0 = y, one product
    each; as z >= 0, every t_i is at most its true value y z^i / i!.  The
    chain stops at the first |t_i| <= 1, at i >= 1.  The true terms after
    it shrink by a ratio z 2^-w / (i+1) < 1/4, so they sum below a third
    of its true value: below 1/3 in magnitude.  They are positive for
    y > 0 and the lower bound drops them; for y < 0 the caller adds 1.
    """
    s = t = y
    i = 0
    while abs(t) > 1:
        i += 1
        t = (t * z >> w) // i
        s += t
    return s


def _exp_reduce(man: int, exp: int, w: int) -> tuple[int, int, int, int, int]:
    """Reduce x = man*2^exp to (y_lo, z_lo, y_hi, z_hi, k), where
    exp x = 2^k y e^z, y in [y_lo, y_hi] and z in [z_lo, z_hi], all at scale
    2^-w.

    With x in [x_lo, x_hi] at scale 2^-w, k = floor(x_lo / L) for the ln 2
    endpoint L that puts z_lo = x_lo - k ln 2 at its least, the upper one
    for k >= 0 and the lower one for k < 0, so 0 <= z_lo < L.  Taking out
    ln(1 + 2^-j) whenever z_lo reaches its upper end C_j leaves z_lo below
    C_j at each j, as ln(1 + 2^-(j-1)) - ln(1 + 2^-j) falls short of
    ln(1 + 2^-j) by about 2^-2j, far more than a few ulps; so z_lo ends
    below 2^-r.  z_hi exceeds z_lo by at most 1 + 2|k| + 2r ulps, each
    constant being at most 2 ulps wide.  y = prod (1 + 2^-j) takes one
    floor or ceiling a step.
    """
    if man.bit_length() + exp > 25:
        raise RangeError("exp argument magnitude above 2^25 is not supported")
    x_lo, x_hi = _floor_ceil(man, exp + w)
    consts = _ln_constants(w)
    r = len(consts) - 1
    # k >= 0 takes k ln 2 out of x_lo at its upper end, k < 0 at its lower end
    near, far = consts[0] if x_lo >= 0 else consts[0][::-1]
    k = x_lo // far
    z_lo, z_hi = x_lo - k * far, x_hi - k * near
    y_lo = y_hi = 1 << w
    for j in range(1, r + 1):
        if z_lo >= consts[j][1]:
            z_lo -= consts[j][1]
            z_hi -= consts[j][0]
            y_lo += y_lo >> j
            y_hi += -(-y_hi >> j)
    if z_hi > (1 << (w - r)) + 2 * abs(k) + 2 * r + 1:
        raise AssertionError("exp argument out of the reduced range")
    return y_lo, z_lo, y_hi, z_hi, k


def _exp_dyadic(man: int, hi_man: int, exp: int, w: int) -> tuple[int, int, int]:
    """exp on [man, hi_man]*2^exp as ([lo, hi], k): the values lie in
    [lo, hi]*2^(k-w).

    exp being increasing, the lower Taylor chain runs only at man and the
    upper one only at hi_man; k, which does not decrease with x, is the
    lower end's.
    """
    y_lo, z_lo, _, _, k = _exp_reduce(man, exp, w)
    _, _, y_hi, z_hi, k_hi = _exp_reduce(hi_man, exp, w)
    return _exp_taylor(y_lo, z_lo, w), (1 - _exp_taylor(-y_hi, z_hi, w)) << (k_hi - k), k


def exp(a: Ball, prec) -> Ball:
    """Exponential of a ball, from exp at its two endpoints."""
    p = _bits(prec)
    w = _working_bits(p)
    lo_end, hi_end, e = _endpoints_scaled(a)
    lo, hi, k = _exp_dyadic(lo_end, hi_end, e, w)
    return _from_int_interval(lo, hi, k - w, p)


def sqrt(a: Ball, prec) -> Ball:
    """Square root of a nonnegative ball via integer isqrt on the endpoints."""
    p = _bits(prec)
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
