"""Tests for the certified ln / exp / sqrt kernels.

Anchors are frozen digit strings; sweeps cross-check against mpmath at a
far higher working precision than any certified radius under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from harmonicbounds.ball import Ball, DomainError, RangeError, add, add_rad_fraction, compare, Order, mul
from harmonicbounds.elementary import (
    _atanh_recip_iv,
    _atanh_sum_iv,
    _exp_dyadic,
    _ln_constants,
    _ln_dyadic,
    _ln_mantissa,
    _reductions,
    exp,
    ln,
    ln1p_recip,
    ln2_ball,
    pi_ball,
    sqrt,
)
from helpers import LN2_110, assert_contains, exact_fraction, oracle

positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**9
)


# ---------------------------------------------------------------------------
# ln
# ---------------------------------------------------------------------------

def test_ln2_contains_frozen_digits_at_every_precision():
    for p in (53, 128, 256, 1024, 4096):
        b = ln2_ball(p)
        assert_contains(b, LN2_110, fuzz=Fraction(1, 10**100), label=f"ln2@{p}")
        assert b.rad_fraction() <= Fraction(1, 2 ** (p - 4))


def test_ln_of_one_is_a_tight_zero():
    b = ln(Ball.from_int(1), 128)
    assert b.contains(0)
    assert b.rad_fraction() <= Fraction(1, 2**120)


def test_ln_of_powers_of_two_matches_scaled_ln2():
    l2 = ln2_ball(192)
    for k in (1, 2, 10, 63):
        got = ln(Ball.exact_dyadic(1, k), 128)
        want = mul(Ball.from_int(k), l2, 192)
        assert compare(got, want) is Order.OVERLAPPING


def test_ln_rejects_nonpositive_enclosures():
    with pytest.raises(DomainError):
        ln(Ball.from_int(0), 64)
    with pytest.raises(DomainError):
        ln(Ball.from_int(-3), 64)
    with pytest.raises(DomainError):
        ln(Ball(1, 0, 2, 0), 64)  # straddles zero


def test_ln_radius_shrinks_with_precision():
    ten = Ball.from_int(10)
    r53 = ln(ten, 53).rad_fraction()
    r256 = ln(ten, 256).rad_fraction()
    assert r256 < r53 / 2**150


@given(positive_fractions)
@settings(max_examples=60, deadline=None)
def test_ln_contains_oracle_value(x):
    b = ln(Ball.from_fraction(x, 192), 128)
    assert_contains(b, oracle(mp.ln, x), label=f"ln({x})")


KERNEL_BITS = [77, 152, 1048, 4120]  # working bits at 53, 128, 1024 and 4096


def _scaled_ln(man: int, exp: int, w: int):
    """mpmath's ln(man * 2^exp) * 2^w, 100 bits finer than the kernel."""
    with mp.workprec(w + 100):
        return mp.log(mp.mpf(man) * mp.mpf(2) ** exp) * mp.mpf(2) ** w


def _kernel_arguments(w: int) -> list[tuple[int, int]]:
    """(man, exp) pairs: every reduction threshold 1 + 2^-j and its two
    neighbours, 1, one ulp below 2, mantissas longer than w, and exponents
    of +-(w + 60)."""
    one = 1 << w
    args = [(1, 0), ((1 << (w + 1)) - 1, -w), ((1 << (w + 41)) - 1, -(w + 40))]
    for j in range(1, _reductions(w) + 1):
        args += [(one + (one >> j) + d, -w) for d in (-1, 0, 1)]
    rng = random.Random(w)
    for _ in range(20):
        man = rng.getrandbits(w + 40) | 1
        args.append((man, rng.randrange(-(w + 60), w + 60) - man.bit_length()))
    for man in (1, 3, 10**9 + 7, (1 << (w + 40)) // 3):
        args += [(man, w + 60), (man, -(w + 60) - man.bit_length())]
    return args


@pytest.mark.parametrize("w", KERNEL_BITS)
def test_ln_kernel_encloses_mpmath_and_stays_narrow(w):
    # the width is a few ulps per reduction step and per series term (about
    # w/(2r+2) of them), plus k times the width of ln 2
    r = _reductions(w)
    l2_lo, l2_hi = _ln_constants(w)[0]
    for man, exp in _kernel_arguments(w):
        lo, hi = _ln_dyadic(man, exp, w)
        assert lo <= _scaled_ln(man, exp, w) <= hi, (w, man, exp)
        k = exp + man.bit_length() - 1
        assert hi - lo <= 4 * (w // (2 * r + 2) + r) + 64 + abs(k) * (l2_hi - l2_lo), (w, man, exp)


@pytest.mark.parametrize("w", KERNEL_BITS)
def test_ln_kernel_reads_the_mantissa_only_through_its_odd_part(w):
    # man 2^s at exp - s is the same number and gets the same interval, so
    # the memo is keyed by the odd part: ln(2m + 1) and ln(m + 1/2) share it
    for man, exp in _kernel_arguments(w):
        for s in (1, 7, w):
            assert _ln_dyadic(man << s, exp - s, w) == _ln_dyadic(man, exp, w), (w, man, exp, s)
    _ln_mantissa.cache_clear()
    p = w - 24
    ln(Ball.from_int(2001), p)
    ln(Ball(2001, -1), p)
    assert (_ln_mantissa.cache_info().hits, _ln_mantissa.cache_info().misses) == (1, 1)


@pytest.mark.parametrize("w", KERNEL_BITS)
def test_ln_constants_contain_mpmath_within_two_ulps(w):
    consts = _ln_constants(w)
    assert len(consts) == _reductions(w) + 1
    for j, (lo, hi) in enumerate(consts):
        # ln 2 at j = 0, then ln(1 + 2^-j)
        with mp.workprec(w + 100):
            want = mp.log(2 if j == 0 else 1 + mp.mpf(2) ** -j) * mp.mpf(2) ** w
        assert lo <= want <= hi and hi - lo <= 2, (w, j)


@pytest.mark.parametrize("w", KERNEL_BITS)
def test_arctan_kernel_contains_mpmath_within_two_ulps(w):
    # the alternating series behind pi, at Machin's two divisors and more
    for q in (3, 5, 239, (1 << 40) + 1):
        lo, hi = _atanh_recip_iv(q, w, alternate=True)
        with mp.workprec(w + 100):
            want = 2 * mp.atan(1 / mp.mpf(q)) * mp.mpf(2) ** w
        assert lo <= want <= hi and hi - lo <= 2, (w, q)


def test_atanh_kernel_upper_end_holds_its_per_term_ulps():
    # 2 atanh(1/q) = ln((q+1)/(q-1)); at q = 18255 and w = 152 the floored
    # terms fall short of it by almost all n + 1 ulps, so an upper end
    # without them misses the value (found by a scan over odd q <= 40001)
    q, w = 18255, 152
    lo, hi = _atanh_recip_iv(q, w)
    with mp.workprec(w + 100):
        want = mp.log(mp.mpf(q + 1) / (q - 1)) * mp.mpf(2) ** w
    assert lo <= want <= hi


@pytest.mark.parametrize("w, bits", [(152, 400), (1048, 1300)])
def test_atanh_sum_upper_end_holds_the_width_of_its_argument(w, bits):
    # the widest argument _ln_mantissa passes, r + 2 ulps, near the top of
    # the reduced range, at a third and at a thousandth of it: the chain
    # runs at u_lo only, so an upper end without (8/7)(u_hi - u_lo) misses
    # atanh(u_hi) by a few ulps
    r = _reductions(w)
    top = 1 << (w - r - 1)
    for u_lo in (top - 15, top // 3, top // 1000):
        u_hi = u_lo + r + 2
        s_lo, s_hi = _atanh_sum_iv(u_lo, u_hi, w, r)
        with mp.workprec(bits):
            scale = mp.mpf(2) ** w
            assert s_lo <= mp.atanh(u_lo / scale) * scale, (w, u_lo)
            assert s_hi >= mp.atanh(u_hi / scale) * scale, (w, u_lo)


@pytest.mark.parametrize("p", [128, 1024])
def test_ln1p_recip_keeps_relative_accuracy(p):
    for m in (1, 3, 2**64 + 1, 10**300 + 7):
        b = ln1p_recip(m, p)
        with mp.workprec(p + m.bit_length() + 100):
            want = exact_fraction(mp.log1p(1 / mp.mpf(m)))
        assert_contains(b, want, fuzz=want / 2 ** (p + 60), label=f"m={m}")
        assert b.rad_fraction() <= want / 2 ** (p - 2), m
    with pytest.raises(ValueError):
        ln1p_recip(0, p)


@pytest.mark.parametrize("m", [True, 2.5, Fraction(3)])
def test_ln1p_recip_refuses_a_non_int_index(m):
    # True would read as 1 and return ln 2; a float has no bit_length
    with pytest.raises(TypeError, match="m must be an int"):
        ln1p_recip(m, 128)


def test_ln1p_recip_refuses_an_index_below_one():
    with pytest.raises(ValueError, match="m must be >= 1"):
        ln1p_recip(-3, 128)


def test_ln_of_a_ball_is_padded_by_its_lipschitz_bound():
    # ln over [mid - rad, mid + rad] lies within rad / (mid - rad) of ln(mid);
    # rounding adds at most a unit of the result's (p + 1)-bit midpoint
    mid = Ball.from_fraction(Fraction(10**12 + 39, 10**6), 192)
    wide = add(mid, Ball(0, 0, 1, -30), 192)
    b = ln(wide, 128)
    for v in (wide.lower(), wide.upper()):
        assert_contains(b, oracle(mp.ln, v), label=f"ln({float(v)})")
    pad = wide.rad_fraction() / wide.lower()
    assert b.rad_fraction() <= (ln(mid, 128).rad_fraction() + pad) * (1 + Fraction(1, 2**30))


@given(positive_fractions, positive_fractions)
@settings(max_examples=40, deadline=None)
def test_ln_of_product_overlaps_sum_of_lns(x, y):
    lhs = ln(Ball.from_fraction(x * y, 192), 128)
    rhs = add(
        ln(Ball.from_fraction(x, 192), 128),
        ln(Ball.from_fraction(y, 192), 128),
        128,
    )
    assert compare(lhs, rhs) is Order.OVERLAPPING


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------

def test_exp_of_zero_is_a_tight_one():
    b = exp(Ball.from_int(0), 128)
    assert b.contains(1)
    assert b.rad_fraction() <= Fraction(1, 2**120)


def test_exp_of_one_contains_e():
    assert_contains(exp(Ball.from_int(1), 256), oracle(mp.exp, 1), label="e")


def test_exp_rejects_huge_arguments():
    with pytest.raises(RangeError):
        exp(Ball.exact_dyadic(1, 26), 64)
    with pytest.raises(RangeError):
        exp(Ball.exact_dyadic(-1, 25), 64)
    with pytest.raises(RangeError):
        # a ball whose upper end reaches 2^25
        exp(Ball((1 << 25) - 1, 0, 1, 0), 64)


def _scaled_exp(man: int, e: int, w: int, k: int):
    """mpmath's exp(man * 2^e) * 2^(w-k), 100 bits finer than the kernel."""
    with mp.workprec(w + 100):
        return mp.exp(mp.mpf(man) * mp.mpf(2) ** e) * mp.mpf(2) ** (w - k)


def _exp_arguments(w: int) -> list[tuple[int, int]]:
    """(man, exp) pairs: 0 and one ulp either side of it, both ends of every
    reduction threshold ln(1 + 2^-j) and one ulp beyond, k ln 2 and its
    neighbours for k = +-1 and +-1000, each also negated, random negative
    arguments, and |x| one ulp below 2^25."""
    consts = _ln_constants(w)
    args = [(0, 0), (1, -w), (-1, -w), (1, -(w + 60)), (-1, -(w + 60))]
    for lo, hi in consts:  # ln 2 first, then ln(1 + 2^-j) for j <= r
        for c in (lo - 1, lo, hi, hi + 1):
            args += [(c, -w), (-c, -w)]
    l2 = consts[0][0]
    for k in (1, -1, 1000, -1000):
        args += [(k * l2 + d, -w) for d in (-1, 0, 1, 2, 3)]
    rng = random.Random(w)
    for _ in range(20):
        man = rng.getrandbits(w + 40) | 1
        args.append((-man, rng.randrange(-(w + 60), 20) - man.bit_length()))
    top = (1 << (w + 25)) - 1
    return args + [(top, -w), (-top, -w)]


@pytest.mark.parametrize("w", KERNEL_BITS)
def test_exp_kernel_encloses_mpmath_and_stays_narrow(w):
    # width: the reduced argument's, 1 + 2r ulps plus |k| widths of ln 2,
    # scaled by y e^z < 2, plus an ulp per shift-add and two per Taylor term
    # (under w/r of them)
    r = _reductions(w)
    l2_lo, l2_hi = _ln_constants(w)[0]
    for man, e in _exp_arguments(w):
        lo, hi, k = _exp_dyadic(man, man, e, w)
        assert lo <= _scaled_exp(man, e, w, k) <= hi, (w, man, e)
        assert hi - lo <= 2 * (abs(k) * (l2_hi - l2_lo) + w // r) + 12 * r + 8, (w, man, e)


def test_exp_of_a_ball_is_the_hull_of_its_endpoints():
    for mid, rad in ((Fraction(-7, 3), Ball(0, 0, 1, -30)), (Fraction(1, 5), Ball(0, 0, 3, 0))):
        ball = add(Ball.from_fraction(mid, 192), rad, 192)
        b = exp(ball, 128)
        want_lo, want_hi = (oracle(mp.exp, v) for v in (ball.lower(), ball.upper()))
        assert_contains(b, want_lo, label=f"exp({float(ball.lower())})")
        assert_contains(b, want_hi, label=f"exp({float(ball.upper())})")
        # the endpoints' spread, plus the rounding of a (p + 1)-bit midpoint
        assert b.upper() - b.lower() <= (want_hi - want_lo) * (1 + Fraction(1, 2**30)) + want_hi / 2**120


@pytest.mark.parametrize("p", [128, 1024, 4096])
def test_exp_of_a_ball_contains_mpmath_at_both_endpoints(p):
    # one Taylor chain per endpoint; the last ball straddles ln 2, so its
    # endpoints reduce by different powers of two
    dps = p // 3 + 40
    cases = ((Fraction(1, 3), Fraction(1, 2**40)), (Fraction(-7, 3), Fraction(1, 2 ** (p // 2))),
             (Fraction(7, 10), Fraction(1, 100)))
    for mid, rad in cases:
        ball = add_rad_fraction(Ball.from_fraction(mid, p + 64), rad)
        b = exp(ball, p)
        want_lo, want_hi = (oracle(mp.exp, v, dps=dps) for v in (ball.lower(), ball.upper()))
        fuzz = want_hi / 2 ** (p + 60)
        assert_contains(b, want_lo, fuzz=fuzz, label=f"exp({float(ball.lower())})@{p}")
        assert_contains(b, want_hi, fuzz=fuzz, label=f"exp({float(ball.upper())})@{p}")
        # a wide ball's radius keeps 64 bits, so it may round up by 2^-62
        slack = want_hi / 2 ** (p - 8)
        assert b.upper() - b.lower() <= (want_hi - want_lo) * (1 + Fraction(1, 2**62)) + slack


@pytest.mark.parametrize("p", [53, 128, 1024, 4096])
def test_pi_contains_mpmath_within_an_ulp(p):
    with mp.workprec(p + 100):
        want = exact_fraction(+mp.pi)
    b = pi_ball(p)
    assert_contains(b, want, fuzz=Fraction(1, 2 ** (p + 90)), label=f"pi@{p}")
    assert b.rad_fraction() <= Fraction(1, 2 ** (p - 1))


@pytest.mark.parametrize("p", [4096, 4160, 4608])
def test_every_accepted_precision_keeps_its_bits(p):
    # up to the internal ceiling of 4608 bits, no kernel caps its working bits
    with mp.workprec(p + 100):
        cases = (
            ("ln 3", ln(Ball.from_int(3), p), mp.log(3)),
            ("exp 1/2", exp(Ball(1, -1), p), mp.exp(mp.mpf(1) / 2)),
            ("ln 2", ln2_ball(p), mp.log(2)),
            ("pi", pi_ball(p), +mp.pi),
        )
        for label, b, want in cases:
            want = exact_fraction(want)
            assert_contains(b, want, fuzz=want / 2 ** (p + 90), label=f"{label}@{p}")
            assert b.rad_fraction() <= want / 2 ** (p - 2), label


@given(st.fractions(min_value=-30, max_value=30, max_denominator=10**6))
@settings(max_examples=60, deadline=None)
def test_exp_contains_oracle_value(x):
    b = exp(Ball.from_fraction(x, 192), 128)
    assert_contains(b, oracle(mp.exp, x), label=f"exp({x})")


@given(st.fractions(min_value=-15, max_value=15, max_denominator=10**6))
@settings(max_examples=40, deadline=None)
def test_ln_of_exp_contains_argument(x):
    assert ln(exp(Ball.from_fraction(x, 256), 224), 192).contains(x)


@given(positive_fractions)
@settings(max_examples=40, deadline=None)
def test_exp_of_ln_contains_argument(x):
    assert exp(ln(Ball.from_fraction(x, 256), 224), 192).contains(x)


# ---------------------------------------------------------------------------
# sqrt
# ---------------------------------------------------------------------------

def test_sqrt_of_perfect_squares():
    for n in (0, 1, 4, 9, 144, 10**8):
        b = sqrt(Ball.from_int(n), 128)
        assert b.contains(math.isqrt(n))
        assert b.rad_fraction() <= Fraction(max(n, 1), 2**118)


def test_sqrt_rejects_negative_enclosures():
    with pytest.raises(DomainError):
        sqrt(Ball.from_int(-1), 64)
    with pytest.raises(DomainError):
        sqrt(Ball(0, 0, 1, 0), 64)  # dips below zero


@given(positive_fractions)
@settings(max_examples=60, deadline=None)
def test_sqrt_contains_oracle_value(x):
    b = sqrt(Ball.from_fraction(x, 192), 128)
    assert_contains(b, oracle(mp.sqrt, x), label=f"sqrt({x})")


@given(positive_fractions)
@settings(max_examples=40, deadline=None)
def test_sqrt_of_square_contains_argument(x):
    assert sqrt(Ball.from_fraction(x * x, 256), 192).contains(x)


# ---------------------------------------------------------------------------
# high-precision spot check
# ---------------------------------------------------------------------------

def test_kernels_hold_up_at_kilobit_precision():
    x = Fraction(355, 113)
    for fn, mfn in ((ln, mp.ln), (exp, mp.exp), (sqrt, mp.sqrt)):
        b = fn(Ball.from_fraction(x, 1100), 1024)
        want = oracle(mfn, x, dps=400)
        assert_contains(b, want, fuzz=Fraction(1, 10**380), label=fn.__name__)
        assert b.rad_fraction() < Fraction(1, 2**1000)
