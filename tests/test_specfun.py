"""Tests for exact combinatorial sums and certified special functions.

Exact layers (Bernoulli numbers, harmonic partial sums) are checked against
sympy and closed identities; ball-valued functions (gamma constant, digamma
family, Euler--Maclaurin harmonic) against frozen digits, exact containment,
and high-dps mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from harmonicbounds.ball import Ball, DomainError, Order, add, compare, mul, neg, recip, scale2, sub
from harmonicbounds.specfun import (
    BernoulliCache,
    EmConfig,
    alternating_partial,
    alternating_tail,
    bernoulli_number,
    bernoulli_polynomial,
    digamma,
    euler_gamma,
    harmonic_em,
    harmonic_exact,
    lgamma,
    odd_harmonic_exact,
    pi_ball,
    psi_gap,
    stirling_tail,
    trigamma,
)
from helpers import GAMMA_110, LN2_110, PI_110, assert_contains, assert_in_window, oracle

small_positive_fractions = st.fractions(
    min_value=Fraction(1, 50), max_value=Fraction(60), max_denominator=10**4
)


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

def test_bernoulli_frozen_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(20) == Fraction(-174611, 330)
    for m in (3, 5, 7, 99):
        assert bernoulli_number(m) == 0
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_bernoulli_against_sympy_through_b60():
    for m in range(0, 61):
        want = Fraction(int(sympy.bernoulli(m).p), int(sympy.bernoulli(m).q))
        if m == 1:
            # sympy >= 1.12 switched to the B_1 = +1/2 convention
            assert bernoulli_number(m) == -want or bernoulli_number(m) == want
            continue
        assert bernoulli_number(m) == want, f"B_{m} mismatch"


def test_bernoulli_cache_is_independent_per_instance():
    cache = BernoulliCache()
    assert len(cache) == 2
    assert cache.get(8) == Fraction(-1, 30)
    assert len(cache) == 9


def test_bernoulli_polynomial_low_degrees():
    x = Fraction(3, 7)
    assert bernoulli_polynomial(0, x) == 1
    assert bernoulli_polynomial(1, x) == x - Fraction(1, 2)
    assert bernoulli_polynomial(2, x) == x * x - x + Fraction(1, 6)


@given(st.integers(min_value=2, max_value=14))
@settings(max_examples=30, deadline=None)
def test_bernoulli_polynomial_endpoint_and_half_identities(m):
    # B_m(0) = B_m(1) = B_m for m >= 2; B_m(1/2) = (2^(1-m) - 1) B_m
    b = bernoulli_number(m)
    assert bernoulli_polynomial(m, 0) == b
    assert bernoulli_polynomial(m, 1) == b
    assert bernoulli_polynomial(m, Fraction(1, 2)) == (Fraction(2) ** (1 - m) - 1) * b


@given(
    st.integers(min_value=0, max_value=10),
    st.fractions(min_value=-3, max_value=3, max_denominator=100),
)
@settings(max_examples=60, deadline=None)
def test_bernoulli_polynomial_against_sympy(m, x):
    want = sympy.Rational(sympy.bernoulli(m, sympy.Rational(x.numerator, x.denominator)))
    assert bernoulli_polynomial(m, x) == Fraction(int(want.p), int(want.q))


# ---------------------------------------------------------------------------
# exact partial sums
# ---------------------------------------------------------------------------

def test_harmonic_exact_anchors():
    assert harmonic_exact(0) == 0
    assert harmonic_exact(1) == 1
    assert harmonic_exact(2) == Fraction(3, 2)
    assert harmonic_exact(10) == Fraction(7381, 2520)
    with pytest.raises(ValueError):
        harmonic_exact(-1)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=80, deadline=None)
def test_harmonic_exact_recurrence(n):
    assert harmonic_exact(n) - harmonic_exact(n - 1) == Fraction(1, n)


def test_odd_harmonic_anchors_and_identity():
    assert odd_harmonic_exact(1) == 1
    assert odd_harmonic_exact(2) == Fraction(4, 3)
    assert odd_harmonic_exact(3) == Fraction(23, 15)
    for n in (1, 2, 7, 50, 313):
        # sum of 1/(2k-1) equals H(2n) minus the even part H(n)/2
        assert odd_harmonic_exact(n) == harmonic_exact(2 * n) - harmonic_exact(n) / 2


def test_alternating_partial_anchors_and_identity():
    assert alternating_partial(0) == 0
    assert alternating_partial(1) == 1
    assert alternating_partial(2) == Fraction(1, 2)
    assert alternating_partial(3) == Fraction(5, 6)
    for n in (4, 9, 100, 257):
        direct = sum(Fraction((-1) ** (k + 1), k) for k in range(1, n + 1))
        assert alternating_partial(n) == direct


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_alternating_partial_via_harmonic_identity(n):
    assert alternating_partial(2 * n) == harmonic_exact(2 * n) - harmonic_exact(n)


def test_alternating_tail_contains_true_distance_to_ln2():
    for n in (1, 2, 3, 10, 101):
        t = alternating_tail(n, 128)
        want = abs(LN2_110 - alternating_partial(n))
        assert_contains(t, want, fuzz=Fraction(1, 10**100), label=f"tail({n})")
        assert t.is_positive()
        # classical sandwich 1/(2n+2) < |tail| < 1/(2n)
        assert t.upper() < Fraction(1, 2 * n)
        assert t.lower() > Fraction(1, 2 * n + 2)
    with pytest.raises(ValueError):
        alternating_tail(0, 128)


# ---------------------------------------------------------------------------
# pi and the Euler--Mascheroni constant
# ---------------------------------------------------------------------------

def test_pi_contains_frozen_digits():
    for p in (53, 128, 256, 1024):
        b = pi_ball(p)
        assert_contains(b, PI_110, fuzz=Fraction(1, 10**100), label=f"pi@{p}")
        assert b.rad_fraction() <= Fraction(1, 2 ** (p - 4))


def test_euler_gamma_digits_and_radius():
    # radius after final rounding stays within one ulp at p bits
    for p in (53, 128, 256, 1024):
        g = euler_gamma(p)
        assert_contains(g, GAMMA_110, fuzz=Fraction(1, 10**100), label=f"gamma@{p}")
        assert g.rad_fraction() <= Fraction(1, 2 ** (p - 1))


def test_euler_gamma_policies_agree_and_differ_in_derivation():
    a = euler_gamma(256, "default")
    b = euler_gamma(256, "alt")
    assert compare(a, b) is Order.OVERLAPPING
    # distinct derivations should not produce structurally identical balls
    assert a != b
    with pytest.raises(ValueError):
        euler_gamma(256, "fastest")


def test_euler_gamma_gamma_digit_window_at_double_precision():
    assert_in_window(euler_gamma(53), "0.57721566", "0.57721567", "gamma@53")


# ---------------------------------------------------------------------------
# Euler--Maclaurin harmonic enclosures
# ---------------------------------------------------------------------------

def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(q=0)
    with pytest.raises(ValueError):
        EmConfig(q=51)
    with pytest.raises(ValueError):
        EmConfig(precision=52)
    assert EmConfig().q == 5


def test_harmonic_em_contains_exact_value():
    for q in (1, 2, 3, 5, 8):
        cfg = EmConfig(q=q, precision=128)
        for n in (1, 2, 3, 10, 97, 1000, 10**6):
            assert harmonic_em(n, cfg).contains(harmonic_exact(n) if n <= 1000 else _h_big(n)), (
                f"H({n}) escaped q={q}"
            )
    with pytest.raises(ValueError):
        harmonic_em(0)


_H_BIG_CACHE: dict[int, Fraction] = {}


def _h_big(n: int) -> Fraction:
    if n not in _H_BIG_CACHE:
        _H_BIG_CACHE[n] = harmonic_exact(n)
    return _H_BIG_CACHE[n]


def test_harmonic_em_radius_tracks_first_omitted_term():
    # radius should be within a small factor of |B_2q|/(2q n^2q)
    for q, n in ((2, 10), (5, 50), (3, 7)):
        first_omitted = abs(bernoulli_number(2 * q)) / (2 * q * Fraction(n) ** (2 * q))
        r = harmonic_em(n, EmConfig(q=q, precision=256)).rad_fraction()
        assert first_omitted <= r <= 2 * first_omitted


@given(st.integers(min_value=1, max_value=5000), st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=80, deadline=None)
def test_harmonic_em_containment_property(n, q):
    assert harmonic_em(n, EmConfig(q=q, precision=128)).contains(harmonic_exact(n))


# ---------------------------------------------------------------------------
# digamma family
# ---------------------------------------------------------------------------

def test_digamma_integer_anchors():
    g = euler_gamma(160)
    assert compare(digamma(1, 128), neg(g)) is Order.OVERLAPPING
    one_minus_g = sub(Ball.from_int(1), g, 160)
    assert compare(digamma(2, 128), one_minus_g) is Order.OVERLAPPING


def test_digamma_at_one_half():
    # psi(1/2) = -gamma - 2 ln 2
    want = -(GAMMA_110 + 2 * LN2_110)
    assert_contains(digamma(Fraction(1, 2), 160), want, fuzz=Fraction(1, 10**100))


def test_trigamma_at_one_is_pi_squared_over_six():
    pi2 = mul(pi_ball(192), pi_ball(192), 192)
    want = mul(pi2, Ball.from_fraction(Fraction(1, 6), 192), 192)
    assert compare(trigamma(1, 160), want) is Order.OVERLAPPING


def test_lgamma_matches_exact_factorials():
    from harmonicbounds.elementary import ln

    for n in (2, 3, 5, 10, 30):
        want = ln(Ball.from_int(math.factorial(n - 1)), 192)
        assert compare(lgamma(n, 160), want) is Order.OVERLAPPING


def test_lgamma_at_one_half_is_half_ln_pi():
    from harmonicbounds.elementary import ln

    want = scale2(ln(pi_ball(224), 192), -1)
    assert compare(lgamma(Fraction(1, 2), 160), want) is Order.OVERLAPPING


def test_digamma_family_rejects_nonpositive_arguments():
    for fn in (digamma, trigamma, lgamma):
        with pytest.raises(DomainError):
            fn(Fraction(-3, 2), 128)
        with pytest.raises(DomainError):
            fn(Ball(1, 0, 2, 0), 128)


@given(small_positive_fractions)
@settings(max_examples=50, deadline=None)
def test_digamma_recurrence(x):
    # psi(x+1) = psi(x) + 1/x
    lhs = digamma(x + 1, 128)
    rhs = add(digamma(x, 160), Ball.from_fraction(Fraction(1, 1) / x, 160), 160)
    assert compare(lhs, rhs) is Order.OVERLAPPING


@given(small_positive_fractions)
@settings(max_examples=50, deadline=None)
def test_trigamma_recurrence(x):
    # psi'(x+1) = psi'(x) - 1/x^2
    lhs = trigamma(x + 1, 128)
    rhs = sub(trigamma(x, 160), Ball.from_fraction(1 / (x * x), 160), 160)
    assert compare(lhs, rhs) is Order.OVERLAPPING


@given(small_positive_fractions)
@settings(max_examples=40, deadline=None)
def test_digamma_family_against_mpmath(x):
    assert_contains(digamma(x, 128), oracle(mp.digamma, x), label=f"psi({x})")
    assert_contains(
        trigamma(x, 128), oracle(lambda v: mp.polygamma(1, v), x), label=f"psi1({x})"
    )
    assert_contains(lgamma(x, 128), oracle(mp.loggamma, x), label=f"lgamma({x})")


def test_digamma_accepts_ball_arguments():
    wide = Ball(3, 0, 1, -8)  # 3 +/- 1/256
    d = digamma(wide, 128)
    for point in (Fraction(3) - Fraction(1, 256), Fraction(3), Fraction(3) + Fraction(1, 256)):
        assert_contains(d, oracle(mp.digamma, point), label=f"psi({point})")


# ---------------------------------------------------------------------------
# cancellation-free psi gap
# ---------------------------------------------------------------------------

def test_psi_gap_positive_and_below_leading_term():
    for n in (1, 2, 5, 17, 18, 100, 10**6):
        gap = psi_gap(n, 128)
        assert gap.is_positive()
        assert gap.upper() < Fraction(1, 12 * n * n)
        # leading term minus the next is a valid lower bound
        assert gap.lower() > Fraction(1, 12 * n * n) - Fraction(1, 120 * n**4)


def test_psi_gap_matches_direct_composition():
    # both evaluation paths (shifted below threshold, direct above) must
    # agree with ln n + 1/(2n) - psi(n+1) computed the cancelling way
    from harmonicbounds.elementary import ln

    for n in (1, 3, 17, 18, 40, 500):
        w = 224
        direct = sub(
            add(ln(Ball.from_int(n), w), Ball.from_fraction(Fraction(1, 2 * n), w), w),
            digamma(n + 1, w),
            w,
        )
        assert compare(psi_gap(n, 128), direct) is Order.OVERLAPPING
    with pytest.raises(ValueError):
        psi_gap(0, 128)


def test_psi_gap_radius_is_cancellation_free():
    # the naive difference of two O(ln n) balls at 128 bits has absolute
    # radius ~2^-120; the gap evaluator must do relatively better than that
    # on a quantity of size ~1/(12 n^2)
    g = psi_gap(10**4, 128)
    assert g.rad_fraction() < g.mid_fraction() * Fraction(1, 2**100)


@pytest.mark.parametrize("n", ["threshold", 150, 10**3, 10**6])
def test_bernoulli_sum_matches_the_per_term_sum(n):
    # psi_gap at 128 and 1024 bits works at 144 and 1040 bits; below the
    # shift threshold it sums the series at the threshold itself.  Every
    # kind is checked against its coefficient written out here.
    from harmonicbounds.specfun import _SERIES, _log2_lower, _shift_threshold

    kinds = {
        "psi": (0, lambda k: bernoulli_number(2 * k) / (2 * k)),
        "psi1": (1, lambda k: bernoulli_number(2 * k)),
        "lgamma": (-1, lambda k: bernoulli_number(2 * k) / (2 * k * (2 * k - 1))),
        "expm1": (0, lambda k: bernoulli_number(2 * k) / (2 * k * math.factorial(2 * k))),
    }
    for w in (144, 1040):
        x = _shift_threshold(w) if n == "threshold" else n
        for kind, (s, coeff) in kinds.items():
            series = _SERIES[kind]
            count = series.terms(_log2_lower(x, 0), w + 6)
            acc = Fraction(0)
            for k in range(1, count + 1):
                acc += coeff(k) / Fraction(x) ** (2 * k + s)
            tail = abs(coeff(count + 1)) / Fraction(x) ** (2 * count + 2 + s)
            assert series.sum(x, count) == (acc, tail), (kind, w)
            # a shorter count after a longer one reads the same table
            first = coeff(1) / Fraction(x) ** (2 + s)
            assert series.sum(x, 1) == (first, abs(coeff(2)) / Fraction(x) ** (4 + s))
            # the ball coefficients are rounded from that table
            expected = [Ball.from_fraction(coeff(k), w) for k in range(1, count + 1)]
            assert series.balls(w, count) == expected, (kind, w)


# ---------------------------------------------------------------------------
# Stirling remainders
# ---------------------------------------------------------------------------

def _stirling_prefix(x: Fraction, terms: int) -> Fraction:
    """Exact rational part of the Stirling series: sum of Bernoulli terms."""
    acc = Fraction(0)
    for k in range(1, terms + 1):
        acc += bernoulli_number(2 * k) / ((2 * k - 1) * (2 * k) * x ** (2 * k - 1))
    return acc


def _oracle_remainder(kind: str, order: int, x: Fraction) -> Fraction:
    terms = 2 * order if kind == "F" else 2 * order + 1
    val = oracle(
        lambda v: mp.loggamma(v) - (v - mp.mpf(1) / 2) * mp.ln(v) + v - mp.ln(2 * mp.pi) / 2,
        x,
    ) - _stirling_prefix(x, terms)
    return val if kind == "F" else -val


def test_stirling_tail_validation():
    with pytest.raises(ValueError):
        stirling_tail("H", 2, 3, 128)
    with pytest.raises(ValueError):
        stirling_tail("F", 0, 3, 128)
    with pytest.raises(ValueError):
        stirling_tail("F", 13, 3, 128)
    with pytest.raises(DomainError):
        stirling_tail("F", 2, Fraction(-1, 2), 128)


def test_stirling_tail_matches_oracle_remainder():
    for kind, order in (("F", 1), ("F", 2), ("G", 1), ("G", 3)):
        for x in (Fraction(1), Fraction(5, 2), Fraction(7), Fraction(20)):
            got = stirling_tail(kind, order, x, 128)
            want = _oracle_remainder(kind, order, x)
            assert_contains(got, want, label=f"{kind}_{order}({x})")


def test_stirling_tail_positive_and_decreasing():
    for kind, order in (("F", 2), ("G", 1)):
        prev = None
        for x in range(1, 12):
            t = stirling_tail(kind, order, x, 128)
            assert t.is_positive(), f"{kind}_{order}({x}) not certified positive"
            if prev is not None:
                assert compare(t, prev) is Order.CERTAINLY_LESS
            prev = t


def test_stirling_tail_accepts_ball_arguments():
    wide = Ball(4, 0, 1, -6)
    t = stirling_tail("F", 2, wide, 128)
    for point in (Fraction(4) - Fraction(1, 64), Fraction(4), Fraction(4) + Fraction(1, 64)):
        assert_contains(t, _oracle_remainder("F", 2, point), label=f"F_2({point})")
