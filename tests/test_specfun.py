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


def _bernoulli_by_recurrence(top: int) -> list[Fraction]:
    """B_0..B_top from the defining recurrence sum_{k<=m} C(m+1, k) B_k = 0."""
    vals = [Fraction(1)]
    for m in range(1, top + 1):
        acc, c = Fraction(0), 1  # c = C(m+1, k)
        for k in range(m):
            if vals[k]:
                acc += c * vals[k]
            c = c * (m + 1 - k) // (k + 1)
        vals.append(-acc / (m + 1))
    return vals


def test_bernoulli_numbers_match_the_defining_recurrence():
    want = _bernoulli_by_recurrence(600)
    assert [bernoulli_number(m) for m in range(601)] == want


def _ladder_top() -> int:
    """Largest k whose B_2k psi_gap reads at the 4096-bit cap: the first
    omitted term at the shift threshold of its 4112 working bits."""
    from harmonicbounds.specfun import _SERIES, _log2_lower, _shift_threshold

    w = 4112
    return _SERIES["psi"].terms(_log2_lower(_shift_threshold(w), 0), w + 6) + 1


def test_bernoulli_denominators_follow_von_staudt_clausen():
    # the denominator of B_2k is the product of the primes p with (p-1) | 2k,
    # checked through k = 1072, the ladder's top when the shift threshold
    # was half what it is, and so past every B_2k that the ladder reads
    top = 1072
    assert 500 < _ladder_top() <= top
    sieve = bytearray([1]) * (2 * top + 2)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for k in range(1, top + 1):
        want = math.prod(d + 1 for d in range(1, 2 * k + 1) if 2 * k % d == 0 and sieve[d + 1])
        assert bernoulli_number(2 * k).denominator == want, k


def test_each_tangent_number_is_computed_once(monkeypatch):
    # built to B_1200 in one jump, then one index at a time, the table takes
    # one column step per tangent number T_2..T_600 either way
    from harmonicbounds import specfun

    step = specfun._tangent_step
    for one_jump in (True, False):
        columns = []
        monkeypatch.setattr(
            specfun, "_tangent_step", lambda column: columns.append(len(column)) or step(column)
        )
        cache = BernoulliCache()
        if one_jump:
            cache.get(1200)
        got = [cache.get(m) for m in range(1201)]
        assert columns == list(range(1, 600)), one_jump
        assert got == [bernoulli_number(m) for m in range(1201)]


def test_terms_reads_no_bernoulli_number(monkeypatch):
    from harmonicbounds import specfun

    def refuse(m):
        raise AssertionError(f"terms read B_{m}")

    monkeypatch.setattr(specfun, "bernoulli_number", refuse)
    monkeypatch.setattr(specfun, "_BERNOULLI", None)
    for w in (144, 1040, 4128, 16400):
        h = _log2_lower_of(specfun._shift_threshold(w))
        for kind, series in specfun._SERIES.items():
            assert series.terms(h, w + 6) > 1, (kind, w)


def test_kept_term_bounds_equal_the_formula_they_keep():
    # _lower keeps its h-free part per k; the kept float must be the one the
    # formula gives, so that no term count moves
    from harmonicbounds import specfun

    for kind, series in specfun._SERIES.items():
        fresh = specfun._Series(series.s, series._divisors)
        for k in range(1, 2000, 1 if kind != "expm1" else 13):
            logc = math.lgamma(2 * k + 1) / specfun._LN2 - 2 * k * specfun._LOG2_2PI
            for d in series._divisors(k):
                logc -= math.log2(d)
            for h in (0.0, 1.5, 6.9, 11.55, 64.0):
                want = logc - (2 * k + series.s) * h
                assert fresh._lower(k, h) == want, (kind, k, h)
                assert fresh._lower(k, h) == want, (kind, k, h)


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


@pytest.mark.parametrize("fn", [harmonic_exact, odd_harmonic_exact, alternating_partial])
def test_exact_partial_sums_take_an_int_index_from_zero(fn):
    # a bool would be summed as 0 or 1 terms, and a float failed inside range
    for n in (True, 2.5, 3.0):
        with pytest.raises(TypeError, match="n must be an int"):
            fn(n)
    assert fn(0) == Fraction(0)
    with pytest.raises(ValueError, match="n must be >= 0"):
        fn(-1)


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
    # 1300 digits resolve gamma far below the 4096-bit radius (about 10^-1233);
    # the radius after final rounding stays within one ulp at p bits
    want = oracle(lambda: +mp.euler, dps=1300)
    for policy in ("default", "alt"):
        for p in (53, 128, 256, 1024, 4096):
            g = euler_gamma(p, policy)
            assert_contains(g, want, fuzz=Fraction(1, 10**1290), label=f"gamma@{p}/{policy}")
            assert g.rad_fraction() <= Fraction(1, 2 ** (p - 1)), (p, policy)


def test_euler_gamma_policies_agree_and_differ_in_derivation(monkeypatch):
    from harmonicbounds import specfun

    shift_ball = specfun._shift_ball
    sums = []
    monkeypatch.setattr(
        specfun, "_shift_ball", lambda *args: sums.append(args[2]) or shift_ball(*args)
    )
    want = oracle(lambda: +mp.euler, dps=1300)
    for p in (128, 256, 1024, 4096):
        sums.clear()
        specfun._euler_gamma.cache_clear()
        try:
            a = euler_gamma(p, "default")
            b = euler_gamma(p, "alt")
        finally:
            specfun._euler_gamma.cache_clear()
        assert compare(a, b) is Order.OVERLAPPING, p
        for policy, g in (("default", a), ("alt", b)):
            assert_contains(g, want, fuzz=Fraction(1, 10**1290), label=f"gamma@{p}/{policy}")
        # distinct derivations: each policy sums H(2^k) at its own k, alt at
        # the power of two at or above the shift threshold and the default
        # at twice that, where the table psi's sums built there is long enough
        threshold = specfun._shift_threshold(p + 16)
        assert sums == [2 * sums[1], sums[1]], (p, sums)
        assert sums[1] & (sums[1] - 1) == 0 and threshold <= sums[1] < 2 * threshold, (p, sums)
    with pytest.raises(ValueError):
        euler_gamma(256, "fastest")


def test_euler_gamma_gamma_digit_window_at_double_precision():
    assert_in_window(euler_gamma(53), "0.57721566", "0.57721567", "gamma@53")


def _refuse(*args):
    raise AssertionError("exact sum on a certified path")


@pytest.mark.parametrize("p", [128, 1024])
def test_euler_gamma_sums_no_exact_harmonic_number(monkeypatch, p):
    # H(2^k) is summed in fixed point: no Fraction tree on gamma's path
    from harmonicbounds import specfun

    monkeypatch.setattr(specfun, "_tree_sum", _refuse)
    monkeypatch.setattr(specfun, "harmonic_exact", _refuse)
    specfun._euler_gamma.cache_clear()
    try:
        for policy in ("default", "alt"):
            assert_contains(euler_gamma(p, policy), GAMMA_110, fuzz=Fraction(1, 10**100))
    finally:
        specfun._euler_gamma.cache_clear()


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
    # a bool would sum with q = 1, and a float is not a count either
    with pytest.raises(TypeError, match="q must be an int"):
        EmConfig(q=True)
    with pytest.raises(TypeError, match="q must be an int"):
        EmConfig(q=5.0)
    assert EmConfig().q == 5


def test_harmonic_em_contains_exact_value():
    # H(10^6) from a 70-digit oracle: the ball must hold the whole interval
    # h +/- 10^-60, far inside its radius of at least 5e-40 at 128 bits
    with mp.workdps(70):
        h_big = Fraction(mp.nstr(mp.harmonic(10**6), 70))
    slack = Fraction(1, 10**60)
    for q in (1, 2, 3, 5, 8):
        cfg = EmConfig(q=q, precision=128)
        for n in (1, 2, 3, 10, 97, 1000):
            assert harmonic_em(n, cfg).contains(harmonic_exact(n)), f"H({n}) escaped q={q}"
        b = harmonic_em(10**6, cfg)
        assert b.contains(h_big - slack) and b.contains(h_big + slack), f"H(10^6) escaped q={q}"
    with pytest.raises(ValueError):
        harmonic_em(0)


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


@pytest.mark.parametrize(
    "x",
    [
        Fraction(1, 2),
        Fraction(3),
        Fraction(7, 2),
        Fraction(50),
        Fraction(12345, 64),
        Fraction(1, 3),
        Fraction(2**9 + 1, 2**9),
        Fraction(2**20 + 1, 2**12),
    ],
)
def test_digamma_family_at_1024_bits_against_mpmath(x):
    # 1/2 .. 50, 1/3 and 1 + 2^-9 are shifted up to the threshold, 12345/64
    # and 2^8 + 2^-12 are summed where they are; 1/3 is a ball rounded to
    # the working precision, and it, 1 + 2^-9 and 2^8 + 2^-12 have too many
    # fraction bits for the exact sums
    for name, fn, ref in (
        ("psi", digamma, mp.digamma),
        ("psi1", trigamma, lambda v: mp.polygamma(1, v)),
        ("lgamma", lgamma, mp.loggamma),
    ):
        b = fn(x, 1024)
        want = oracle(ref, x, dps=400)
        assert_contains(b, want, fuzz=abs(want) / 10**390, label=f"{name}({x})")
        assert b.rad_fraction() < abs(want) / 2**1000, name


def test_series_is_summed_by_one_kernel_at_every_dyadic(monkeypatch):
    from harmonicbounds import specfun

    seen = []
    enclose = specfun._Series.enclose
    monkeypatch.setattr(
        specfun._Series,
        "enclose",
        lambda self, *args: seen.append("enclose") or enclose(self, *args),
    )
    # the shift below the threshold (242 at 1024 bits) is in fixed point at
    # every x, whatever side the series takes
    shift_ball = specfun._shift_ball
    monkeypatch.setattr(
        specfun, "_shift_ball", lambda *args: seen.append("shift") or shift_ball(*args)
    )
    # integers, short and long dyadics, and a ball with a radius (1/3)
    for x, shifted in (
        (Fraction(specfun._shift_threshold(1040)), False),
        (Fraction(12345, 32), False),
        (Fraction(12345, 64), True),
        (Fraction(2**16 + 1, 2**8), False),
        (Fraction(2**17 + 1, 2**9), False),
        (Fraction(1), True),
        (Fraction(1, 2), True),
        (Fraction(2**8 + 1, 2**8), True),
        (Fraction(2**9 + 1, 2**9), True),
        (Fraction(1, 3), True),
    ):
        for fn in (digamma, trigamma, lgamma):
            seen.clear()
            # a memoised sum would sum nothing, so no kernel would be seen
            specfun._Series.at.cache_clear()
            fn(x, 1024)
            # ln Gamma carries an exact product, not the shift sum, but pads
            # its hull at a ball with a radius (1/3) by digamma's slope
            dyadic = x.denominator & (x.denominator - 1) == 0
            shift = shifted and (fn is not lgamma or not dyadic)
            assert seen and set(seen) == {"enclose"} | ({"shift"} if shift else set()), (
                fn.__name__, x,
            )


def test_points_below_the_threshold_share_one_series_sum(monkeypatch):
    # every integer below the shift threshold (242 at 1024 bits) sums its
    # series at the threshold itself, and psi_gap sums psi's series there too
    from harmonicbounds import specfun

    sums = []
    enclose = specfun._Series.enclose
    monkeypatch.setattr(
        specfun._Series, "enclose", lambda self, *args: sums.append(self) or enclose(self, *args)
    )
    specfun._Series.at.cache_clear()
    specfun._psi_gap.cache_clear()
    for x in range(1, 21):
        lgamma(x, 1024)
    assert sums == [specfun._SERIES["lgamma"]]
    sums.clear()
    for x in range(1, 21):
        digamma(x, 1024)
        trigamma(x, 1024)
    assert sums == [specfun._SERIES["psi"], specfun._SERIES["psi1"]]
    sums.clear()
    for n in range(1, 21):
        psi_gap(n, 1024)
    assert sums == []


@pytest.mark.parametrize("fn", [psi_gap, digamma, trigamma])
def test_shift_below_the_threshold_sums_no_exact_fraction(monkeypatch, fn):
    from harmonicbounds import specfun

    want = fn(1, 1024)
    specfun._psi_gap.cache_clear()
    specfun._Series.at.cache_clear()
    monkeypatch.setattr(specfun, "_tree_sum", _refuse)
    assert fn(1, 1024) == want


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("x", [Fraction(121), Fraction(12345, 64), Fraction(1, 3)])
def test_shift_sum_matches_the_per_term_sum(x, s):
    # the shift sum at x, dyadic or not, lies between the fixed-point sums at
    # the endpoints of x's 1040-bit ball, as digamma and trigamma take it
    from harmonicbounds.ball import _endpoints_scaled
    from harmonicbounds.specfun import _shift_ball

    lo, hi, e = _endpoints_scaled(Ball.from_fraction(x, 1040))
    assert e <= 0 and Fraction(lo, 2**-e) <= x <= Fraction(hi, 2**-e)
    for m in (0, 1, 2, 9, 10, 57):
        want = sum((1 / (x + j) ** s for j in range(m)), Fraction(0))
        at_lo = _shift_ball(lo, e, m, s, 1040)  # the sum decreases in x
        at_hi = _shift_ball(hi, e, m, s, 1040)
        assert at_hi.lower() <= want <= at_lo.upper(), (x, s, m)
        assert at_lo.upper() - at_hi.lower() <= want / 2**1030, (x, s, m)
        if lo == hi:
            assert at_lo.contains(want), (x, s, m)


@pytest.mark.parametrize("s", [1, 2])
def test_shift_ball_contains_the_exact_shift_sum(s):
    from harmonicbounds.specfun import _shift_ball

    third = Ball.from_fraction(Fraction(1, 3), 1040)  # 1/3 rounded to a long dyadic
    points = [(x, 0) for x in (1, 2, 17, 121)] + [(1, -1), (2**9 + 1, -9), (third.man, third.exp)]
    for xman, nexp in points:
        x = Fraction(xman, 2**-nexp)
        for m in (0, 1, 2, 9, 10, 57, 121):
            want = sum((1 / (x + j) ** s for j in range(m)), Fraction(0))
            b = _shift_ball(xman, nexp, m, s, 1040)
            assert b.contains(want), (x, m)
            assert b.rad_fraction() <= want / 2**1030, (x, m)
    if s == 1:
        # H(2^13), longer than gamma's longest, H(2^11) at 4096 bits
        want = harmonic_exact(2**13)
        b = _shift_ball(1, 0, 2**13, 1, 1040)
        assert b.contains(want)
        assert b.rad_fraction() <= want / 2**1030


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


def _gap_oracle(x) -> Fraction:
    return oracle(lambda v: mp.ln(v) + 1 / (2 * v) - mp.digamma(v + 1), x)


@pytest.mark.parametrize(
    "x",
    [
        Ball.from_fraction(Fraction(7, 2), 128),
        Ball.from_fraction(Fraction(10, 3), 128),  # a one-ulp ball
        Ball(4, 0, 1, -5),  # [4 - 1/32, 4 + 1/32]
    ],
    ids=["7/2", "10/3", "4+-1/32"],
)
def test_psi_gap_at_a_ball_contains_gap_at_each_of_its_points(x):
    # gap decreases on (0, inf), so the hull of its endpoints' values
    # holds it at every point between them
    lo, hi = x.lower(), x.upper()
    got = psi_gap(x, 128)
    assert got.is_positive()
    for k in range(5):
        point = lo + (hi - lo) * k / 4
        assert_contains(got, _gap_oracle(point), label=f"gap({point})")


@pytest.mark.parametrize("p", [128, 1024])
def test_psi_gap_at_an_exact_integer_ball_equals_the_int_result(p):
    # the shift threshold is 36 at 128 bits and 242 at 1024, so both sides
    # of it are covered at both precisions
    for n in (*range(1, 200), 500, 10**6):
        assert psi_gap(Ball.from_int(n), p) == psi_gap(n, p)


@pytest.mark.parametrize("p", [128, 1024])
def test_psi_gap_at_an_int_and_its_exact_ball_reads_one_memo_entry(p):
    # an int n is keyed as the exact ball (n, 0, 0), so the ball hits the
    # entry the int made
    from harmonicbounds import specfun

    for n in (5, 500, 10**30):
        psi_gap(n, p)
        hits = specfun._psi_gap.cache_info().hits
        psi_gap(Ball.from_int(n), p)
        assert specfun._psi_gap.cache_info().hits == hits + 1, n


def test_psi_gap_refuses_a_ball_that_reaches_zero():
    for x in (Ball(0, 0), Ball(1, 0, 1, 0), Ball(1, -4, 1, -3)):
        with pytest.raises(DomainError):
            psi_gap(x, 128)


@pytest.mark.parametrize(
    "n", [10**4, 10**20, 10**100, 10**400], ids=["1e4", "1e20", "1e100", "1e400"]
)
def test_psi_gap_radius_is_cancellation_free(n):
    # the naive difference of two O(ln n) balls at 128 bits has absolute
    # radius ~2^-120; the gap evaluator must do relatively better than that
    # on a quantity of size ~1/(12 n^2), however small that is
    g = psi_gap(n, 128)
    assert g.rad_fraction() < g.mid_fraction() * Fraction(1, 2**100)


@pytest.mark.parametrize("p", [128, 1024])
@pytest.mark.parametrize("n", [10**3, 10**6, 10**400], ids=["1e3", "1e6", "1e400"])
def test_psi_gap_above_the_threshold_builds_no_fraction(monkeypatch, n, p):
    # once the Bernoulli and coefficient tables are warm, the series is
    # summed in integers: no Fraction is built, however large n is
    from harmonicbounds import specfun

    assert n >= specfun._shift_threshold(p + 16)
    want = psi_gap(n, p)
    # both memos cleared, so the series is summed again, not read back
    specfun._psi_gap.cache_clear()
    specfun._Series.at.cache_clear()
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw)
    )
    got = psi_gap(n, p)
    monkeypatch.undo()
    assert built == []
    assert got == want


# kind -> (s, the divisors of B_2k in c_k)
_KINDS = {
    "psi": (0, lambda k: (2 * k,)),
    "psi1": (1, lambda k: ()),
    "lgamma": (-1, lambda k: (2 * k, 2 * k - 1)),
    "expm1": (0, lambda k: (2 * k, math.factorial(2 * k))),
}


def _coeff(kind: str, k: int) -> Fraction:
    return bernoulli_number(2 * k) / math.prod(_KINDS[kind][1](k))


def _log2_lower_of(x) -> float:
    """The lower bound on log2 x that the series are handed, for x = a/2^f."""
    from harmonicbounds.specfun import _log2_lower

    x = Fraction(x)
    return _log2_lower(x.numerator, 1 - x.denominator.bit_length())


@pytest.mark.parametrize(
    "n",
    [
        "threshold",
        150,
        10**3,
        10**6,
        pytest.param(Fraction(245, 2), id="245_over_2"),
        pytest.param(Fraction(12345, 64), id="12345_over_64"),
    ],
)
def test_bernoulli_sum_matches_the_per_term_sum(n):
    # psi_gap at 128 and 1024 bits works at 144 and 1040 bits; below the
    # shift threshold it sums the series at the threshold itself; digamma,
    # trigamma and log-gamma sum them at dyadic points.  Every kind is
    # checked against its coefficient written out here: the kernel's ball
    # holds the per-term sum plus and minus the first omitted term, and is
    # no wider than the kernel's bound.
    from harmonicbounds.specfun import _SERIES, _shift_threshold

    for w in (144, 1040):
        x = Fraction(_shift_threshold(w) if n == "threshold" else n)
        man, exp = x.numerator, 1 - x.denominator.bit_length()
        f = w + 32
        for kind, (s, _) in _KINDS.items():
            series = _SERIES[kind]
            count = series.terms(_log2_lower_of(x), w + 6)
            c = [_coeff(kind, k) for k in range(1, count + 2)]
            acc = sum((c[k - 1] / x ** (2 * k + s) for k in range(1, count + 1)), Fraction(0))
            tail = abs(c[count]) / x ** (2 * count + 2 + s)
            got = series.enclose(man, exp, count, w)
            assert got.lower() <= acc - tail and acc + tail <= got.upper(), (kind, w)
            # (2 count + 2) 2^(2+s) units of 2^-F for the floors, F being f
            # raised by x's integer bit length per factor 1/x, the tail
            # rounded up to a unit on each side, and the rounding to w bits
            units = ((2 * count + 2) << (2 + s)) + 2
            bound = Fraction(units, 2 ** (f + (2 + s) * int(x).bit_length() + 1))
            assert got.rad_fraction() <= bound + tail + abs(acc) / 2 ** (w - 1), (kind, w)
            # a shorter count after a longer one reads the same table
            first = series.enclose(man, exp, 1, w)
            second = abs(c[1]) / x ** (4 + s)
            assert first.lower() <= c[0] / x ** (2 + s) - second, (kind, w)
            assert c[0] / x ** (2 + s) + second <= first.upper(), (kind, w)
            assert [series.coeff(k) for k in range(1, count + 1)] == c[:count], (kind, w)
            assert series._ints(f, count) == [math.floor(ck * 2**f) for ck in c[:count]]


@pytest.mark.parametrize("count", [26, 28, 30])
def test_series_interval_holds_its_horner_floor_error(monkeypatch, count):
    # gap(40) = ln 40 + 1/80 - psi(41) is psi's whole series at 40.  Past
    # the 21 terms it needs at 152 bits the first omitted term is positive
    # and at most 4 units of 2^-f, so the upper end rests on the floors'
    # (2 count + 2) 2^(2+s) units.  The rounding to w bits hides a few
    # units, so the integer interval the kernel rounds is checked
    from harmonicbounds import specfun

    seen = []
    make = specfun._from_int_interval
    monkeypatch.setattr(
        specfun, "_from_int_interval", lambda lo, hi, e, w: seen.append((lo, hi, e)) or make(lo, hi, e, w)
    )
    specfun._SERIES["psi"].enclose(40, 0, count, 152)
    (lo, hi, e), = seen
    with mp.workprec(600):
        gap = mp.log(40) + mp.mpf(1) / 80 - mp.digamma(41)
        assert lo <= gap * mp.mpf(2) ** -e <= hi


@pytest.mark.parametrize("f", [64, 1072, 4144])
def test_coefficient_floors_are_the_floors_of_the_exact_coefficients(f):
    # _ints floors B_2k 2^f over the product of the divisors, with no
    # Fraction in between: the floor of the same rational as coeff(k) 2^f
    from harmonicbounds import specfun

    for kind, series in specfun._SERIES.items():
        fresh = specfun._Series(series.s, series._divisors)
        want = [math.floor(_coeff(kind, k) * 2**f) for k in range(1, 301)]
        assert fresh._ints(f, 300) == want, kind
        assert fresh._ints(f, 7) == want[:7], kind


@pytest.mark.parametrize("x", [Fraction(7, 2), Fraction(7), Fraction(1000)], ids=str)
def test_truncations_lie_on_their_stated_side(x):
    # the series from mpmath's psi and psi', not from digamma or trigamma:
    # psi(x) = ln x - 1/(2x) - S(1/x) and psi'(x) = 1/x + 1/(2x^2) + S1(1/x)
    from harmonicbounds.specfun import _SERIES

    with mp.workdps(80):
        xm = mp.mpf(x.numerator) / x.denominator
        sums = {
            "psi": mp.log(xm) - 1 / (2 * xm) - mp.digamma(xm),
            "psi1": mp.psi(1, xm) - 1 / xm - 1 / (2 * xm**2),
        }
        for kind, value in sums.items():
            for count in (3, 4):
                poly, side = _SERIES[kind].truncation(count)
                t = poly(1 / x)
                miss = value - mp.mpf(t.numerator) / t.denominator
                assert mp.sign(miss) == side, (kind, count)
                # and no further off than the first omitted term, as the
                # kernel rounds it up to a unit of 2^-256
                d = x.denominator.bit_length() - 1
                first = _SERIES[kind]._omitted(count, x.numerator, d, 256)
                assert abs(miss) < mp.mpf(first) / 2**256, (kind, count)


def test_tail_at_a_long_dyadic_bounds_the_first_omitted_term():
    # 121 + 1/3 rounded to 1040 fraction bits, as a ball endpoint would be
    from harmonicbounds.specfun import _SERIES

    a, d = (364 << 1040) // 3, 1040
    x = Fraction(a, 1 << d)
    drop = a.bit_length() - 64
    x64 = Fraction(a >> drop, 1 << (d - drop))  # x rounded down to 64 significant bits
    for kind, (s, _) in _KINDS.items():
        for count in (1, 5, 260):
            e = 2 * count + 2 + s
            exact = abs(_coeff(kind, count + 1)) / x**e
            # fraction bits enough that a unit is below 2^-120 of the term
            f = 120 + exact.denominator.bit_length() - exact.numerator.bit_length()
            units = _SERIES[kind]._omitted(count, a, d, f)
            got = Fraction(units, 2**f)
            assert exact <= got <= exact * (1 + Fraction(e, 2**62)), (kind, count)
            assert units == math.ceil(abs(_coeff(kind, count + 1)) / x64**e * 2**f), (kind, count)


def _term(kind: str, k: int, x) -> Fraction:
    """|c_k| x^-(2k+s), term k of a kind written out here."""
    return abs(_coeff(kind, k)) / Fraction(x) ** (2 * k + _KINDS[kind][0])


@pytest.mark.parametrize("w", [144, 1040, 4128])
def test_term_counts_are_correct_and_minimal(w):
    # the first omitted term is below the target 2^-(w+6), the last one kept
    # within 2 bits of it, and a divergent kind whose terms all stay above
    # it up to k of about pi x is refused
    from harmonicbounds.specfun import _SERIES, _shift_threshold

    points = (_shift_threshold(w), 150, 10**3, 10**6, Fraction(245, 2))
    refused = []
    for kind in _KINDS:
        for x in points + ((2, 18) if kind == "expm1" else ()):
            h = _log2_lower_of(x)
            try:
                count = _SERIES[kind].terms(h, w + 6)
            except AssertionError:
                assert kind != "expm1", x
                top = math.floor(math.pi * x)
                assert all(_term(kind, k, x) > Fraction(1, 2 ** (w + 8)) for k in range(2, top))
                refused.append((kind, x))
                continue
            assert _term(kind, count + 1, x) <= Fraction(1, 2 ** (w + 6)), (kind, x, w)
            if count > 1:
                assert _term(kind, count, x) > Fraction(1, 2 ** (w + 8)), (kind, x, w)
    # at 4128 bits 150 and 245/2 are below every divergent kind's reach
    assert len(refused) == (6 if w == 4128 else 0), refused


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
