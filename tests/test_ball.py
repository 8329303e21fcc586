"""Unit and property tests for the dyadic midpoint-radius ball arithmetic.

The load-bearing property throughout: every operation returns a ball whose
exact rational endpoints contain the exact image of the inputs.  Hypothesis
drives that against stdlib Fraction interval arithmetic, which serves as the
independent oracle.
"""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonicbounds.ball import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    Ball,
    EnclosureError,
    Order,
    Precision,
    _bits,
    add,
    add_rad_fraction,
    abs_ball,
    bits_of,
    climb,
    compare,
    div,
    dyadic_decimal,
    enclosure_str,
    hull,
    mul,
    neg,
    radius_decimal,
    recip,
    round_ball,
    scale2,
    sub,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

mids = st.integers(min_value=-(2**60), max_value=2**60)
exps = st.integers(min_value=-80, max_value=40)
rads = st.integers(min_value=0, max_value=2**32 - 1)
rexps = st.integers(min_value=-120, max_value=0)
# exponents thousands of bits apart, so that sums take the absorb branch
far_exps = st.integers(min_value=-6000, max_value=6000)


@st.composite
def balls(draw):
    """Tight balls near 1, balls at far exponents (some with a radius
    thousands of bits finer than the midpoint), balls whose midpoint and
    radius are up to 400 bits long with endpoints on powers of two (where
    rounding up leaves no slack), and wide balls, whose radius is at least
    |midpoint| and may be far longer, so that rounding shortens the
    midpoint."""
    kind = draw(st.sampled_from(("tight", "far", "edge", "wide")))
    man = draw(mids)
    if kind == "tight":
        return Ball(man, draw(exps), draw(rads), draw(rexps))
    if kind == "far":
        e = draw(far_exps)
        return Ball(man, e, draw(rads), e + draw(st.integers(min_value=-4000, max_value=0)))
    if kind == "edge":
        long_bits = st.integers(min_value=0, max_value=400)
        sign = draw(st.sampled_from((-1, 0, 1)))
        man = sign * ((1 << draw(long_bits)) - draw(st.integers(min_value=0, max_value=1)))
        e = draw(far_exps)
        return Ball(man, e, (1 << draw(long_bits)) - 1, e)
    e = draw(exps)
    return Ball(man, e, (abs(man) << draw(st.integers(min_value=0, max_value=300))) + draw(rads), e)


@st.composite
def radii(draw):
    """Nonnegative Fractions from far below one to far above it."""
    v = draw(st.fractions(min_value=0, max_value=10**6, max_denominator=10**9))
    return v * Fraction(2) ** draw(st.integers(min_value=-5000, max_value=40))


def interval(b: Ball) -> tuple[Fraction, Fraction]:
    return b.lower(), b.upper()


def assert_encloses(result: Ball, lo: Fraction, hi: Fraction) -> None:
    assert result.lower() <= lo and hi <= result.upper(), (
        f"[{float(lo)}, {float(hi)}] escapes result "
        f"[{float(result.lower())}, {float(result.upper())}]"
    )


# ---------------------------------------------------------------------------
# construction and exact views
# ---------------------------------------------------------------------------

def test_constructor_normalises_zero_midpoint_exponent():
    b = Ball(0, 57)
    assert b.man == 0 and b.exp == 0
    assert b.is_exact and b.contains_zero()


def test_constructor_rejects_negative_radius():
    with pytest.raises(ValueError):
        Ball(1, 0, -1, 0)


def test_constructor_holds_midpoint_and_radius_exactly():
    # the midpoint's exponent drops to the radius's when that is finer
    b = Ball(1, 0, 2**40 + 1, -80)
    assert (b.man, b.exp, b.r) == (2**80, -80, 2**40 + 1)
    assert b.rad_fraction() == Fraction(2**40 + 1, 2**80)
    assert (b.rman, b.rexp) == (2**40 + 1, -80)
    c = Ball(3, -10, 5, 0)
    assert (c.man, c.exp, c.r) == (3, -10, 5 << 10)
    assert (Ball(3, -10).rman, Ball(3, -10).rexp) == (0, 0)


@given(balls(), balls(), st.sampled_from([53, 64, 200]))
@settings(max_examples=300)
def test_rounding_keeps_the_midpoint_short_and_the_radius_small(a, b, p):
    # after any rounding at p bits: at most p + 1 midpoint bits, r <= 2^64 + 1
    results = [add(a, b, p), sub(a, b, p), mul(a, b, p), hull(a, b, p), round_ball(a, p)]
    if not b.contains_zero():
        results += [recip(b, p), div(a, b, p)]
    for c in results:
        assert c.man.bit_length() <= p + 1 and c.r <= 2**64 + 1, (c.man, c.exp, c.r)


def test_exact_views_roundtrip():
    b = Ball(-13, -3, 5, -10)
    assert b.mid_fraction() == Fraction(-13, 8)
    assert b.rad_fraction() == Fraction(5, 1024)
    assert b.lower() == Fraction(-13, 8) - Fraction(5, 1024)
    assert b.upper() == Fraction(-13, 8) + Fraction(5, 1024)
    assert b.contains(b.mid_fraction())
    assert not b.contains(b.upper() + Fraction(1, 10**9))


def test_from_int_and_exact_dyadic_are_exact():
    assert Ball.from_int(41).mid_fraction() == 41
    assert Ball.from_int(41).is_exact
    d = Ball.exact_dyadic(-9, -4)
    assert d.mid_fraction() == Fraction(-9, 16) and d.is_exact


def test_from_fraction_dyadic_is_exact_at_any_precision():
    for p in (53, 64, 128):
        b = Ball.from_fraction(Fraction(-11, 256), p)
        assert b.is_exact and b.mid_fraction() == Fraction(-11, 256)


def test_from_fraction_nondyadic_is_tight():
    v = Fraction(1, 3)
    for p in (53, 128, 1024):
        b = Ball.from_fraction(v, p)
        assert b.contains(v)
        assert b.rad_fraction() <= Fraction(1, 2**p)


@given(st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**12))
@settings(max_examples=200)
def test_from_fraction_always_contains_value(v):
    b = Ball.from_fraction(v, 64)
    assert b.contains(v)
    assert b.rad_fraction() <= abs(v) * Fraction(1, 2**60) + Fraction(1, 2**60)


def test_sign_predicates():
    assert Ball(3, -1, 1, -10).is_positive()
    assert Ball(-3, -1, 1, -10).is_negative()
    wide = Ball(1, 0, 3, 0)
    assert not wide.sign_definite() and wide.contains_zero()
    assert not Ball(0, 0).is_positive() and not Ball(0, 0).is_negative()


def test_structural_equality_and_hash():
    # the same midpoint and radius, each pair in two encodings
    for a, b in [
        (Ball(1, -1, 1, -5), Ball(2, -2, 2, -6)),
        (Ball(2, 0), Ball(1, 1)),
        (Ball(4, 0, 1, -5), Ball(256, -6, 2, -6)),
        (Ball(0, 0), Ball(0, 9)),
        (Ball(0, 0, 1, -3), Ball(0, 0, 2, -4)),
    ]:
        assert a == b and hash(a) == hash(b)
    assert Ball(1, -1, 1, -5) != Ball(1, -1)


@given(balls())
@settings(max_examples=200)
def test_balls_are_immutable_and_picklable(b):
    fields = (b.man, b.exp, b.r)
    for name in ("man", "exp", "r"):
        with pytest.raises(AttributeError):
            setattr(b, name, 6)
        with pytest.raises(AttributeError):
            delattr(b, name)
    with pytest.raises(AttributeError):
        b.other = 6
    # memoised balls are shared between callers: a refused write changes nothing
    assert (b.man, b.exp, b.r) == fields
    # sweep_2jobs sends balls between processes
    c = pickle.loads(pickle.dumps(b))
    assert type(c) is Ball and (c.man, c.exp, c.r) == (b.man, b.exp, b.r)


@given(st.sampled_from([0, 1, -1]) | st.integers(min_value=-(2**300), max_value=2**300))
@settings(max_examples=200)
def test_from_int_builds_what_the_general_constructor_builds(v):
    a, b = Ball.from_int(v), Ball(v, 0)
    assert type(a) is Ball
    assert (a.man, a.exp, a.r) == (b.man, b.exp, b.r)


# ---------------------------------------------------------------------------
# precision handling
# ---------------------------------------------------------------------------

def test_precision_dataclass_validates():
    assert Precision().bits == DEFAULT_PRECISION
    assert Precision(MAX_PRECISION).bits == MAX_PRECISION
    with pytest.raises(ValueError):
        Precision(MIN_PRECISION - 1)
    with pytest.raises(ValueError):
        Precision(MAX_PRECISION + 1)
    with pytest.raises(TypeError):
        Precision(128.0)


def test_bits_of_accepts_ints_and_precision():
    assert bits_of(Precision(256)) == 256
    assert bits_of(53) == 53
    assert bits_of(MAX_PRECISION) == MAX_PRECISION
    with pytest.raises(ValueError, match=f"got {MAX_PRECISION + 1}"):
        bits_of(MAX_PRECISION + 1)
    # working bits get headroom past the callers' cap for guard bits
    assert _bits(MAX_PRECISION + 512) == MAX_PRECISION + 512
    with pytest.raises(ValueError):
        _bits(MAX_PRECISION + 513)
    with pytest.raises(ValueError):
        bits_of(52)
    with pytest.raises(TypeError):
        bits_of(True)


# ---------------------------------------------------------------------------
# arithmetic soundness (hypothesis, against exact Fraction intervals)
# ---------------------------------------------------------------------------

@given(balls(), balls())
@settings(max_examples=300)
def test_add_encloses_exact_sum(a, b):
    la, ua = interval(a)
    lb, ub = interval(b)
    assert_encloses(add(a, b, 64), la + lb, ua + ub)


@given(balls(), balls())
@settings(max_examples=300)
def test_sub_encloses_exact_difference(a, b):
    la, ua = interval(a)
    lb, ub = interval(b)
    assert_encloses(sub(a, b, 64), la - ub, ua - lb)


@pytest.mark.parametrize(
    "big, small, p",
    [
        # long radius, midpoint 0: rounding up leaves no room for the addend
        (Ball(0, 0, 2**300 - 1, 0), Ball(2**250 - 1, -200), 53),
        # a midpoint longer than p + 1 bits, the addend 2^370 below it
        (Ball(2**999, 0, 2**871 - 1, 0), Ball(2**500 - 1, -300), 128),
    ],
)
def test_absorbed_addend_stays_inside_the_sum(big, small, p):
    # the exponents are far apart, so the small operand is absorbed into
    # the radius of the big one; its whole magnitude must be covered
    for a, b in ((big, small), (small, big)):
        la, ua = interval(a)
        lb, ub = interval(b)
        assert_encloses(add(a, b, p), la + lb, ua + ub)
        assert_encloses(sub(a, b, p), la - ub, ua - lb)


@given(balls(), balls())
@settings(max_examples=300)
def test_mul_encloses_exact_product(a, b):
    la, ua = interval(a)
    lb, ub = interval(b)
    prods = [la * lb, la * ub, ua * lb, ua * ub]
    assert_encloses(mul(a, b, 64), min(prods), max(prods))


@given(balls())
@settings(max_examples=300)
def test_recip_encloses_exact_reciprocal(a):
    if a.contains_zero():
        with pytest.raises(EnclosureError):
            recip(a, 64)
        return
    lo, hi = interval(a)
    assert_encloses(recip(a, 64), 1 / hi, 1 / lo)


@given(balls(), balls())
@settings(max_examples=200)
def test_div_matches_mul_by_recip(a, b):
    if b.contains_zero():
        with pytest.raises(EnclosureError):
            div(a, b, 64)
        return
    la, ua = interval(a)
    lb, ub = interval(b)
    quots = [la / lb, la / ub, ua / lb, ua / ub]
    assert_encloses(div(a, b, 64), min(quots), max(quots))


@given(balls())
@settings(max_examples=200)
def test_neg_abs_scale_are_exact_set_operations(a):
    lo, hi = interval(a)
    n = neg(a)
    assert n.lower() == -hi and n.upper() == -lo
    s = scale2(a, 3)
    assert s.lower() == 8 * lo and s.upper() == 8 * hi
    s2 = scale2(a, -5)
    assert s2.lower() == lo / 32 and s2.upper() == hi / 32
    ab = abs_ball(a)
    assert ab.lower() <= max(abs(lo), abs(hi)) <= ab.upper() or ab.contains(abs(lo))
    assert ab.upper() >= max(abs(lo), abs(hi))
    assert ab.lower() >= 0 if a.contains_zero() else ab.lower() > 0


def test_div_keeps_its_guard_bits_at_the_precision_cap():
    # the reciprocal takes 8 guard bits even at p = MAX_PRECISION
    a = Ball.from_fraction(Fraction(2, 3), MAX_PRECISION + 64)
    b = Ball.from_fraction(Fraction(7, 5), MAX_PRECISION + 64)
    p = MAX_PRECISION
    want = mul(a, recip(b, p + 8), p)
    assert div(a, b, p).rad_fraction() <= want.rad_fraction()


@given(balls(), balls())
@settings(max_examples=200)
def test_hull_contains_both_operands(a, b):
    h = hull(a, b, 64)
    assert h.lower() <= min(a.lower(), b.lower())
    assert h.upper() >= max(a.upper(), b.upper())


@given(balls())
@settings(max_examples=200)
def test_round_ball_to_lower_precision_still_encloses(a):
    r = round_ball(a, 53)
    assert r.lower() <= a.lower() and a.upper() <= r.upper()


@given(balls(), radii())
@settings(max_examples=300)
def test_add_rad_fraction_encloses_the_widened_interval(a, v):
    g = add_rad_fraction(a, v)
    assert g.mid_fraction() == a.mid_fraction()
    assert_encloses(g, a.lower() - v, a.upper() + v)


def test_add_rad_fraction_grows_radius_conservatively():
    b = Ball(1, 0)
    g = add_rad_fraction(b, Fraction(1, 7))
    assert g.rad_fraction() >= Fraction(1, 7)
    assert g.contains(Fraction(6, 7)) and g.contains(Fraction(8, 7))
    with pytest.raises(ValueError):
        add_rad_fraction(b, Fraction(-1, 7))


def test_rounding_error_is_absorbed_into_radius():
    # 2^-100 + 1 at 53 bits cannot represent the sum exactly; the ulp must
    # land in the radius, keeping the exact sum inside.
    tiny = Ball.exact_dyadic(1, -100)
    s = add(Ball.from_int(1), tiny, 53)
    exact = 1 + Fraction(1, 2**100)
    assert s.contains(exact)
    assert s.rad_fraction() > 0


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_orders_disjoint_balls():
    a = Ball(1, 0, 1, -4)
    b = Ball(3, 0, 1, -4)
    assert compare(a, b) is Order.CERTAINLY_LESS
    assert compare(b, a) is Order.CERTAINLY_GREATER


def test_compare_touching_balls_overlap():
    # [0,2] and [2,4]: shared endpoint means no certain order
    a = Ball(1, 0, 1, 0)
    b = Ball(3, 0, 1, 0)
    assert compare(a, b) is Order.OVERLAPPING


@given(balls(), balls())
@settings(max_examples=300)
def test_compare_agrees_with_exact_endpoints(a, b):
    got = compare(a, b)
    if a.upper() < b.lower():
        assert got is Order.CERTAINLY_LESS
    elif a.lower() > b.upper():
        assert got is Order.CERTAINLY_GREATER
    else:
        assert got is Order.OVERLAPPING


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------

def test_dyadic_decimal_exact_values():
    assert dyadic_decimal(1, 0, 5) == "1.0000"
    assert dyadic_decimal(-7, -2, 6) == "-1.75000"
    assert dyadic_decimal(0, 0, 4) == "0"


def test_radius_decimal_is_an_upper_bound():
    assert radius_decimal(0, 0) == "0"
    for rman, rexp in [(1, -10), (3, -100), (2**32 - 1, -700), (7, 4)]:
        printed = Fraction(radius_decimal(rman, rexp))
        assert printed >= Fraction(rman) * Fraction(2) ** rexp


@given(rads.filter(lambda r: r > 0), rexps)
@settings(max_examples=300)
def test_radius_decimal_ceiling_property(rman, rexp):
    printed = Fraction(radius_decimal(rman, rexp))
    exact = Fraction(rman) * Fraction(2) ** rexp
    assert printed >= exact
    # and not absurdly loose: within one decimal order of magnitude
    assert printed <= 10 * exact


def _decimal_reference(man: int, exp: int, sig: int, up: bool) -> Fraction:
    """|man|*2^exp rounded to `sig` significant digits in exact arithmetic:
    half-even, or upward if `up`."""
    x = abs(Fraction(man) * Fraction(2) ** exp)
    t = len(str(x.numerator // x.denominator)) - 1 if x >= 1 else 0
    while Fraction(10) ** t > x:
        t -= 1
    unit = Fraction(10) ** (t - sig + 1)
    q, rem = divmod(x, unit)
    if up:
        q += rem > 0
    elif 2 * rem > unit or (2 * rem == unit and q % 2):
        q += 1
    return q * unit  # q = 10^sig renders as 10^(sig-1) at t + 1: the same value


def _decimal_cases():
    rng = random.Random(20100)
    for _ in range(3000):
        man = rng.getrandbits(rng.randint(1, 300)) or 1
        yield rng.choice((man, -man)), rng.randint(-700, 700), rng.randint(1, 40)
    # one ulp either side of a power of ten, and on it where that is dyadic
    for _ in range(400):
        k, bits = rng.randint(-60, 60), rng.randint(8, 200)
        exp = math.floor(k * math.log2(10)) - bits
        near = Fraction(10) ** k / Fraction(2) ** exp
        man = near.numerator // near.denominator
        for m in (man - 1, man, man + 1):
            yield m, exp, rng.randint(1, 40)


def _tie_cases():
    """Exact ties (D + 1/2)*10^j at each sig, D even and odd: 2D + 1 is an
    odd multiple of 5^-j, so that the tie is dyadic when j < 0."""
    rng = random.Random(2010)
    for sig in range(1, 41):
        for j in (-3, -1, 0, 2, 5):
            five = 5 ** max(-j, 0)
            lo, hi = -(-(2 * 10 ** (sig - 1) + five) // (2 * five)), (2 * 10**sig - five) // (2 * five)
            for i in {lo, hi, rng.randint(lo, hi), rng.randint(lo, hi)} if lo <= hi else ():
                # (2D + 1)/2 * 10^j = (2i + 1) 5^j' 2^(j - 1), j' = max(j, 0)
                yield (2 * i + 1) * 5 ** max(j, 0), j - 1, sig


@pytest.mark.parametrize("cases", [_decimal_cases, _tie_cases])
def test_decimal_kernel_matches_exact_rounding(cases):
    for man, exp, sig in cases():
        text = dyadic_decimal(man, exp, sig)
        want = _decimal_reference(man, exp, sig, up=False)
        assert Fraction(text) == (-want if man < 0 else want), (man, exp, sig)
        rad = Fraction(radius_decimal(abs(man), exp))
        assert rad == _decimal_reference(man, exp, 2, up=True), (man, exp)


# (a, exp, sig, up, how far t settles from its first estimate: 0 = right,
# +1 = one too low, -1 = one too high).  The estimate reads only the bit
# length, so 15 (4 bits, estimate 0) is one too low; 2^13301 is the first
# power of two where 30103/100000 > log10(2) lifts it one too high.  999 and
# 991 (up) settle only after q rounds up to exactly 10^sig.
_BRANCH_CASES = [
    (3, 10, 2, False, 0),  # exp >= 0, 10^2 into den: 3072
    (3, 4, 5, False, 0),  # exp >= 0, 10^3 into num: 48
    (1, -3, 2, False, 0),  # exp < 0, 10^2 into num: 0.125
    (3 << 40, -20, 2, False, 0),  # exp < 0, 10^5 into den: 3145728
    (15, 0, 2, False, 1),
    (1, 13301, 12, False, -1),
    (999, 0, 2, False, 1),
    (991, 0, 2, True, 1),
    (16, 0, 2, True, 0),  # up, zero remainder: stays 16
    (17, 0, 1, True, 0),  # up, nonzero remainder: 2e1
    (5, -7, 3, True, 0),  # up, exp < 0: 0.0390625 -> 0.0391
]


@pytest.mark.parametrize("a, exp, sig, up, moved", _BRANCH_CASES)
def test_decimal_digits_each_branch_matches_exact_rounding(a, exp, sig, up, moved):
    from harmonicbounds import ball

    q, t = ball._decimal_digits(a, exp, sig, up)
    assert 10 ** (sig - 1) <= q < 10**sig
    assert q * Fraction(10) ** (t - sig + 1) == _decimal_reference(a, exp, sig, up)
    assert t - (a.bit_length() - 1 + exp) * 30103 // 100000 == moved


def test_radius_memo_agrees_with_the_function_and_holds_a_report():
    from harmonicbounds.verify import verify_all

    rep = verify_all(500, 128)
    margins = {(r.margin.r, r.margin.exp) for r in rep.records if r.margin is not None}
    for rman, rexp in margins:
        assert radius_decimal(rman, rexp) == radius_decimal.__wrapped__(rman, rexp)
    radius_decimal.cache_clear()
    rep.to_json()
    info = radius_decimal.cache_info()
    # every distinct radius fits, so the report never evicts one it needs again
    assert 0 < info.misses <= info.maxsize == 1024 and info.hits > info.misses


def test_pow10_memo_holds_a_whole_report():
    from harmonicbounds import ball
    from harmonicbounds.verify import verify_all

    ball._pow10.cache_clear()
    verify_all(25, 1024).to_json()
    info = ball._pow10.cache_info()
    # every distinct power fits, so a report never evicts one it needs again
    assert 0 < info.misses <= info.maxsize == 64 and info.hits > info.misses


def test_enclosure_str_format():
    assert enclosure_str(Ball.from_int(2), 8) == "2.0000000 +/- 0"
    s = enclosure_str(Ball.from_fraction(Fraction(1, 3), 64), 12)
    assert s.startswith("0.333333333333 +/- ")
    assert enclosure_str(Ball(0, 0)) == "0 +/- 0"


@given(balls(), st.integers(min_value=1, max_value=40))
@settings(max_examples=300)
def test_enclosure_str_interval_contains_the_ball(b, sig):
    # the printed radius must also cover the rounding of the printed midpoint
    mid, rad = (Fraction(part) for part in enclosure_str(b, sig).split(" +/- "))
    assert mid - rad <= b.lower() and b.upper() <= mid + rad


# ---------------------------------------------------------------------------
# the precision ladder
# ---------------------------------------------------------------------------

def test_climb_doubles_until_decided():
    rungs = []

    def step(w):
        rungs.append(w)
        return ("yes" if w >= 512 else None), w, Ball(0, 0, 1, -w)

    assert climb(step, 128) == ("yes", 512, 512)
    assert rungs == [128, 256, 512]
    # from a first rung the caller already ran, the ladder goes on without
    # running it again, and a decided one is returned as it is
    rungs.clear()
    assert climb(step, 128, step(128)) == ("yes", 512, 512)
    assert rungs == [128, 256, 512]
    assert climb(step, 128, ("no", 1, Ball(0, 0))) == ("no", 1, 128)
    assert rungs == [128, 256, 512]


def test_climb_stops_when_doubling_does_not_halve_the_radius():
    # a radius set by the input's width: one doubling shows it, then stop
    assert climb(lambda w: (None, w, Ball(0, 0, 1, -10)), 128) == (None, 256, 256)
    # a radius halved by every doubling is progress, up to the cap
    halving = lambda w: (None, w, Ball(0, 0, 1, -(w // 128).bit_length()))
    assert climb(halving, 128) == (None, MAX_PRECISION, MAX_PRECISION)
