"""Tests for the two-sided bound catalog and the per-point checker.

Each catalog entry packages a target, two evaluators, declared equality
points, and sharp-constant metadata.  Tests pin the catalog's shape, check
targets against exact sums and mpmath, and exercise the verdict logic
including the precision-doubling ladder.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from harmonicbounds import bounds
from harmonicbounds.ball import MAX_PRECISION, Ball, Order, Precision, add_rad_fraction, compare, neg, sub
from harmonicbounds.bounds import (
    EQUALITY_RADIUS,
    TARGETS,
    bound_ids,
    catalog,
    catalog_map,
    check_bound,
    evaluate_bound,
    judge,
    target_value,
)
from harmonicbounds.elementary import ln, ln2_ball
from harmonicbounds.report import Verdict
from harmonicbounds.specfun import (
    EmConfig,
    alternating_partial,
    alternating_tail,
    euler_gamma,
    harmonic_em,
    harmonic_exact,
    odd_harmonic_exact,
    psi_gap,
)
from harmonicbounds.verify import f_eval
from helpers import assert_contains, exact_fraction, oracle

EXPECTED_IDS = (
    "franel",
    "klamkin",
    "odd",
    "young",
    "detemple",
    "toth",
    "toth_sharp",
    "alt_tail",
    "batir",
    "qi_guo_family",
    "chen",
    "main",
)

# declared equality points: (bound_id, side) -> set of n
EXPECTED_EQUALITIES = {
    ("klamkin", "upper"): {1},
    ("odd", "upper"): {1},
    ("qi_guo_family", "upper"): {1},
    ("toth_sharp", "lower"): {1},
    ("alt_tail", "lower"): {1},
    ("batir", "lower"): {1},
    ("chen", "lower"): {1},
    ("main", "lower"): {1},
}


# ---------------------------------------------------------------------------
# catalog shape
# ---------------------------------------------------------------------------

def test_catalog_ids_are_stable():
    assert bound_ids() == EXPECTED_IDS
    assert tuple(s.bound_id for s in catalog()) == EXPECTED_IDS
    assert set(catalog_map()) == set(EXPECTED_IDS)


def test_catalog_entries_are_well_formed():
    for spec in catalog():
        assert spec.target in TARGETS
        assert spec.description
        for side, pts in (("lower", spec.lower_equalities), ("upper", spec.upper_equalities)):
            want = EXPECTED_EQUALITIES.get((spec.bound_id, side), set())
            assert set(pts) == want, f"{spec.bound_id} {side} equalities"


def test_sharp_constants_sit_in_their_decimal_windows():
    for spec in catalog():
        for sc in spec.sharp_constants:
            ball = sc.value(256)
            if sc.window_lo == sc.window_hi:
                # degenerate window: the constant is that exact rational
                assert ball.contains(sc.window_lo)
                assert ball.rad_fraction() < Fraction(1, 2**200)
            else:
                assert ball.lower() >= sc.window_lo, f"{spec.bound_id}.{sc.name}"
                assert ball.upper() <= sc.window_hi, f"{spec.bound_id}.{sc.name}"


def _recip_2n(n, a):
    return 1 / (2 * n + a)


def _recip_24_square(n, a):
    return 1 / (24 * (n + a) ** 2)


def _neg_recip_12_square(n, a):
    return -1 / (12 * n**2 + a)


def _minus_ln_expm1(n, c):
    return c - mp.ln(mp.expm1(1 / mp.mpf(n + 1)))


def _ln_plus_gamma(n, c):
    return mp.ln(n + c) + mp.euler


# (bound, declared constant) -> (the side's formula in n and the constant,
# the constant), both written here in mpmath and apart from the catalog
ORACLE_SIDES = {
    ("toth", "upper_shift"): (_recip_2n, lambda: mp.mpf(1) / 3),
    ("toth_sharp", "lower_shift"): (_recip_2n, lambda: 1 / (1 - mp.euler) - 2),
    ("toth_sharp", "upper_shift"): (_recip_2n, lambda: mp.mpf(1) / 3),
    ("alt_tail", "lower_shift"): (_recip_2n, lambda: 1 / (1 - mp.ln(2)) - 2),
    ("alt_tail", "upper_shift"): (_recip_2n, lambda: mp.mpf(1)),
    ("batir", "lower_const"): (_minus_ln_expm1, lambda: 1 + mp.ln(mp.sqrt(mp.e) - 1)),
    ("batir", "upper_const"): (_minus_ln_expm1, lambda: +mp.euler),
    ("qi_guo_family", "lower_offset"): (_ln_plus_gamma, lambda: mp.mpf(1) / 2),
    ("qi_guo_family", "upper_offset"): (_ln_plus_gamma, lambda: mp.exp(1 - mp.euler) - 1),
    ("chen", "lower_shift"): (
        _recip_24_square,
        lambda: 1 / (2 * mp.sqrt(6 * (1 - mp.euler - mp.ln(mp.mpf(3) / 2)))) - 1,
    ),
    ("chen", "upper_shift"): (_recip_24_square, lambda: mp.mpf(1) / 2),
    ("main", "lower_shift"): (
        _neg_recip_12_square, lambda: 2 * (7 - 12 * mp.euler) / (2 * mp.euler - 1),
    ),
    ("main", "upper_shift"): (_neg_recip_12_square, lambda: mp.mpf(6) / 5),
}


def test_declared_sides_are_their_formula_at_their_constant():
    # a side and the constant the catalog declares for it cannot drift apart
    seen = set()
    for spec in catalog():
        for sc in spec.sharp_constants:
            key = (spec.bound_id, sc.name)
            seen.add(key)
            formula, const = ORACLE_SIDES[key]
            assert_contains(sc.value(256), oracle(const), label=f"{key}")
            side = spec.lower if sc.name.startswith("lower") else spec.upper
            for n in (1, 2, 10, 10**3):
                want = oracle(lambda: formula(n, const()))
                assert_contains(side(n, 256), want, label=f"{key} at n={n}")
    assert seen == set(ORACLE_SIDES)


def test_eight_equality_records_are_declared_in_total():
    count = sum(
        len(s.lower_equalities) + len(s.upper_equalities) for s in catalog()
    )
    assert count == 8


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def test_target_exact_anchors():
    assert target_value("H", 1, 128).contains(1)
    assert target_value("H", 10, 128).contains(Fraction(7381, 2520))
    assert target_value("odd_harmonic", 3, 128).contains(Fraction(23, 15))


def _oracle_target(target_id: str, n: int) -> Fraction:
    h = harmonic_exact(n)
    if target_id == "H":
        return h
    if target_id == "odd_harmonic":
        return odd_harmonic_exact(n)
    if target_id == "alternating_tail":
        return abs(oracle(mp.ln, 2) - alternating_partial(n))
    if target_id == "H_minus_ln_gamma":
        return h - oracle(lambda v: mp.ln(v) + mp.euler, n)
    if target_id == "H_minus_lnhalf_gamma":
        return h - oracle(lambda v: mp.ln(v + mp.mpf(1) / 2) + mp.euler, n)
    if target_id == "H_minus_ln_half_n_gamma":
        return h - oracle(lambda v: mp.ln(v) + 1 / (2 * v) + mp.euler, n)
    raise AssertionError(target_id)


def test_targets_against_oracle():
    for target_id in TARGETS:
        for n in (1, 2, 3, 10, 137):
            ball = target_value(target_id, n, 128)
            assert_contains(ball, _oracle_target(target_id, n), label=f"{target_id}({n})")


def _exact_route_target(target_id: str, n: int, w: int):
    """The target built from exact partial sums, the route psi_gap replaced."""
    if target_id == "odd_harmonic":
        return Ball.from_fraction(odd_harmonic_exact(n), w)
    if target_id == "alternating_tail":
        d = sub(ln2_ball(w), Ball.from_fraction(alternating_partial(n), w), w)
        return d if d.is_positive() else neg(d)
    h = Ball.from_fraction(harmonic_exact(n), w)
    if target_id == "H":
        return h
    if target_id == "H_minus_lnhalf_gamma":
        return sub(sub(h, ln(Ball(2 * n + 1, -1), w), w), euler_gamma(w), w)
    d = sub(sub(h, ln(Ball.from_int(n), w), w), euler_gamma(w), w)
    if target_id == "H_minus_ln_gamma":
        return d
    assert target_id == "H_minus_ln_half_n_gamma"
    return sub(d, Ball.from_fraction(Fraction(1, 2 * n), w), w)


@pytest.mark.parametrize("w", [128, 1024])
def test_targets_overlap_the_exact_sum_route(w):
    for n in range(1, 201):
        for target_id in TARGETS:
            new = target_value(target_id, n, w)
            old = _exact_route_target(target_id, n, w)
            assert compare(new, old) is Order.OVERLAPPING, (target_id, n, w)


def test_check_bound_at_huge_n_builds_no_exact_sum(monkeypatch):
    from harmonicbounds import specfun

    def refuse(n):
        raise AssertionError(f"exact partial sum requested at n={n}")

    for name in ("harmonic_exact", "odd_harmonic_exact", "alternating_partial"):
        monkeypatch.setattr(specfun, name, refuse)
    for n in (10**6, 10**12):
        for bound_id in bound_ids():
            assert check_bound(bound_id, n).verdict is Verdict.PASS, (bound_id, n)


def test_every_bound_passes_past_two_to_the_128():
    # batir's e^(1/(n+1)) - 1 once straddled zero at 128 bits from n = 2^128 on
    for n in (10**39, 10**100):
        for bound_id in bound_ids():
            assert check_bound(bound_id, n).verdict is Verdict.PASS, (bound_id, n)


def test_every_bound_returns_a_verdict_at_ten_to_the_400():
    for bound_id in bound_ids():
        assert isinstance(check_bound(bound_id, 10**400).verdict, Verdict), bound_id
    # main stays open up to the top of the ladder, the callers' own cap
    main = check_bound("main", 10**400)
    assert main.verdict is Verdict.UNDECIDED and main.precision_bits == MAX_PRECISION


@pytest.mark.parametrize(
    "x",
    [1, 2, 3, 10, 121, 10**3, 10**6, 10**39, 10**400],
    ids=lambda x: str(x) if x < 10**7 else f"1e{len(str(x)) - 1}",
)
def test_ln_expm1_recip_contains_the_mpmath_value(x):
    # 910 digits is about 3000 bits
    want = oracle(lambda t: mp.log(mp.expm1(1 / t)), x, dps=910)
    for w in (128, 1024):
        got = bounds._ln_expm1_recip(x, w)
        assert_contains(got, want, fuzz=Fraction(1, 2**2990) * abs(want), label=f"x={x}, w={w}")
        assert got.rad_fraction() < abs(want) / 2 ** (w - 8)


@pytest.mark.parametrize("w", [152, 1048, 4120])
@pytest.mark.parametrize(
    "n", [1, 500, 10**6, 2**200, 10**400], ids=["1", "500", "1e6", "2^200", "1e400"]
)
def test_ln1p_half_recip_keeps_relative_accuracy(n, w):
    # ln(1 + 1/(2n)) is about 1/(2n): an absolute error of 2^-w would leave
    # no correct bit of it at n = 2^200
    with mp.workprec(w + n.bit_length() + 100):
        want = exact_fraction(mp.log1p(1 / (2 * mp.mpf(n))))
    got = bounds._ln1p_half_recip(n, w)
    assert_contains(got, want, fuzz=want / 2 ** (w + 60), label=f"n={n}, w={w}")
    assert got.rad_fraction() <= want / 2 ** (w - 4)


def test_quartic_target_is_negated_psi_gap():
    for n in (1, 7, 100):
        t = target_value("H_minus_ln_half_n_gamma", n, 128)
        assert compare(t, neg(psi_gap(n, 128))) is Order.OVERLAPPING
        assert t.is_negative()


def test_target_validation():
    with pytest.raises(KeyError):
        target_value("H_minus_everything", 1, 128)
    with pytest.raises(ValueError):
        target_value("H", 0, 128)


# ---------------------------------------------------------------------------
# bound evaluation
# ---------------------------------------------------------------------------

def test_evaluate_bound_rational_endpoints():
    lo, hi = evaluate_bound("toth", 1, 128)
    assert lo.contains(Fraction(5, 12))  # 1/(2 + 2/5)
    assert hi.contains(Fraction(3, 7))  # 1/(2 + 1/3)
    lo, hi = evaluate_bound("franel", 2, 128)
    assert lo.contains(Fraction(7, 32))
    assert hi.contains(Fraction(1, 4))


def test_evaluate_bound_validation():
    with pytest.raises(KeyError):
        evaluate_bound("nonexistent", 1, 128)
    with pytest.raises(ValueError):
        evaluate_bound("main", 0, 128)


# ---------------------------------------------------------------------------
# check_bound verdicts
# ---------------------------------------------------------------------------

def test_declared_equalities_come_back_as_equality_verdicts():
    for (bound_id, side), points in EXPECTED_EQUALITIES.items():
        for n in points:
            chk = check_bound(bound_id, n)
            assert chk.verdict is Verdict.EQUALITY, f"{bound_id}@{n}"
            assert chk.equality_side == side
            assert chk.verdict_label() == f"equality({side})"


def _diff(mid, rad=0) -> Ball:
    return add_rad_fraction(Ball.from_fraction(Fraction(mid), 64), Fraction(rad))


_TINY = EQUALITY_RADIUS / 2


@pytest.mark.parametrize(
    "diffs, may_equal, verdict, pick",
    [
        # pass: the smallest midpoint, not the smallest lower endpoint
        ((_diff(2), _diff(1), _diff(3)), (), Verdict.PASS, 1),
        ((_diff(1, "1/2"), _diff(2, "7/4")), (), Verdict.PASS, 0),
        # fail beats open; the failing difference is the margin
        ((_diff(0, 1), _diff(-1)), (), Verdict.FAIL, 1),
        ((_diff("1/4"), _diff(-1, "1/2")), (), Verdict.FAIL, 1),
        # open: the open difference, though a passing one has a smaller midpoint
        ((_diff("1/4"), _diff("1/2", 1)), (), None, 1),
        # open beats equality
        ((_diff(0, _TINY), _diff(0, 1)), (0,), None, 1),
        # a tiny straddle is open unless declared
        ((_diff(0, _TINY), _diff(1)), (), None, 0),
        ((_diff(0, _TINY), _diff(1)), (0,), Verdict.EQUALITY, 0),
        ((_diff(1), _diff(0, _TINY)), (1,), Verdict.EQUALITY, 1),
        # the radius must lie below EQUALITY_RADIUS
        ((_diff(0, 2 * EQUALITY_RADIUS), _diff(1)), (0,), None, 0),
        # a declared equality that is certainly positive or negative is judged by its sign
        ((_diff(1), _diff(2)), (0,), Verdict.PASS, 0),
        ((_diff(2), _diff(-1, _TINY)), (1,), Verdict.FAIL, 1),
    ],
)
def test_judge_verdict_order_and_margin(diffs, may_equal, verdict, pick):
    got, margin, deciding = judge(diffs, may_equal)
    assert got is verdict
    assert margin is diffs[pick]
    if verdict is None:
        assert deciding is margin


def _judge_reference(diffs, may_equal):
    """judge's rule written with the sign predicates and exact midpoints."""
    lowest = diffs[0]
    open_ = None
    equal = False
    for i, d in enumerate(diffs):
        if d.is_negative():
            return Verdict.FAIL, d, d
        if d.mid_fraction() < lowest.mid_fraction():
            lowest = d
        if d.is_positive():
            continue
        if i in may_equal and d.rad_fraction() < EQUALITY_RADIUS:
            equal = True
        elif open_ is None:
            open_ = d
    if open_ is not None:
        return None, open_, open_
    return Verdict.EQUALITY if equal else Verdict.PASS, lowest, lowest


# exact zeros, straddling and one-sided balls, equal midpoints in two
# encodings, and radii on both sides of EQUALITY_RADIUS
_judged_balls = st.builds(
    _diff,
    st.sampled_from([0, 1, -1, "1/4", "-1/4", "1/2", 3]),
    st.sampled_from([0, _TINY, EQUALITY_RADIUS, 2 * EQUALITY_RADIUS, "1/8", "1/4", 1, 2]),
) | st.builds(Ball, st.integers(-8, 8), st.integers(-3, 3), st.integers(0, 4), st.integers(-3, 3))


@st.composite
def _judged(draw):
    pool = draw(st.lists(_judged_balls, min_size=1, max_size=3))
    # the same ball may stand at more than one place
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
    return tuple(pool[i] for i in picks), draw(st.lists(st.integers(0, 2), unique=True))


@given(_judged())
@settings(max_examples=400)
def test_judge_matches_the_rule_written_with_sign_predicates(case):
    diffs, may_equal = case
    got, want = judge(diffs, may_equal), _judge_reference(diffs, may_equal)
    assert got[0] is want[0]
    assert got[1] is want[1] and got[2] is want[2]


def test_equality_difference_is_zero_to_thirty_digits():
    chk = check_bound("main", 1, prec=256)
    d = sub(chk.target, chk.lower, 256)
    assert d.contains(0)
    assert d.rad_fraction() < EQUALITY_RADIUS


def test_strict_points_pass_with_positive_margin():
    for bound_id in EXPECTED_IDS:
        for n in (2, 3, 10, 144):
            chk = check_bound(bound_id, n)
            assert chk.verdict is Verdict.PASS, f"{bound_id}@{n}"
            assert chk.margin.is_positive()
            assert chk.verdict_label() == "pass"
            # certified ordering of the three enclosures
            assert compare(chk.lower, chk.target) is Order.CERTAINLY_LESS
            assert compare(chk.target, chk.upper) is Order.CERTAINLY_LESS


def test_margin_is_the_thinner_side():
    chk = check_bound("franel", 5)
    lo_gap = sub(chk.target, chk.lower, 128)
    hi_gap = sub(chk.upper, chk.target, 128)
    assert chk.margin.mid_fraction() == min(lo_gap.mid_fraction(), hi_gap.mid_fraction())


def test_precision_ladder_escalates_until_decided():
    # at n ~ 10^4 the thin side of the quadratic-window bound is ~3e-27,
    # far below a 53-bit radius; the checker must escalate and still pass
    chk = check_bound("main", 9973, prec=53)
    assert chk.verdict is Verdict.PASS
    assert chk.precision_bits > 53
    assert chk.margin.is_positive()


def test_precision_ladder_stops_when_doubling_cannot_help(monkeypatch):
    # a target of radius 2^-12 hides the ~3e-6 margin at n = 5 at every
    # precision; the ladder must notice and stop instead of climbing
    exact = bounds._target_cached
    monkeypatch.setattr(
        bounds, "_target_cached",
        lambda tid, n, w: add_rad_fraction(exact(tid, n, w), Fraction(1, 2**12)),
    )
    chk = check_bound("main", 5)
    assert chk.verdict is Verdict.UNDECIDED
    assert chk.precision_bits < 1024


def test_check_bound_validation():
    with pytest.raises(KeyError):
        check_bound("nonexistent", 1)
    with pytest.raises(ValueError):
        check_bound("main", 0)


@pytest.mark.parametrize("n", [True, False, 2.5, 3.0, Fraction(3), "3"])
def test_bound_index_must_be_an_int(n):
    # a bool would be checked as 0 or 1 and printed as true or false
    for call in (
        lambda n: check_bound("main", n),
        lambda n: evaluate_bound("main", n),
        lambda n: target_value("H", n),
        lambda n: psi_gap(n, 128),
        lambda n: alternating_tail(n, 128),
        harmonic_em,
        f_eval,
    ):
        with pytest.raises(TypeError, match="n must be an int"):
            call(n)


def test_check_bound_is_deterministic():
    a = check_bound("detemple", 77)
    b = check_bound("detemple", 77)
    assert (a.verdict, a.precision_bits, a.equality_side) == (
        b.verdict,
        b.precision_bits,
        b.equality_side,
    )
    assert a.lower == b.lower and a.target == b.target and a.upper == b.upper
    assert a.margin == b.margin


@given(
    st.sampled_from(EXPECTED_IDS),
    st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=120, deadline=None)
def test_every_catalog_bound_holds_at_random_n(bound_id, n):
    chk = check_bound(bound_id, n)
    assert chk.verdict in (Verdict.PASS, Verdict.EQUALITY)


# ---------------------------------------------------------------------------
# records and specs: immutable, and unchanged by a pickle round trip
# ---------------------------------------------------------------------------

def test_records_and_specs_refuse_assignment():
    spec = catalog_map()["main"]
    chk = check_bound("main", 7)
    for obj, field in (
        (chk.record(), "verdict"),
        (chk, "margin"),
        (spec, "lower"),
        (spec.lower, "const"),
        (spec.sharp_constants[0], "window_lo"),
        (TARGETS["H"], "description"),
        (Precision(256), "bits"),
        (EmConfig(q=7), "q"),
    ):
        before = getattr(obj, field)
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        assert getattr(obj, field) is before


def test_records_and_configs_survive_a_pickle_round_trip():
    chk = check_bound("main", 7)
    rec = chk.record()
    assert isinstance(rec.margin, Ball)
    for obj in (rec, chk, Precision(256), EmConfig(q=7)):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj


def test_klamkins_sides_are_computed_once_per_precision():
    # c - g is the same at every n, so every n shares one memoised ball
    spec = catalog_map()["klamkin"]
    for side in (spec.lower, spec.upper):
        assert side(1, 128) is side(500, 128)
        assert side(2, 256) is side(9, 256) is not side(2, 128)
