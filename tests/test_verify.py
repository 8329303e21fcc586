"""Tests for the verification suite built on top of the bound catalog.

Covers the sharpness function f, the positivity witness g, the scaled
remainder window, cross-bound refinement, alternating-tail constants,
finite-difference sign signatures, equality witnesses, and the combined
deterministic sweep.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest

from harmonicbounds import bounds, specfun, verify
from harmonicbounds.ball import MAX_PRECISION, Ball, sub
from harmonicbounds.report import CheckRecord, Verdict, VerificationReport
from harmonicbounds.verify import (
    CHECK_NAMES,
    DEFAULT_G_GRID,
    alt_tail_constants,
    cm_spotcheck,
    epsilon_window,
    equality_witnesses,
    f_eval,
    g_positivity,
    refinement_check,
    sharpness_main,
    verify_all,
)
from helpers import assert_contains, assert_in_window, exact_fraction, oracle

# 40-digit closed-form values of f at 1, 2, 3 (independent derivation)
F1_DIGITS = Fraction("0.9507399991338845653085511242778686100007")
F2_DIGITS = Fraction("1.109050200855793073358879964053882668903")
F3_DIGITS = Fraction("1.154970321382176620660413673098666600201")
F_FUZZ = Fraction(1, 10**36)


def _counts(report) -> Counter:
    return Counter(r.check for r in report.records)


def _all_green(report) -> bool:
    s = report.summary()
    return s["fail"] == 0 and s["undecided"] == 0


# ---------------------------------------------------------------------------
# the sharpness function f
# ---------------------------------------------------------------------------

def test_f_anchor_values_and_digit_windows():
    for n, digits, lo, hi in (
        (1, F1_DIGITS, "0.9507", "0.9508"),
        (2, F2_DIGITS, "1.1090", "1.1091"),
        (3, F3_DIGITS, "1.1549", "1.1550"),
    ):
        b = f_eval(n, 256)
        assert_contains(b, digits, fuzz=F_FUZZ, label=f"f({n})")
        assert_in_window(b, lo, hi, label=f"f({n})")
        assert b.rad_fraction() < Fraction(1, 10**30)


def test_f_accepts_ball_arguments():
    # at a non-integer point f is still defined; sanity against mpmath
    x = Fraction(7, 2)
    from helpers import oracle

    want = oracle(
        lambda v: 1 / (mp.ln(v) + 1 / (2 * v) - mp.digamma(v + 1)) - 12 * v * v, x
    )
    b = f_eval(Ball.from_fraction(x, 192), 128)
    assert_contains(b, want, label="f(7/2)")


def test_f_argument_validation():
    with pytest.raises(ValueError):
        f_eval(0, 128)
    with pytest.raises(TypeError):
        f_eval(2.5, 128)


def test_f_eval_encloses_f_on_a_wide_ball():
    # on [4 - 1/32, 4 + 1/32] psi_gap's enclosure of the denominator stays
    # positive, so f is enclosed at once, with no precision ladder
    b = f_eval(Ball(4, 0, 1, -5), 128)
    for x, want in ((Fraction(127, 32), "1.173137"), (Fraction(129, 32), "1.173915")):
        f_x = oracle(lambda v: 1 / (mp.ln(v) + 1 / (2 * v) - mp.digamma(v + 1)) - 12 * v * v, x)
        assert abs(f_x - Fraction(want)) < Fraction(1, 10**6)
        assert_contains(b, f_x, label=f"f({x})")


@pytest.mark.parametrize("n", [10**30, 10**200], ids=["1e30", "1e200"])
def test_f_eval_stays_sharp_at_a_large_int(n):
    # psi_gap's radius is absolute, and 1/gap(n) - 12 n^2 cancels about
    # 4 log2 n bits of it; f_eval works that much above the caller's bits
    b = f_eval(n, 128)
    assert b.rad_fraction() < Fraction(1, 2**100)
    assert abs(b.mid_fraction() - Fraction(6, 5)) < Fraction(1, 10**20)


@pytest.mark.parametrize(
    "x", [Ball.from_int(10**30), Ball(2**101 + 1, -1)], ids=["1e30", "2^100+1/2"]
)
def test_f_eval_stays_sharp_at_a_large_ball(x):
    # the rule at an int holds at a ball: f_eval works 4 bits above the
    # caller's per bit of the ball's upper end
    b = f_eval(x, 128)
    assert b.rad_fraction() < Fraction(1, 2**100)
    assert abs(b.mid_fraction() - Fraction(6, 5)) < Fraction(1, 10**20)


def test_f_asymptotic_gap_constant():
    # 6/5 - f(n) behaves like (79/175) / n^2; check the constant to 1%
    d = sub(Ball.from_fraction(Fraction(6, 5), 160), f_eval(1000, 160), 160)
    assert d.is_positive()
    scaled = d.mid_fraction() * 10**6 * Fraction(175, 79)
    assert abs(scaled - 1) < Fraction(1, 100)
    assert d.upper() < Fraction(1, 10**6)
    assert d.lower() > Fraction(4, 10**7)


def test_sharpness_report_structure_and_verdicts():
    rep = sharpness_main(40, 128)
    assert _all_green(rep)
    c = _counts(rep)
    assert c["f_value"] == 3  # closed-form overlap at 1, 2, 3
    assert c["f_digits"] == 3
    assert c["f_below_limit"] == 40
    assert c["f_monotone"] == 39
    assert c["f_gap_decreasing"] >= 1
    with pytest.raises(ValueError):
        sharpness_main(2, 128)


def test_sharpness_monotone_margins_are_positive():
    rep = sharpness_main(12, 128)
    for rec in rep.records:
        if rec.check == "f_monotone":
            assert rec.verdict is Verdict.PASS
            assert rec.margin is not None and rec.margin.is_positive()


# ---------------------------------------------------------------------------
# positivity of g
# ---------------------------------------------------------------------------

def test_g_positivity_default_grid():
    rep = g_positivity(None, 128)
    assert _all_green(rep)
    c = _counts(rep)
    n_pts = len(DEFAULT_G_GRID)
    assert c["g_shifted_identity"] == 1
    assert c["g_polynomial"] == n_pts
    assert c["g_direct"] == n_pts
    assert c["psi_envelope"] == n_pts
    assert c["psi1_envelope"] == n_pts
    assert c["gap_envelope"] == n_pts


def test_g_polynomial_margin_at_three_is_exact():
    rep = g_positivity((3,), 128)
    recs = [r for r in rep.records if r.check == "g_polynomial"]
    assert len(recs) == 1
    margin = recs[0].margin
    # numerator value 1659*3^4 - 8400*3^2 - 100 = 58679, exactly
    assert margin is not None and margin.is_exact
    assert margin.mid_fraction() == 58679


def test_g_polynomial_is_the_quartic_derived_from_the_series():
    # the lower bound on g reduces to (1659 x^4 - 8400 x^2 - 100) / (264600 x^11);
    # g_polynomial's margin is the quartic's exact value at each point
    points = (3, Fraction(7, 2), 4, 5, 10, 50, 100)
    rep = g_positivity(points, 128)
    recs = [r for r in rep.records if r.check == "g_polynomial"]
    assert len(recs) == len(points)
    for x, rec in zip(points, recs):
        assert rec.margin.is_exact
        assert rec.margin.mid_fraction() == 1659 * Fraction(x) ** 4 - 8400 * Fraction(x) ** 2 - 100
    identity = [r for r in rep.records if r.check == "g_shifted_identity"]
    assert [(r.params, r.verdict) for r in identity] == [((("constant", 58679),), Verdict.PASS)]


@pytest.mark.parametrize("factor", [Fraction(101, 100), Fraction(99, 100)], ids=["up", "down"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["psi", "psi1"])
def test_a_perturbed_series_coefficient_fails_g_positivity(monkeypatch, kind, k, factor):
    # c_k changed by 1 % only where verify derives its envelopes and g's
    # bound: digamma and trigamma still read the true series
    from harmonicbounds import specfun
    from harmonicbounds.symbolic import Poly

    series = specfun._SERIES[kind]
    truncation = series.truncation

    def perturbed(count):
        poly, side = truncation(count)
        coeffs = list(poly.coeffs)
        coeffs[2 * k + series.s] *= factor
        return Poly(coeffs), side

    monkeypatch.setattr(series, "truncation", perturbed)
    rep = g_positivity(None, 128)
    assert rep.summary()["fail"] > 0
    if k <= 2:
        # c_1 and c_2 are what cancels g's bound down to u^7
        identity = next(r for r in rep.records if r.check == "g_shifted_identity")
        assert identity.verdict is Verdict.FAIL


def test_g_direct_margin_matches_leading_asymptotics():
    # g(x) ~ 79/(12600 x^7); at x = 3 the enclosure should be within a
    # factor of two of the leading term
    rep = g_positivity((3,), 128)
    rec = [r for r in rep.records if r.check == "g_direct"][0]
    lead = Fraction(79, 12600 * 3**7)
    assert rec.margin is not None
    assert lead / 2 < rec.margin.mid_fraction() < lead


def test_g_positivity_accepts_rational_and_ball_points():
    rep = g_positivity((3, Fraction(7, 2), Ball(4, 0, 1, -100)), 128)
    assert _all_green(rep)


def test_g_positivity_at_a_non_dyadic_rational_point():
    # 10/3 has no exact ball: it is evaluated as a ball of one-ulp radius at
    # every rung, and g_direct's margin still encloses g(10/3)
    x = Fraction(10, 3)
    rep = g_positivity((Fraction(7, 2), x), 128)
    assert _all_green(rep)
    _, x_at, base = verify._as_point(x)
    assert base == x
    for rec in rep.records:
        if rec.params == (("x", "10/3"),) and rec.precision_bits:
            b = x_at(rec.precision_bits)
            assert b.rman == 1 and b.contains(x)
    want = oracle(
        lambda v: mp.psi(1, v + 1) - 1 / v + 1 / (2 * v * v)
        - 24 * v * (mp.ln(v) + 1 / (2 * v) - mp.digamma(v + 1)) ** 2,
        x, dps=40,
    )
    rec = next(r for r in rep.records if r.check == "g_direct" and r.params == (("x", "10/3"),))
    assert_contains(rec.margin, want, fuzz=Fraction(1, 10**36), label="g(10/3)")


@pytest.mark.parametrize("p", [128, 1024])
@pytest.mark.parametrize("n", [5, 500, 10**30, 10**200], ids=["5", "500", "1e30", "1e200"])
def test_f_eval_at_an_exact_integer_ball_equals_the_int_result(n, p):
    # n = 5 and 500 lie on either side of the 128-bit shift threshold (36);
    # an int n is the exact ball (n, 0, 0), so both take one psi_gap entry
    # and one precision rule, and f keeps the precision it has at the int n
    b = f_eval(Ball.from_int(n), p)
    assert b == f_eval(n, p)
    assert b.rad_fraction() < Fraction(1, 2 ** (p - 28))


def test_g_positivity_keys_each_grid_point_once():
    # 3 and Fraction(3) are one point, whose records would share their keys
    with pytest.raises(ValueError, match="distinct"):
        g_positivity((3, Fraction(3), 4.0), 128)
    # a bool is no grid point, though it would read as 0 or 1
    with pytest.raises(TypeError, match="bool"):
        g_positivity((3, True), 128)
    # a str is no grid, though its characters would read as the points 3, 4, 5
    with pytest.raises(TypeError, match="not a str"):
        g_positivity("345", 128)
    # balls are labelled by their exact midpoint and radius, so two that
    # agree to many digits keep distinct keys; rationals keep their values
    a, b = Ball(3 * 2**40 + 1, -40), Ball(3 * 2**39 + 1, -39)
    rep = g_positivity((3, Fraction(7, 2), a, b), 128)
    keys = [(r.check, r.params) for r in rep.records]
    assert len(set(keys)) == len(keys) == 1 + 4 * 5
    labels = [dict(r.params)["x"] for r in rep.records if r.check == "g_direct"]
    assert labels == ["3", "7/2"] + [f"[{x.mid_fraction()} +/- 0]" for x in (a, b)]


def test_g_positivity_wide_ball_point_is_honestly_undecided():
    # an input interval of width 2^-9 swamps the envelope margins; the
    # checker must say undecided rather than fake a pass
    rep = g_positivity((Ball(4, 0, 1, -10),), 128)
    s = rep.summary()
    assert s["fail"] == 0
    assert s["undecided"] > 0
    # doubling the precision cannot shrink a radius set by the input's
    # width, so the ladder stops instead of climbing to the cap
    assert max(r.precision_bits for r in rep.records) < 1024


# ---------------------------------------------------------------------------
# the scaled remainder epsilon
# ---------------------------------------------------------------------------

EPS1_DIGITS = Fraction("0.7341202118160567272185491901117082749409")


def test_epsilon_anchor_and_sweep():
    rep = epsilon_window(60, 128)
    assert _all_green(rep)
    c = _counts(rep)
    assert c["epsilon_anchor"] == 1
    assert c["epsilon"] == 60


def test_epsilon_at_one_is_70_minus_120_gamma():
    from harmonicbounds.verify import _epsilon

    e1 = _epsilon(1, 160)
    assert_contains(e1, EPS1_DIGITS, fuzz=Fraction(1, 10**36), label="epsilon(1)")
    assert_in_window(e1, "0.733", "0.735", label="epsilon(1)")


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon_window(0, 128)


# ---------------------------------------------------------------------------
# refinement of the classical bounds by the quadratic window
# ---------------------------------------------------------------------------

def test_refinement_all_pass_with_expected_shape():
    rep = refinement_check(30, 128)
    assert _all_green(rep)
    c = _counts(rep)
    assert c["refinement"] == 29 * 5  # n = 2..30, five outer bounds
    outers = {r.params_dict()["outer"] for r in rep.records}
    assert outers == {"chen", "toth_sharp", "detemple", "franel", "young"}


def _refinement_gaps(n: int, outer: str) -> tuple[Fraction, Fraction]:
    """main's lower side minus outer's, and outer's upper side minus main's.

    Both intervals are taken for H(n) - ln n - g from the closed-form
    sides, at 60 digits with mpmath's g, independently of the package.
    """
    with mp.workdps(60):
        g, m = mp.euler, mp.mpf(n)
        half = 1 / (2 * m)
        big_a = 2 * (7 - 12 * g) / (2 * g - 1)
        main = (half - 1 / (12 * m**2 + big_a), half - 1 / (12 * m**2 + mp.mpf(6) / 5))
        ln1p = mp.log1p(half)
        a = 1 / (1 - g) - 2
        c = 1 / (2 * mp.sqrt(6 * (1 - g - mp.log(mp.mpf(3) / 2)))) - 1
        lo, hi = {
            "franel": (half - 1 / (8 * m**2), half),
            "young": (1 / (2 * (m + 1)), half),
            "toth_sharp": (1 / (2 * m + a), 1 / (2 * m + mp.mpf(1) / 3)),
            "detemple": (1 / (24 * (m + 1) ** 2) + ln1p, 1 / (24 * m**2) + ln1p),
            "chen": (1 / (24 * (m + c) ** 2) + ln1p, 1 / (24 * (m + mp.mpf(1) / 2) ** 2) + ln1p),
        }[outer]
        return exact_fraction(main[0] - lo), exact_fraction(hi - main[1])


def test_refinement_margin_encloses_the_smaller_nesting_gap():
    # the margin is the gap with the smaller midpoint; when the two gaps
    # are closer than the margin's width either one may be reported
    slack = Fraction(1, 10**50)
    checked = 0
    for rec in refinement_check(100, 128).records:
        n, outer = rec.params_dict()["n"], rec.params_dict()["outer"]
        if n not in (2, 3, 10, 100):
            continue
        first, other = sorted(_refinement_gaps(n, outer))
        lo, hi = rec.margin.lower() - slack, rec.margin.upper() + slack
        assert lo <= first <= hi or (other - first <= hi - lo and lo <= other <= hi), (
            f"margin of {outer} at n={n} misses the nesting gap {float(first):.6e}"
        )
        checked += 1
    assert checked == 4 * 5


def test_refinement_validation():
    with pytest.raises(ValueError):
        refinement_check(1, 128)


# ---------------------------------------------------------------------------
# alternating tail shift constants
# ---------------------------------------------------------------------------

X1_DIGITS = Fraction("1.258891353270929454597917356923655272697")


def test_alt_tail_constants_shape_and_anchor():
    rep = alt_tail_constants(50, 128)
    assert _all_green(rep)
    c = _counts(rep)
    assert c["x_anchor"] == 1
    assert c["x_decreasing"] == 49
    assert c["x_above_limit"] == 1


def test_alt_tail_shift_value_at_one():
    from harmonicbounds.ball import recip
    from harmonicbounds.specfun import alternating_tail

    # x_1 = 1/|ln 2 - 1| - 2 = 1/(1 - ln 2) - 2
    x1 = sub(recip(alternating_tail(1, 160), 160), Ball.from_int(2), 160)
    assert_contains(x1, X1_DIGITS, fuzz=Fraction(1, 10**36), label="x_1")
    assert_in_window(x1, "1.2588", "1.2590", label="x_1")


def test_alt_tail_validation():
    with pytest.raises(ValueError):
        alt_tail_constants(1, 128)


def test_per_n_stages_at_their_smallest_max_n_emit_each_range_edge_in_order():
    # n by n, and at each n every family whose range holds it: a loop over
    # families first, or a range one short or one long, changes the list
    def seq(rep):
        return [(r.check, r.params) for r in rep.records]

    def at(check, n, *rest):
        return (check, (("n", n), *rest))

    assert seq(sharpness_main(3, 128)) == [
        at("f_value", 1), at("f_digits", 1),
        at("f_value", 2), at("f_digits", 2),
        at("f_value", 3), at("f_digits", 3),
        at("f_below_limit", 1), at("f_monotone", 1),
        at("f_below_limit", 2), at("f_monotone", 2),
        at("f_below_limit", 3),
        at("f_gap_decreasing", 1, ("next", 2)), at("f_gap_decreasing", 2, ("next", 3)),
    ]
    assert seq(epsilon_window(1, 128)) == [at("epsilon_anchor", 1), at("epsilon", 1)]
    assert seq(refinement_check(2, 128)) == [
        at("refinement", 2, ("outer", o))
        for o in ("chen", "toth_sharp", "detemple", "franel", "young")
    ]
    assert seq(alt_tail_constants(2, 128)) == [
        at("x_anchor", 1), at("x_decreasing", 1), at("x_above_limit", 2),
    ]


# ---------------------------------------------------------------------------
# finite-difference sign signatures
# ---------------------------------------------------------------------------

def test_cm_spotcheck_passes_for_both_remainder_kinds():
    grid = list(range(1, 13))
    for kind, order in (("F", 2), ("G", 1)):
        rep = cm_spotcheck(kind, order, grid, 4, 128)
        assert _all_green(rep)
        assert _counts(rep)["cm_sign"] == 5  # depths 0..4
        depths = [r.params_dict()["depth"] for r in rep.records]
        assert depths == [0, 1, 2, 3, 4]


def test_cm_spotcheck_decides_on_every_lower_endpoint(monkeypatch):
    # one value straddling zero, [-0.00195, 0.0078], among positive ones
    # whose midpoints are all smaller must not be certified positive
    from harmonicbounds import specfun

    def fake_tail(kind, order, x, prec):
        if x == 10:
            return Ball(3, -10, 5, -10)
        return Ball.from_fraction(1 / Fraction(x) ** 3, prec)

    monkeypatch.setattr(specfun, "stirling_tail", fake_tail)
    rep = cm_spotcheck("F", 2, range(1, 21), 0)
    (rec,) = rep.records
    assert rec.verdict is not Verdict.PASS
    assert rec.margin.lower() < 0


def test_cm_spotcheck_validation():
    good = list(range(1, 13))
    with pytest.raises(ValueError):
        cm_spotcheck("F", 2, good[:7], 2, 128)  # too short
    with pytest.raises(ValueError):
        cm_spotcheck("F", 2, [1, 2, 3, 5, 6, 7, 8, 9], 2, 128)  # uneven
    with pytest.raises(ValueError):
        cm_spotcheck("F", 2, [x - 3 for x in good], 2, 128)  # nonpositive
    with pytest.raises(ValueError):
        cm_spotcheck("F", 2, good, 7, 128)  # depth too deep
    with pytest.raises(ValueError):
        cm_spotcheck("F", 2, list(reversed(good)), 2, 128)  # decreasing
    with pytest.raises(ValueError):
        cm_spotcheck("H", 2, good, 2, 128)  # unknown kind
    with pytest.raises(TypeError, match="bool"):
        cm_spotcheck("F", 2, [True, *range(2, 10)], 1, 128)  # True is not the point 1
    with pytest.raises(TypeError, match="not a str"):
        cm_spotcheck("F", 2, "123456789", 1, 128)  # nine characters, not nine points


# ---------------------------------------------------------------------------
# equality witnesses
# ---------------------------------------------------------------------------

def test_equality_witnesses_all_sixteen():
    rep = equality_witnesses(128)
    assert _all_green(rep)
    c = _counts(rep)
    assert c["identity"] == 8
    assert c["equality_numeric"] == 8
    bounds_with_identity = {r.params_dict()["bound"] for r in rep.records if r.check == "identity"}
    assert bounds_with_identity == {
        "main",
        "toth_sharp",
        "alt_tail",
        "chen",
        "batir",
        "qi_guo_family",
        "klamkin",
        "odd",
    }


# ---------------------------------------------------------------------------
# the combined sweep
# ---------------------------------------------------------------------------

def test_verify_all_record_inventory():
    max_n = 12
    rep = verify_all(max_n, 128)
    assert _all_green(rep)
    c = _counts(rep)
    assert c["bound"] == 12 * max_n
    assert c["f_below_limit"] == max_n
    assert c["f_monotone"] == max_n - 1
    assert c["epsilon"] == max_n
    assert c["refinement"] == (max_n - 1) * 5
    assert c["x_decreasing"] == max_n - 1
    assert c["cm_sign"] == 10  # two kinds, depths 0..4
    assert c["identity"] == 8 and c["equality_numeric"] == 8
    assert rep.summary()["equality"] == 8


def test_verify_all_equality_records_match_catalog_declarations():
    rep = verify_all(6, 128)
    eq = {
        (r.params_dict()["id"], r.params_dict()["n"])
        for r in rep.verdicts(Verdict.EQUALITY)
    }
    assert eq == {
        ("klamkin", 1),
        ("odd", 1),
        ("toth_sharp", 1),
        ("alt_tail", 1),
        ("batir", 1),
        ("qi_guo_family", 1),
        ("chen", 1),
        ("main", 1),
    }


def test_verify_all_subset_of_checks():
    rep = verify_all(10, 128, checks=("epsilon",))
    c = _counts(rep)
    assert set(c) == {"epsilon_anchor", "epsilon"}


def test_verify_all_is_deterministic_across_job_counts(monkeypatch):
    # on two cores; 8 is the least max_n that fans out to two jobs, and the
    # others leave the last claims of unequal sizes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for max_n in (8, 9, 13, 20, 37, 200):
        for checks in (None, ("bounds",)):
            a = verify_all(max_n, 128, checks=checks, jobs=1).to_json()
            b = verify_all(max_n, 128, checks=checks, jobs=2).to_json()
            assert a == b, (max_n, checks)


def test_verify_all_job_made_texts_are_used_only_for_the_records_they_render(monkeypatch):
    # the fanned-out report carries texts rendered by the jobs; whatever is
    # done to its records, it writes what a fresh report of them writes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rep = verify_all(40, 128, jobs=2)
    assert len(rep._texts) == len(rep.records)
    other = verify_all(3, 128, checks=("epsilon",)).records
    edits = (
        lambda records: records.__setitem__(5, other[0]),  # replaced
        lambda records: records.__setitem__(0, records[0]._replace(verdict=Verdict.FAIL)),  # edited
        lambda records: records.append(other[1]),  # appended
        lambda records: records.insert(0, other[2]),  # inserted: every index moves
        lambda records: records.__delitem__(slice(7, 9)),  # deleted
        lambda records: records.reverse(),  # reordered
        lambda records: records.clear(),
    )
    for edit in edits:
        edit(rep.records)
        assert rep.to_json() == VerificationReport(list(rep.records)).to_json()
    rep.records = verify_all(40, 128, jobs=2).records  # a new list of new records
    assert rep.to_json() == VerificationReport(list(rep.records)).to_json()


def test_verify_all_runs_each_selected_stage_once_in_check_names_order():
    a = verify_all(5, 128, checks=("equality", "bounds", "bounds")).to_json()
    b = verify_all(5, 128, checks=("bounds", "equality")).to_json()
    assert a == b


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def test_verify_all_without_fork_sweeps_in_process(monkeypatch):
    # with no os.fork the sweep runs in-process, whatever jobs and the cores say
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = verify_all(20, 128, jobs=1).to_json()
    monkeypatch.delattr(os, "fork", raising=False)
    assert verify_all(20, 128, jobs=2).to_json() == serial


@pytest.fixture
def events(monkeypatch):
    """On two cores, the list of the parent's real forks, logged as "fork",
    and of whatever else a test logs in the parent."""
    log = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            log.append("fork")
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return log


@needs_fork
def test_verify_all_starts_at_most_one_worker_per_core(monkeypatch, events):
    serial = verify_all(20, 128, checks=("bounds",)).to_json()
    assert verify_all(20, 128, checks=("bounds",), jobs=64).to_json() == serial
    # two cores: the parent and one child
    assert events == ["fork"]

    # one core leaves the parent alone
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify_all(20, 128, checks=("bounds",), jobs=64).to_json() == serial
    assert events == ["fork"]


@needs_fork
def test_verify_all_runs_the_other_stages_while_the_workers_sweep(monkeypatch, events):
    def logged(name, stage):
        def run(*args):
            events.append(name)
            return stage(*args)
        return run

    serial = verify_all(20, 128, jobs=1).records
    for name, stage in list(verify._STAGES.items()):
        if name != "bounds":
            monkeypatch.setitem(verify._STAGES, name, logged(name, stage))
    parent = os.getpid()
    gate_r, gate_w = os.pipe()
    waited = []
    real_chunk = verify._bounds_chunk

    def chunk(args):
        # the child waits in its first chunk until the parent starts one,
        # so the parent takes at least one chunk
        if os.getpid() == parent:
            events.append(args[:2])
            os.write(gate_w, b"\0")
        elif not waited:
            waited.append(os.read(gate_r, 1))
        return real_chunk(args)

    monkeypatch.setattr(verify, "_bounds_chunk", chunk)
    try:
        assert verify_all(20, 128, jobs=2).records == serial
    finally:
        os.close(gate_r)
        os.close(gate_w)
    # every other stage, in order, before the parent's first chunk; then
    # claims from the one queue, in increasing order
    stages = ["fork", *CHECK_NAMES[1:]]
    assert events[:len(stages)] == stages
    spans = events[len(stages):]
    assert spans and spans == sorted(spans)
    assert set(spans) <= set(verify._claims(20, 2))

    # without bounds nothing forks, and the stages run in order
    events.clear()
    verify_all(20, 128, checks=("refinement", "epsilon"), jobs=2)
    assert events == ["epsilon", "refinement"]


def _fails(*args):
    raise RuntimeError("stage failed")


def _open_fds() -> set[str]:
    """This process's open file descriptors, where /proc lists them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _assert_nothing_left(fds: set[str]) -> None:
    """No child process is left, and no file the sweep opened."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@needs_fork
@pytest.mark.parametrize("where, message", [
    ("parent", "stage failed"),
    ("worker", "chunk failed in a worker"),
    ("parents_chunk", "chunk failed in the parent"),
], ids=["parent", "worker", "parents_chunk"])
def test_verify_all_a_failure_propagates_and_leaves_no_worker_behind(monkeypatch, where, message):
    # a stage fails in the parent, or a chunk only in the child, or a chunk
    # only in the parent: each error leaves with its own message
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if where == "parent":
        monkeypatch.setitem(verify._STAGES, "epsilon", _fails)
    parent = os.getpid()
    fds = _open_fds()
    gate_r, gate_w = os.pipe()
    real_chunk = verify._bounds_chunk

    def chunk(args):
        in_child = os.getpid() != parent
        if where == "worker" and in_child:
            os.write(gate_w, b"\0")
            raise RuntimeError("chunk failed in a worker")
        if where == "worker":
            # the parent's chunks wait until the child's has failed
            select.select([gate_r], [], [], 60)
        if where == "parents_chunk" and in_child:
            # the child's first chunk stalls until the parent kills it
            select.select([gate_r], [], [], 60)
            os.write(gate_w, b"\0")
        if where == "parents_chunk" and not in_child:
            raise RuntimeError("chunk failed in the parent")
        return real_chunk(args)

    monkeypatch.setattr(verify, "_bounds_chunk", chunk)
    try:
        with pytest.raises(RuntimeError, match=message):
            verify_all(40, 128, jobs=2)
    finally:
        os.close(gate_r)
        os.close(gate_w)
    _assert_nothing_left(fds)


@needs_fork
def test_verify_all_kills_and_reaps_the_workers_before_a_stage_error_leaves(monkeypatch):
    # the child stalls in its first chunk for a minute, so the stage error
    # leaves well within it only if it kills the child rather than wait
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setitem(verify._STAGES, "epsilon", _fails)
    parent = os.getpid()
    fds = _open_fds()
    gate_r, gate_w = os.pipe()
    real_chunk = verify._bounds_chunk

    def chunk(args):
        if os.getpid() != parent:
            select.select([gate_r], [], [], 60)
            os.write(gate_w, b"\0")
        return real_chunk(args)

    monkeypatch.setattr(verify, "_bounds_chunk", chunk)
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="stage failed"):
            verify_all(40, 128, jobs=2)
    finally:
        os.close(gate_r)
        os.close(gate_w)
    assert time.monotonic() - start < 30
    _assert_nothing_left(fds)


@needs_fork
@pytest.mark.parametrize("how, message", [
    ("exit", "exited with status 3"),
    ("signal", f"killed by signal {int(signal.SIGKILL)}"),
], ids=["exit", "signal"])
def test_verify_all_refuses_to_report_when_a_worker_dies(monkeypatch, how, message):
    # a child that dies with no exception leaves its chunks unswept: the
    # sweep raises rather than return a report with bound records missing
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent = os.getpid()
    fds = _open_fds()
    gate_r, gate_w = os.pipe()
    real_chunk = verify._bounds_chunk

    def chunk(args):
        if os.getpid() == parent:
            # the parent's chunks wait until the child has died in one
            select.select([gate_r], [], [], 60)
            return real_chunk(args)
        os.write(gate_w, b"\0")
        if how == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(verify, "_bounds_chunk", chunk)
    try:
        with pytest.raises(RuntimeError, match=message):
            verify_all(40, 128, jobs=2)
    finally:
        os.close(gate_r)
        os.close(gate_w)
    _assert_nothing_left(fds)


@needs_fork
def test_verify_all_with_more_workers_than_cores_runs_every_chunk_once(monkeypatch):
    # fifteen children and the parent, on fewer cores, take the claims of
    # the 64 n from the one queue as fast as they can; each claim logs all
    # its n to a pipe, and two jobs reading the same claim would sweep its n
    # twice, a claim never read would leave them unswept
    def timed_out(signum, frame):
        raise TimeoutError("the sweep took over 120 s")

    def chunk(args):
        os.write(log_w, b"".join(b"%d " % n for n in range(args[0], args[1])))
        return []

    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(verify, "_bounds_chunk", chunk)
    fds = _open_fds()
    log_r, log_w = os.pipe()
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(120)
    try:
        verify_all(64, 128, checks=("bounds",), jobs=16)
        swept = sorted(map(int, os.read(log_r, 1 << 16).split()))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(log_r)
        os.close(log_w)
    assert swept == list(range(1, 65))
    _assert_nothing_left(fds)


def test_claims_tile_the_sweep_in_guided_shares_that_never_grow():
    floor = verify._CLAIM_FLOOR
    for max_n in (8, 9, 37, 10**4):
        for jobs in (2, 3, 16):
            claims = verify._claims(max_n, jobs)
            assert claims[0][0] == 1 and claims[-1][1] == max_n + 1, (max_n, jobs)
            assert all(hi == lo for (_, hi), (lo, _) in zip(claims, claims[1:])), (max_n, jobs)
            sizes = [hi - lo for lo, hi in claims]
            assert sizes == sorted(sizes, reverse=True) and sizes[-1] > 0, (max_n, jobs)
            assert all(size >= floor for size in sizes[:-1]), (max_n, jobs)
            # each size is the guided share of the n left when it is taken
            for lo, hi in claims:
                left = max_n + 1 - lo
                assert hi - lo == min(left, max(floor, left // (2 * jobs))), (max_n, jobs, lo)


@needs_fork
@pytest.mark.parametrize("max_n", [8, 37, 200])
def test_verify_all_two_job_records_are_the_one_job_records(monkeypatch, max_n):
    # the records a child sends as columns come back equal field by field:
    # each verdict the Verdict member itself, each margin a Ball with the
    # same man, exp and r
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one = verify_all(max_n, 128, jobs=1).records
    two = verify_all(max_n, 128, jobs=2).records
    assert two == one
    assert all(a.verdict is b.verdict for a, b in zip(one, two))
    assert [type(r.margin) for r in two] == [type(r.margin) for r in one]
    fields = lambda records: [m and (m.man, m.exp, m.r) for m in (r.margin for r in records)]
    assert fields(two) == fields(one)



@pytest.mark.parametrize("n_lo, n_hi, p", [
    (1, 12, 53),  # the equalities at n = 1 climb one rung
    (10**20, 10**20 + 2, 128),  # the last ids climb two
    (10**400, 10**400 + 1, 128),  # main stays undecided at the cap
])
def test_bounds_chunk_makes_check_bounds_records(n_lo, n_hi, p):
    # the sweep judges each first rung itself and climbs only from an open
    # one, yet makes the very records check_bound's would
    records = verify._bounds_chunk((n_lo, n_hi, p))
    assert records == [
        bounds.check_bound(b, n, p).record() for n in range(n_lo, n_hi) for b in bounds.bound_ids()
    ]
    assert {r.precision_bits for r in records} != {p}


def test_queries_after_a_sweep_read_its_targets():
    # the target memo holds the six targets at every n of a one-job
    # verify_all(500, 128), so the twelve-bound query at a swept n computes
    # no target again, and what it reads is what a cold computation gives
    bounds._target_cached.cache_clear()
    verify_all(500, 128)
    misses = bounds._target_cached.cache_info().misses
    warm = [bounds.check_bound(b, n, 128) for n in (1, 250, 500) for b in bounds.bound_ids()]
    assert bounds._target_cached.cache_info().misses == misses
    bounds._target_cached.cache_clear()
    assert [bounds.check_bound(b, n, 128) for n in (1, 250, 500) for b in bounds.bound_ids()] == warm


@needs_fork
def test_the_fan_out_sends_any_record_across_unchanged(monkeypatch):
    # records with no margin, with params that are no bound's (str and int
    # values, or none) and with every verdict cross the fork as they are
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    margins = (None, Ball(7, -3), Ball(-5, 2, 3, 2), Ball(0, 0, 1, -9))
    verdicts = tuple(Verdict)

    def chunk(args):
        n_lo, n_hi, p = args
        return [
            CheckRecord(
                "probe", (("label", f"x{n}"), ("k", -k)) if k else (),
                verdicts[(n + k) % 4], margins[(n * k) % 4], p + k,
            )
            for n in range(n_lo, n_hi) for k in range(len(bounds.bound_ids()))
        ]

    monkeypatch.setattr(verify, "_bounds_chunk", chunk)
    one = verify_all(40, 128, checks=("bounds",), jobs=1)
    two = verify_all(40, 128, checks=("bounds",), jobs=2)
    assert len(two.records) == 480 and two.records == one.records
    assert all(a.verdict is b.verdict and a.params == b.params for a, b in zip(one.records, two.records))
    assert {r.margin is None for r in two.records} == {True, False}
    assert two.to_json() == one.to_json()

_FRESH_SWEEP = """\
import os, sys, warnings
warnings.simplefilter("error")
from harmonicbounds.verify import verify_all
real_fork, forks = os.fork, []
def fork():
    pid = real_fork()
    forks.append(pid)
    return pid
os.fork, os.cpu_count = fork, lambda: 2
print("before the sweep")
verify_all(40, 128, jobs=2)
print(sum(pid > 0 for pid in forks), "multiprocessing" in sys.modules)
"""


@needs_fork
def test_verify_all_fans_out_in_a_fresh_interpreter_without_warnings_or_multiprocessing():
    # stdout is a pipe, so "before the sweep" is still buffered at the fork:
    # a child that flushed it on its way out would print it twice
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SWEEP],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "before the sweep\n1 False\n"


def test_verify_all_decides_every_claim_at_the_callers_precision():
    rep = verify_all(30, 1024)
    assert {r.precision_bits for r in rep.records if r.precision_bits > 0} == {1024}


def test_verify_all_validation():
    with pytest.raises(ValueError):
        verify_all(2, 128)
    with pytest.raises(ValueError):
        verify_all(10, 128, checks=("bounds", "bogus"))
    with pytest.raises(ValueError):
        verify_all(10, 128, jobs=0)


_GRID = range(1, 21)


@pytest.mark.parametrize(
    "name, call",
    [
        ("max_n", lambda: sharpness_main(3.0)),
        ("max_n", lambda: epsilon_window(True)),
        ("max_n", lambda: refinement_check(True)),
        ("max_n", lambda: alt_tail_constants(2.0)),
        ("max_n", lambda: verify_all(8.0)),
        ("jobs", lambda: verify_all(8, jobs=2.0)),
        ("order", lambda: cm_spotcheck("F", True, _GRID, 4)),
        ("depth", lambda: cm_spotcheck("F", 2, _GRID, True)),
        ("order", lambda: specfun.stirling_tail("F", True, 3, 128)),
    ],
    ids=[
        "sharpness_max_n", "epsilon_max_n", "refinement_max_n", "alt_tail_max_n",
        "verify_all_max_n", "verify_all_jobs", "cm_order", "cm_depth", "stirling_order",
    ],
)
def test_counts_refuse_bools_and_non_ints_before_any_work(monkeypatch, name, call):
    # True would run as 1 and 2.0 would fail deep inside a loop; every stage
    # reads its precision just after its checks, so none may get that far
    def no_work(prec):
        raise AssertionError("work started before the counts were checked")

    monkeypatch.setattr(verify, "bits_of", no_work)
    monkeypatch.setattr(specfun, "bits_of", no_work)
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        call()


def test_verify_all_refuses_an_empty_check_selection():
    # an empty selection certifies nothing, so it must not report success
    with pytest.raises(ValueError, match="at least one check"):
        verify_all(5, 128, checks=())


def test_verify_all_refuses_a_bare_string_of_checks():
    # a str iterates over its characters, so "cm" would select "c" and "m"
    with pytest.raises(TypeError, match="checks must be a collection"):
        verify_all(5, 128, checks="cm")


def test_verify_all_exit_code_zero_when_green():
    rep = verify_all(5, 128, checks=("bounds", "equality"))
    assert rep.exit_code() == 0


def test_every_public_function_takes_the_cap_and_refuses_one_bit_more():
    # one range for callers: each public function of specfun, bounds and
    # verify works at MAX_PRECISION, guard bits and ladder included, and
    # refuses MAX_PRECISION + 1 up front, naming the precision it was given
    x = Fraction(7, 2)
    calls = {
        "psi_gap": lambda p: specfun.psi_gap(10, p),
        "digamma": lambda p: specfun.digamma(x, p),
        "trigamma": lambda p: specfun.trigamma(x, p),
        "lgamma": lambda p: specfun.lgamma(x, p),
        "stirling_tail": lambda p: specfun.stirling_tail("F", 2, x, p),
        "euler_gamma": lambda p: specfun.euler_gamma(p),
        "euler_gamma_alt": lambda p: specfun.euler_gamma(p, "alt"),
        "alternating_tail": lambda p: specfun.alternating_tail(10, p),
        "harmonic_em": lambda p: specfun.harmonic_em(10, specfun.EmConfig(precision=p)),
        "target_value": lambda p: bounds.target_value("H", 10, p),
        "evaluate_bound": lambda p: bounds.evaluate_bound("main", 10, p),
        "check_bound": lambda p: bounds.check_bound("main", 10, p),
        "f_eval_int": lambda p: f_eval(10, p),
        "f_eval_ball": lambda p: f_eval(Ball(7, -1), p),
        "sharpness_main": lambda p: sharpness_main(3, p),
        "g_positivity": lambda p: g_positivity(None, p),
        "epsilon_window": lambda p: epsilon_window(1, p),
        "refinement_check": lambda p: refinement_check(2, p),
        "alt_tail_constants": lambda p: alt_tail_constants(2, p),
        "cm_spotcheck": lambda p: cm_spotcheck("F", 2, range(1, 9), 0, p),
        "equality_witnesses": lambda p: equality_witnesses(p),
        "verify_all": lambda p: verify_all(3, p),
    }
    for name, call in calls.items():
        assert call(MAX_PRECISION) is not None, name
        with pytest.raises(ValueError, match=str(MAX_PRECISION + 1)):
            call(MAX_PRECISION + 1)
