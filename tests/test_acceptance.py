"""Acceptance harness: eleven certified claims checked at desk scale.

Each criterion is one test that prints a single PASS/FAIL line with the
measured evidence.  Run under pytest, or directly::

    python3 tests/test_acceptance.py

for the plain harness output.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import accumulate

from harmonicbounds.ball import Ball, Order, compare, mul, recip, sub
from harmonicbounds.bounds import EQUALITY_RADIUS, catalog, check_bound
from harmonicbounds.report import Verdict
from harmonicbounds.specfun import (
    EmConfig,
    alternating_tail,
    digamma,
    euler_gamma,
    harmonic_em,
    harmonic_exact,
)
from harmonicbounds.symbolic import PolyFraction
from harmonicbounds.verify import (
    alt_tail_constants,
    cm_spotcheck,
    epsilon_window,
    f_eval,
    g_positivity,
    refinement_check,
    sharpness_main,
    verify_all,
)

SWEEP_N = 10**4

# the seven equality records enumerated in the acceptance statement; the
# catalog additionally declares alt_tail lower at n=1 (its shift constant
# makes that endpoint exact), and the sweep must report exactly what the
# catalog declares
ENUMERATED_EQUALITIES = {
    ("main", 1),
    ("toth_sharp", 1),
    ("batir", 1),
    ("chen", 1),
    ("qi_guo_family", 1),
    ("klamkin", 1),
    ("odd", 1),
}


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _inside(ball: Ball, lo: str, hi: str) -> bool:
    return ball.lower() >= Fraction(lo) and ball.upper() < Fraction(hi)


def _green(report) -> bool:
    s = report.summary()
    return s["fail"] == 0 and s["undecided"] == 0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_reference_values_of_f():
    t0 = time.perf_counter()
    balls = {n: f_eval(n, 256) for n in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    windows = {1: ("0.9507", "0.9508"), 2: ("1.1090", "1.1091"), 3: ("1.1549", "1.1550")}
    digits_ok = all(_inside(balls[n], *windows[n]) for n in balls)
    radius_ok = all(b.rad_fraction() < Fraction(1, 10**30) for b in balls.values())
    _criterion(
        1,
        "f(1), f(2), f(3) at 256 bits match the reference digits with radius < 1e-30",
        digits_ok and radius_ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_02_limit_constant_is_sharp():
    t0 = time.perf_counter()
    rep = sharpness_main(SWEEP_N, 128)
    below = [r for r in rep.records if r.check == "f_below_limit"]
    gap = sub(Ball.from_fraction(Fraction(6, 5), 160), f_eval(1000, 160), 160)
    elapsed = time.perf_counter() - t0
    ok = (
        _green(rep)
        and len(below) == SWEEP_N
        and all(r.verdict is Verdict.PASS for r in below)
        and gap.is_positive()
        and gap.upper() < Fraction(1, 10**6)
        and elapsed < 60.0
    )
    _criterion(
        2,
        "6/5 - f(1000) certified < 1e-6 and f(n) < 6/5 for every n up to 10^4",
        ok,
        f"gap <= {float(gap.upper()):.3g}, {elapsed:.1f}s",
    )


def test_criterion_03_equality_at_one_numeric_and_symbolic():
    chk = check_bound("main", 1, prec=256)
    diff = sub(chk.target, chk.lower, 256)
    numeric_ok = (
        chk.verdict is Verdict.EQUALITY
        and chk.equality_side == "lower"
        and diff.contains(0)
        and diff.rad_fraction() < EQUALITY_RADIUS
    )
    g = PolyFraction.symbol()
    shift = 2 * (7 - 12 * g) / (2 * g - 1)
    symbolic_ok = -1 / (12 + shift) == (1 - 2 * g) / 2
    _criterion(
        3,
        "quadratic-window lower endpoint equals the target at n=1, numerically and in the symbol g",
        numeric_ok and symbolic_ok,
        f"diff radius {float(diff.rad_fraction()):.2g}",
    )


def test_criterion_04_full_sweep_clean():
    declared = {
        (spec.bound_id, n)
        for spec in catalog()
        for n in set(spec.lower_equalities) | set(spec.upper_equalities)
    }
    t0 = time.perf_counter()
    rep = verify_all(SWEEP_N, 128, jobs=1)
    elapsed = time.perf_counter() - t0
    s = rep.summary()
    reported = {
        (r.params_dict()["id"], r.params_dict()["n"])
        for r in rep.verdicts(Verdict.EQUALITY)
    }
    ok = (
        s["fail"] == 0
        and s["undecided"] == 0
        and reported == declared
        and ENUMERATED_EQUALITIES <= reported
        and elapsed < 600.0
    )
    _criterion(
        4,
        "verify_all at 10^4: zero fail, zero undecided, equality records exactly as declared",
        ok,
        f"{len(rep.records)} records, {s['equality']} equalities, {elapsed:.1f}s",
    )


def test_criterion_05_scaled_remainder_window():
    rep = epsilon_window(SWEEP_N, 128)
    sweep_ok = _green(rep) and sum(r.check == "epsilon" for r in rep.records) == SWEEP_N
    g = euler_gamma(200)
    eps1 = sub(Ball.from_int(70), mul(Ball.from_int(120), g, 200), 200)
    anchor_ok = _inside(eps1, "0.733", "0.735")
    _criterion(
        5,
        "0 < epsilon_n < 1 for every n up to 10^4 and epsilon_1 = 70 - 120g in (0.733, 0.735)",
        sweep_ok and anchor_ok,
        f"epsilon_1 ~ {float(eps1.mid_fraction()):.5f}",
    )


def test_criterion_06_quadratic_window_refines_the_others():
    rep = refinement_check(SWEEP_N, 128)
    count = sum(r.check == "refinement" for r in rep.records)
    _criterion(
        6,
        "implied H-interval of the quadratic window nests inside all five classical ones, n in [2, 10^4]",
        _green(rep) and count == (SWEEP_N - 1) * 5,
        f"{count} containments",
    )


def test_criterion_07_gamma_digits_and_policy_overlap():
    g53 = euler_gamma(53)
    digits_ok = _inside(g53, "0.57721566", "0.57721567")
    a = euler_gamma(256, "default")
    b = euler_gamma(256, "alt")
    combined = a.rad_fraction() + b.rad_fraction()
    overlap_ok = compare(a, b) is Order.OVERLAPPING and combined < Fraction(1, 10**60)
    _criterion(
        7,
        "gamma at 53 bits shows 0.57721566 and two 256-bit derivations overlap within 1e-60",
        digits_ok and overlap_ok,
        f"combined radius {float(combined):.2g}",
    )


def test_criterion_08_summation_agrees_with_exact_values():
    t0 = time.perf_counter()
    # exact[n - 1] = H(n) from one running sum; its last entry is checked
    # against harmonic_exact, which sums from 1 on every call
    exact = list(accumulate(Fraction(1, i) for i in range(1, SWEEP_N + 1)))
    oracle_ok = exact[-1] == harmonic_exact(SWEEP_N)
    em_ok = True
    for q in (1, 2, 3, 5):
        cfg = EmConfig(q=q, precision=128)
        for n in range(1, SWEEP_N + 1):
            if not harmonic_em(n, cfg).contains(exact[n - 1]):
                em_ok = False
                break
        if not em_ok:
            break
    g = euler_gamma(160)
    from harmonicbounds.ball import add

    psi_ok = all(
        add(g, digamma(n + 1, 160), 160).contains(exact[n - 1])
        for n in range(1, 1001)
    )
    elapsed = time.perf_counter() - t0
    _criterion(
        8,
        "correction-series H(n) contains the exact value for q in {1,2,3,5}, n to 10^4; H(n) = g + psi(n+1) to 1000",
        oracle_ok and em_ok and psi_ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_09_g_positive_on_the_reference_grid():
    rep = g_positivity(None, 128)
    direct = [r for r in rep.records if r.check == "g_direct"]
    grid = tuple(r.params_dict()["x"] for r in direct)
    sweep_ok = (
        _green(rep)
        and grid == ("3", "4", "5", "10", "50", "100")
        and all(r.verdict is Verdict.PASS for r in direct)
    )
    constant_ok = 1659 * 3**4 - 8400 * 3**2 - 100 == 58679
    poly_margin = [r for r in rep.records if r.check == "g_polynomial"][0].margin
    shifted_ok = poly_margin is not None and poly_margin.is_exact and poly_margin.mid_fraction() == 58679
    _criterion(
        9,
        "g certified positive at {3,4,5,10,50,100}; shifted polynomial constant 58679 exact",
        sweep_ok and constant_ok and shifted_ok,
    )


def test_criterion_10_alternating_tail_constants():
    x1 = sub(recip(alternating_tail(1, 192), 192), Ball.from_int(2), 192)
    # the reference digits are a 40-digit truncation, so compare up to that
    frozen = Fraction("1.258891353270929454597917356923655272697")
    anchor_ok = (
        abs(x1.mid_fraction() - frozen) < x1.rad_fraction() + Fraction(1, 10**38)
        and _inside(x1, "1.2588", "1.2590")
    )
    rep = alt_tail_constants(SWEEP_N, 128)
    decreasing = sum(r.check == "x_decreasing" for r in rep.records)
    last = [r for r in rep.records if r.check == "x_above_limit"][0]
    margin = last.margin
    limit_ok = (
        margin is not None
        and margin.is_positive()
        and margin.upper() < Fraction(1, 1000)
    )
    _criterion(
        10,
        "x_1 = 1/(1 - ln 2) - 2, x_n strictly decreasing to 10^4, x_{10^4} in (1, 1.001)",
        anchor_ok and _green(rep) and decreasing == SWEEP_N - 1 and limit_ok,
        f"x_10000 - 1 <= {float(margin.upper()):.3g}" if margin is not None else "",
    )


def test_criterion_11_monotonicity_signatures():
    grid = list(range(1, 21))
    rep_f = cm_spotcheck("F", 2, grid, 4, 128)
    rep_g = cm_spotcheck("G", 1, grid, 4, 128)
    ok = (
        _green(rep_f)
        and _green(rep_g)
        and sum(r.check == "cm_sign" for r in rep_f.records) == 5
        and sum(r.check == "cm_sign" for r in rep_g.records) == 5
    )
    _criterion(
        11,
        "alternating finite-difference signature of both Stirling remainders to depth 4 on [1, 20]",
        ok,
    )


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
