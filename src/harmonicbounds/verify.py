"""Verification suite behind the bound catalog.

The catalog states inequalities; this module certifies the claims *about*
those inequalities: that the quadratic-window bound's constants are sharp
(the sequence f below is increasing and approaches 6/5), that the auxiliary
function g driving the monotonicity argument is positive, that the
fourth-order error term stays inside (0, 1), that the quadratic-window
bound refines the earlier ones, that the alternating-tail constants
decrease toward 1, that the Stirling remainders look completely monotonic
under finite differencing, and that every declared equality case reduces
to an exact algebraic identity.

_STAGES is the one list of these stages: it maps each stage name, in report
order, to the function that yields its records, and CHECK_NAMES is its
keys.  Every stage but the bound sweep is called as stage(max_n, p).
verify_all runs the selected stages from it, each once, in that order.
Only the bound sweep fans out: with jobs J it forks J - 1 children, which
sweep at once, while the parent runs the other selected stages and then
sweeps with them as the last job (_fan_out).  Before it forks, the parent
writes every claim, a range of n, to one queue file; the claims shrink as
fewer n are left (_claims), and each job takes the next one with a single
read at the file offset that all jobs share, so no lock is held and no
memory is shared.  Each job renders the JSON text of each record it makes,
with CheckRecord._json_text; the report that verify_all returns then
writes those texts, not the parent (report module).  A child hands its
records back in a file of its own, as flat columns, checks, params,
verdict codes, precisions and the margins' ints, not as pickled records
and balls, and the parent reads that file once, after reaping the child,
and rebuilds them (_columns, _from_columns).  A chunk holds, per n, one
record per bound id in catalog order, so the sweep reassembles in catalog
order, then by n, by slicing, with no sort.

The per-n claims, f_below_limit, f_monotone, epsilon, refinement and
x_decreasing, are the rows of one table, _PER_N.  A row names its check,
its first n, how far below max_n its last n lies, its params after n, and
the differences at (n, w) that must be > 0.  _per_n is the one loop over
the rows: n by n, and at each n every row whose range holds n, in row
order.  The anchors and one-off records stay in their stage functions.

Every check yields a CheckRecord with a verdict, a margin enclosure and
the precision that decided it.  Each inequality is stated as certified
difference balls that must all be > 0, and its verdict is their sign as
read by bounds.judge, on the one precision ladder (ball.climb): while a
difference straddles zero the check retries at doubled precision, and
reports undecided at the cap or as soon as doubling the precision did not
at least halve that difference's radius, since the input's own width then
sets it.  A window lo < v < hi is the two differences v - lo and hi - v.
_certify is the one path from such a claim to its record.  It judges the
first rung itself and climbs on from it only while the claim is open, as
the bound sweep does (_bounds_chunk), so a claim decided at the caller's
precision is judged once.  The one check that is not an inequality, that
two enclosures of the same real intersect, compares the balls as sets
(_overlap_verdict).

The g_positivity stage reads no hand-entered polynomial: its envelopes
of psi, psi' and ln x + 1/(2x) - psi(x+1), and the quartic G whose
positivity bounds g from below, are derived from the truncated series in
specfun._SERIES, each envelope's side from the sign of the first omitted
term.

This module computes no gap ln x + 1/(2x) - psi(x+1) itself: f, g and the
gap envelope read specfun.psi_gap at an int or a ball, free of
cancellation and never containing zero, so f_eval evaluates once and
does not climb.  Its radius is absolute, and f = 1/gap(x) - 12 x^2 loses
about 4 log2 x bits to it, so f_eval reads an int n as the exact ball
(n, 0, 0) and works at p + 4 t bits, t the bit length of the argument's
upper end, capped at MAX_PRECISION, and rounds to p.  The stages call _f
at p directly.

Every stage decides at the caller's precision p, the precision
bounds.check_bound starts at.  Within one process the stages share what is
memoised per precision, such as g and ln 2; the values at each n they
share less.  Under fan-out most of the bound sweep runs in forked
children, whose memos the parent never sees.  With one job psi_gap's
memo keeps only its last 1024 arguments, so past about a thousand
indices each stage computes its gaps at n again.  The alt_tail stage
reads its tails from the bound sweep's target memo, which holds a sweep
up to max_n = 682 (bounds._target_cached).  Within a stage the rows
of one n share them: f(n) is computed once for f_below_limit and
f_monotone.  Refinement compares the bounds' intervals for
H(n) - ln n - g, the frame in which their targets differ by terms free
of ln n and g (bounds._frame_offset).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache, partial
from typing import IO, Callable, Iterable, Iterator, NoReturn, Sequence

from . import elementary, specfun
from .ball import (
    Ball,
    DEFAULT_PRECISION,
    MAX_PRECISION,
    Order,
    _ball,
    add,
    bits_of,
    climb,
    compare,
    mul,
    neg,
    recip,
    round_ball,
    scale2,
    sub,
)
from .bounds import (
    SharpConstant,
    _check_rung,
    _frame_offset,
    _param,
    _target_cached,
    bound_ids,
    catalog,
    catalog_map,
    check_bound,
    judge,
)
from .report import CheckRecord, Verdict, VerificationReport
from .symbolic import Poly, PolyFraction

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_G_GRID",
    "f_eval",
    "sharpness_main",
    "g_positivity",
    "epsilon_window",
    "refinement_check",
    "alt_tail_constants",
    "cm_spotcheck",
    "equality_witnesses",
    "verify_all",
]

DEFAULT_G_GRID: tuple[int, ...] = (3, 4, 5, 10, 50, 100)


# ---------------------------------------------------------------------------
# the one record path
# ---------------------------------------------------------------------------

def _certify(
    check: str, params: tuple[tuple[str, object], ...],
    make: Callable[[int], Sequence[Ball]], w0: int,
) -> CheckRecord:
    """The record of the claim that every difference in make(w) is > 0:
    judged at w0, and on up the ladder from there only while that leaves
    it open."""
    verdict, margin, _ = rung = judge(make(w0))
    w = w0
    if verdict is None:
        verdict, margin, w = climb(lambda w: judge(make(w)), w0, rung)
    return CheckRecord(check, params, verdict or Verdict.UNDECIDED, margin, w)


def _inside(v: Ball, lo: Fraction, hi: Fraction, w: int) -> tuple[Ball, Ball]:
    """The window lo < v < hi as the differences v - lo and hi - v."""
    return sub(v, Ball.from_fraction(lo, w), w), sub(Ball.from_fraction(hi, w), v, w)


def _overlap_verdict(a: Ball, b: Ball, w: int) -> tuple[Verdict, Ball]:
    """Two enclosures of the same real must intersect."""
    verdict = Verdict.PASS if compare(a, b) is Order.OVERLAPPING else Verdict.FAIL
    return verdict, sub(a, b, w)


def _anchor(
    check: str, value_at: Callable[[int], Ball], exact: Ball,
    window: tuple[Fraction, Fraction], w0: int,
) -> CheckRecord:
    """value_at(w) at n = 1 meets its closed form `exact` and lies inside window."""
    agree, diff = _overlap_verdict(value_at(w0), exact, w0)
    rec = _certify(check, (("n", 1),), lambda w: _inside(value_at(w), *window, w), w0)
    return rec._replace(
        verdict=rec.verdict if agree is Verdict.PASS else Verdict.FAIL,
        margin=min((diff, rec.margin), key=Ball.mid_fraction),
    )


# the catalog's specs by id, taken once: catalog_map() builds a new dict per call
_SPECS = catalog_map()


def _sharp(bound_id: str, name: str) -> SharpConstant:
    """A constant the catalog declares best possible, with its window."""
    return next(c for c in _SPECS[bound_id].sharp_constants if c.name == name)


# ---------------------------------------------------------------------------
# the sharpness function f
# ---------------------------------------------------------------------------

# f(1) is the main bound's lower shift A, and f's limit its upper shift 6/5
_F_AT_ONE = _sharp("main", "lower_shift")
_F_LIMIT = _sharp("main", "upper_shift")


@lru_cache(maxsize=64)
def _f(x: int | Ball, w: int) -> Ball:
    """f(x) = 1/(ln x + 1/(2x) - psi(x+1)) - 12 x^2 at an int x >= 1 or a
    positive ball.  psi_gap's enclosure of the denominator never contains
    zero, so f is evaluated once, at w bits."""
    xb = Ball.from_int(x) if isinstance(x, int) else x
    return sub(recip(specfun.psi_gap(x, w), w), mul(Ball.from_int(12), mul(xb, xb, w), w), w)


def f_eval(x, prec=DEFAULT_PRECISION) -> Ball:
    """Enclosure of f at an integer n >= 1 or a positive ball argument.

    An int n is the exact ball (n, 0, 0), and one rule serves both: with t
    the bit length of the argument's upper end, floored at 0, f is
    evaluated at p + 4 t bits, capped at MAX_PRECISION, and rounded to p.
    psi_gap's radius is absolute, so 1/gap(x) - 12 x^2 loses about 4 log2 x
    bits to it.  Past x of about 2^((MAX_PRECISION - p)/4) the cap bites
    and the enclosure widens again.
    """
    p = bits_of(prec)
    if not isinstance(x, Ball):
        x = Ball.from_int(specfun.check_index(x))
    t = max(0, (x.man + x.r).bit_length() + x.exp)
    return round_ball(_f(x, min(p + 4 * t, MAX_PRECISION)), p)


def _f_closed_form(n: int, w: int) -> Ball:
    """f(n) = 1/(ln n + g + 1/(2n) - H(n)) - 12 n^2 with H(n) exact, for n
    = 2 and 3; f(1) is the catalog's A."""
    if n == 1:
        return _F_AT_ONE.value(w)
    if n not in (2, 3):
        raise ValueError("closed forms are recorded only for n in {1, 2, 3}")
    rest = Ball.from_fraction(Fraction(1, 2 * n) - specfun.harmonic_exact(n), w)
    gap = add(add(elementary.ln(Ball.from_int(n), w), specfun.euler_gamma(w), w), rest, w)
    return sub(recip(gap, w), Ball.from_int(12 * n * n), w)


# f(1), f(2), f(3) to the four digits printed; f(1)'s are A's, from the catalog
_F_DIGITS = {
    1: (_F_AT_ONE.window_lo, _F_AT_ONE.window_hi),
    2: (Fraction("1.1090"), Fraction("1.1091")),
    3: (Fraction("1.1549"), Fraction("1.1550")),
}

_GAP_SAMPLES = (1, 2, 3, 10, 100, 1000)


def sharpness_main(max_n: int, prec=DEFAULT_PRECISION) -> VerificationReport:
    """Certify that f is increasing, capped by 6/5, and anchored at 1, 2, 3."""
    specfun.check_index(max_n, 3, "max_n")
    p = bits_of(prec)
    rep = VerificationReport()

    for n in (1, 2, 3):
        verdict, margin = _overlap_verdict(_f(n, p), _f_closed_form(n, p), p)
        rep.append(CheckRecord(
            check="f_value", params=(("n", n),),
            verdict=verdict, margin=margin, precision_bits=p,
        ))
        rep.append(_certify(
            "f_digits", (("n", n),),
            lambda w, n=n: _inside(_f(n, w), *_F_DIGITS[n], w), p,
        ))

    rep.extend(_per_n("sharpness", max_n, p))

    samples = [n for n in _GAP_SAMPLES if n <= max_n]
    for a, b in zip(samples, samples[1:]):
        # 6/5 - f(b) < 6/5 - f(a)
        rep.append(_certify(
            "f_gap_decreasing", (("n", a), ("next", b)),
            lambda w, a=a, b=b: (sub(
                sub(_F_LIMIT.value(w), _f(a, w), w),
                sub(_F_LIMIT.value(w), _f(b, w), w),
                w,
            ),),
            p,
        ))

    if max_n >= 1000:
        # 6/5 - f(1000) < 10^-6
        rep.append(_certify(
            "f_limit_close", (("n", 1000),),
            lambda w: (sub(
                Ball.from_fraction(Fraction(1, 10**6), w),
                sub(_F_LIMIT.value(w), _f(1000, w), w),
                w,
            ),),
            p,
        ))
    return rep


# ---------------------------------------------------------------------------
# positivity of g and the envelope inequalities behind it
# ---------------------------------------------------------------------------

# The envelopes are the psi and psi' series (specfun._SERIES) truncated after
# 3 and 4 terms, as polynomials in u = 1/x, with
#   psi(x) = ln x - u/2 - S(u),  psi'(x) = u + u^2/2 + S1(u),  gap(x) = S(u).
# Each series lies strictly between its truncation and the truncation plus
# the first omitted term (DLMF 5.11(ii)), so on the side that term's sign
# states: +1 above the truncation, -1 below it.
_U = Poly.x()
_HALF = Poly.const(Fraction(1, 2))


def _envelopes(kind: str, lead: Poly) -> list[tuple[Poly, int]]:
    """lead + the kind's series truncated after 3 and 4 terms, each with the
    side on which lead + series lies."""
    trunc = specfun._SERIES[kind].truncation
    return [(lead + poly, side) for poly, side in (trunc(3), trunc(4))]


def _g_shifted(psi1_low: Poly, gap_high: Poly) -> tuple[tuple[int, ...], bool]:
    """The lower bound psi1_low - u^2 - u + u^2/2 - 24 x gap_high^2 on g, by
    psi'(x+1) = psi'(x) - u^2 and 0 < gap < gap_high, as G(x) over a
    positive multiple of x^d with G in primitive integer form.  Returns G's
    Taylor coefficients at x = 3 and whether the bound starts at u^7, as
    g = O(x^-7) does: a lower bound with a u^k term, k < 7, is false or
    negative for large x."""
    ub = _U * (psi1_low - _U - _HALF * _U * _U) - Poly.const(24) * gap_high * gap_high
    bound = ub.coeffs[1:]
    coeffs = bound[::-1]
    lcm = math.lcm(*(c.denominator for c in coeffs))
    scale = Fraction(lcm, math.gcd(*(c.numerator for c in coeffs)))
    shifted = Poly()
    for c in reversed(coeffs):
        shifted = shifted * (_U + Poly.const(3)) + Poly.const(c * scale)
    return tuple(int(c) for c in shifted.coeffs), not any(bound[:7])


@lru_cache(maxsize=64)
def _coeff_balls(poly: Poly, w: int) -> tuple[Ball, ...]:
    """poly's coefficients rounded to balls at w bits, once per (poly, w)."""
    return tuple(Ball.from_fraction(c, w) for c in poly.coeffs)


def _at(poly: Poly, x: Ball, w: int) -> Ball:
    """poly(1/x) by ball Horner."""
    return specfun._horner(_coeff_balls(poly, w), recip(x, w), w)


def _sides(v: Ball, truncations: list[tuple[Ball, int]], w: int) -> tuple[Ball, ...]:
    """v - t for each truncation t that v lies above (side +1), then t - v
    for each one it lies below: the differences that must be > 0."""
    ordered = sorted(truncations, key=lambda ts: -ts[1])
    return tuple(sub(v, t, w) if side > 0 else sub(t, v, w) for t, side in ordered)


def _grid(entries: Iterable) -> list:
    """A grid's entries, once the grid is not a str, whose characters would
    read as points, and no entry is a bool, which would stand for 0 or 1."""
    if isinstance(entries, str):
        raise TypeError("grid must be a collection of points, not a str")
    points = list(entries)
    if any(isinstance(x, bool) for x in points):
        raise TypeError("grid points must be numbers, got bool")
    return points


def _as_point(x) -> tuple[str, Callable[[int], Ball], Fraction]:
    """Normalize a grid entry to (label, x_at, base): x_at(w) is its ball at
    w bits, exact at an int or a dyadic, and base its rational lower bound.
    The label is a rational's value or a ball's exact midpoint and radius,
    so two grid entries share it only when they are the same point."""
    if isinstance(x, Ball):
        return f"[{x.mid_fraction()} +/- {x.rad_fraction()}]", lambda w: x, x.lower()
    xf = Fraction(x)
    return (str(x) if isinstance(x, int) else str(xf)), lambda w: Ball.from_fraction(xf, w), xf


def _g_direct(x: Ball, w: int) -> Ball:
    """g(x) = psi'(x+1) - 1/x + 1/(2x^2) - 24 x (ln x + 1/(2x) - psi(x+1))^2."""
    t = specfun.trigamma(add(x, Ball.from_int(1), w), w)
    invx = recip(x, w)
    corr = sub(scale2(mul(invx, invx, w), -1), invx, w)
    gap = specfun.psi_gap(x, w)
    tail = mul(mul(Ball.from_int(24), x, w), mul(gap, gap, w), w)
    return sub(add(t, corr, w), tail, w)


def g_positivity(grid: Sequence | None = None, prec=DEFAULT_PRECISION) -> VerificationReport:
    """Certify g > 0 on the grid, plus the rational-envelope chain behind it."""
    entries = grid if grid is not None else DEFAULT_G_GRID
    points = [_as_point(x) for x in _grid(entries)]
    if not points:
        raise ValueError("grid must be non-empty")
    if len({label for label, _, _ in points}) < len(points):
        raise ValueError("grid points must be distinct")
    p = bits_of(prec)
    rep = VerificationReport()

    psi = _envelopes("psi", _HALF * _U)  # of ln x - psi(x)
    psi1 = _envelopes("psi1", _U + _HALF * _U * _U)
    gap_high = next(e for e, side in _envelopes("psi", Poly()) if side < 0)
    g_shifted, starts_at_u7 = _g_shifted(next(e for e, side in psi1 if side > 0), gap_high)
    # G > 0 for x >= 3 when every Taylor coefficient of G at 3 is > 0
    rep.append(CheckRecord(
        check="g_shifted_identity", params=(("constant", g_shifted[0]),),
        verdict=Verdict.PASS if starts_at_u7 and min(g_shifted) > 0 else Verdict.FAIL,
        margin=None, precision_bits=0,
    ))

    def psi_sides(x: Ball, w: int) -> tuple[Ball, ...]:
        # psi's truncations are ln x less those of ln x - psi, on the other side
        lnx = elementary.ln(x, w)
        truncs = [(sub(lnx, _at(e, x, w), w), -side) for e, side in psi]
        return _sides(specfun.digamma(x, w), truncs, w)

    # each claim at a point, as the differences at its ball x that must be > 0
    claims = (
        ("g_direct", lambda x, w: (_g_direct(x, w),)),
        ("psi_envelope", psi_sides),
        ("psi1_envelope", lambda x, w: _sides(
            specfun.trigamma(x, w), [(_at(e, x, w), side) for e, side in psi1], w,
        )),
        ("gap_envelope", lambda x, w: _sides(specfun.psi_gap(x, w), [(_at(gap_high, x, w), -1)], w)),
    )
    for label, x_at, base in points:
        if base < 3:
            raise ValueError("grid points must be >= 3")

        # exact positivity of G via its positive shifted form
        yv = base - 3
        value = sum(c * yv**k for k, c in enumerate(g_shifted))
        rep.append(CheckRecord(
            check="g_polynomial", params=(("x", label),),
            verdict=Verdict.PASS if value > 0 else Verdict.FAIL,
            margin=Ball.from_fraction(value, 64), precision_bits=0,
        ))
        for check, sides in claims:
            rep.append(_certify(
                check, (("x", label),), lambda w, s=sides, x_at=x_at: s(x_at(w), w), p,
            ))
    return rep


# ---------------------------------------------------------------------------
# the fourth-order error window
# ---------------------------------------------------------------------------

def _epsilon(n: int, w: int) -> Ball:
    """120 n^4 (H(n) - ln n - g - 1/(2n) + 1/(12 n^2))."""
    inner = sub(Ball.from_fraction(Fraction(1, 12 * n * n), w), specfun.psi_gap(n, w), w)
    return mul(Ball.from_int(120 * n**4), inner, w)


def epsilon_window(max_n: int, prec=DEFAULT_PRECISION) -> VerificationReport:
    """Certify 0 < eps_n < 1 across [1, max_n], anchored at eps_1 = 70 - 120 g."""
    specfun.check_index(max_n, 1, "max_n")
    p = bits_of(prec)
    rep = VerificationReport()

    exact1 = sub(Ball.from_int(70), mul(Ball.from_int(120), specfun.euler_gamma(p), p), p)
    window = Fraction("0.733"), Fraction("0.735")
    rep.append(_anchor("epsilon_anchor", lambda w: _epsilon(1, w), exact1, window, p))

    rep.extend(_per_n("epsilon", max_n, p))
    return rep


# ---------------------------------------------------------------------------
# refinement ordering
# ---------------------------------------------------------------------------

_REFINED_IDS = ("chen", "toth_sharp", "detemple", "franel", "young")


@lru_cache(maxsize=16)
def _implied_interval(bound_id: str, n: int, w: int) -> tuple[Ball, Ball]:
    """A bound's interval for H(n) - ln n - g."""
    spec = _SPECS[bound_id]
    lo, hi = spec.lower(n, w), spec.upper(n, w)
    r = _frame_offset(spec.target, n, w)
    return (lo, hi) if r is None else (add(lo, r, w), add(hi, r, w))


def _nests(outer: str, n: int, w: int) -> tuple[Ball, Ball]:
    """The main bound's interval at n nests strictly inside outer's."""
    o_lo, o_hi = _implied_interval(outer, n, w)
    m_lo, m_hi = _implied_interval("main", n, w)
    return sub(m_lo, o_lo, w), sub(o_hi, m_hi, w)


def refinement_check(max_n: int, prec=DEFAULT_PRECISION) -> VerificationReport:
    """Certify the quadratic-window H(n) interval sits inside the older ones."""
    specfun.check_index(max_n, 2, "max_n")
    return VerificationReport(_per_n("refinement", max_n, bits_of(prec)))


# ---------------------------------------------------------------------------
# alternating-tail constants
# ---------------------------------------------------------------------------

# x_1 is the alternating tail bound's lower shift, and x_n's limit its upper shift 1
_X_AT_ONE = _sharp("alt_tail", "lower_shift")
_X_LIMIT = _sharp("alt_tail", "upper_shift")


@lru_cache(maxsize=16)
def _alt_x(n: int, w: int) -> Ball:
    """x_n = 1/|tail| - 2n, the tail read through the bound sweep's memo."""
    return sub(recip(_target_cached("alternating_tail", n, w), w), Ball.from_int(2 * n), w)


def alt_tail_constants(max_n: int, prec=DEFAULT_PRECISION) -> VerificationReport:
    """Certify x_n = 1/|tail| - 2n decreases from 1/(1 - ln 2) - 2 toward 1."""
    specfun.check_index(max_n, 2, "max_n")
    p = bits_of(prec)
    rep = VerificationReport()

    rep.append(_anchor(
        "x_anchor", lambda w: _alt_x(1, w), _X_AT_ONE.value(p),
        (_X_AT_ONE.window_lo, _X_AT_ONE.window_hi), p,
    ))

    rep.extend(_per_n("alt_tail", max_n, p))
    rep.append(_certify(
        "x_above_limit", (("n", max_n),),
        lambda w: (sub(_alt_x(max_n, w), _X_LIMIT.value(w), w),), p,
    ))
    return rep


# ---------------------------------------------------------------------------
# the per-n claims
# ---------------------------------------------------------------------------

# each stage's per-n claims, one row per family: (check, first n, how far
# below max_n the last n lies, params after n, diffs(n, w)), where every
# ball in diffs(n, w) must be > 0
_PER_N: dict[str, tuple[tuple, ...]] = {
    "sharpness": (
        ("f_below_limit", 1, 0, (), lambda n, w: (sub(_F_LIMIT.value(w), _f(n, w), w),)),
        ("f_monotone", 1, 1, (), lambda n, w: (sub(_f(n + 1, w), _f(n, w), w),)),
    ),
    "epsilon": (("epsilon", 1, 0, (), lambda n, w: _inside(_epsilon(n, w), 0, 1, w)),),
    "refinement": tuple(
        ("refinement", 2, 0, (("outer", o),), partial(_nests, o)) for o in _REFINED_IDS
    ),
    "alt_tail": (
        ("x_decreasing", 1, 1, (), lambda n, w: (sub(_alt_x(n, w), _alt_x(n + 1, w), w),)),
    ),
}


def _per_n(stage: str, max_n: int, p: int) -> list[CheckRecord]:
    """The records of stage's rows, n by n: at each n, every row whose
    range holds n, in row order."""
    return [
        _certify(check, (("n", n), *params), partial(diffs, n), p)
        for n in range(1, max_n + 1)
        for check, first, short, params, diffs in _PER_N[stage]
        if first <= n <= max_n - short
    ]


# ---------------------------------------------------------------------------
# complete-monotonicity spot checks
# ---------------------------------------------------------------------------

def cm_spotcheck(
    kind: str,
    order: int,
    grid: Sequence,
    depth: int,
    prec=DEFAULT_PRECISION,
) -> VerificationReport:
    """Finite-difference sign signature of the Stirling remainders."""
    pts = [Fraction(x) for x in _grid(grid)]
    if len(pts) < 8:
        raise ValueError("grid must have at least 8 points")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be strictly increasing")
    if pts[0] <= 0:
        raise ValueError("grid points must be positive")
    steps = {b - a for a, b in zip(pts, pts[1:])}
    if len(steps) != 1:
        raise ValueError("grid must be equally spaced")
    specfun.check_index(order, None, "order")
    if not 0 <= specfun.check_index(depth, None, "depth") <= 6:
        raise ValueError("depth must be between 0 and 6")
    if len(pts) <= depth:
        raise ValueError("grid too short for the requested depth")

    p = bits_of(prec)
    rep = VerificationReport()

    # local to the call: it reads specfun.stirling_tail as it is now
    @lru_cache(maxsize=8)
    def values(ww: int) -> tuple[Ball, ...]:
        return tuple(specfun.stirling_tail(kind, order, x, ww) for x in pts)

    for j in range(depth + 1):
        def signed(ww: int, j=j) -> Sequence[Ball]:
            # every element of (-1)^j times the j-th difference must be > 0
            seq = values(ww)
            for _ in range(j):
                seq = [sub(b, a, ww) for a, b in zip(seq, seq[1:])]
            return [neg(v) for v in seq] if j % 2 == 1 else seq

        params = (("kind", kind), ("order", order), ("depth", j))
        rep.append(_certify("cm_sign", params, signed, p))
    return rep


# ---------------------------------------------------------------------------
# equality witnesses
# ---------------------------------------------------------------------------

def _symbolic_identities() -> list[tuple[str, bool]]:
    """Each declared equality case reduced to rational-function algebra."""
    g = PolyFraction.symbol()

    out = []
    # quadratic-window lower endpoint at n = 1 collapses to (1 - 2 g)/2
    lhs = -1 / (12 + 2 * (7 - 12 * g) / (2 * g - 1))
    out.append(("main", lhs == (1 - 2 * g) / 2))

    # shifted-reciprocal lower endpoint at n = 1 collapses to 1 - g
    lhs = 1 / (2 + (1 / (1 - g) - 2))
    out.append(("toth_sharp", lhs == 1 - g))

    # same algebra with the symbol standing for ln 2
    ln2 = PolyFraction.symbol()
    lhs = 1 / (2 + (1 / (1 - ln2) - 2))
    out.append(("alt_tail", lhs == 1 - ln2))

    # with s = sqrt(6(1 - g - ln(3/2))), the lower endpoint at n = 1 is s^2/6,
    # which is the target by the definition of s
    s = PolyFraction.symbol()
    lhs = 1 / (24 * (1 / (2 * s)) * (1 / (2 * s)))
    out.append(("chen", lhs == s * s / 6))

    # with L = ln(sqrt(e) - 1), the n = 1 lower endpoint is (1 + L) - L = 1 = H(1)
    big_l = PolyFraction.symbol()
    out.append(("batir", (1 + big_l) - big_l == PolyFraction.const(1)))

    # ln(e^(1-g)) = 1 - g reduces the n = 1 upper endpoint to (1 - g) + g = 1
    out.append(("qi_guo_family", (1 - g) + g == PolyFraction.const(1)))

    # H(1) - ln 1 = 1 and 1 + ln(1)/2 = 1 are exact facts since ln 1 = 0
    ln1 = Fraction(0)
    out.append(("klamkin", specfun.harmonic_exact(1) - ln1 == 1))
    out.append(("odd", specfun.odd_harmonic_exact(1) == 1 + ln1 / 2))
    return out


def equality_witnesses(prec=DEFAULT_PRECISION) -> VerificationReport:
    """Algebraic plus numeric certification of every declared equality case."""
    p = bits_of(prec)
    rep = VerificationReport()
    for bound_id, ok in _symbolic_identities():
        rep.append(CheckRecord(
            check="identity", params=(("bound", bound_id),),
            verdict=Verdict.PASS if ok else Verdict.FAIL,
            margin=None, precision_bits=0,
        ))
    for spec in catalog():
        for side, points in (("lower", spec.lower_equalities), ("upper", spec.upper_equalities)):
            for n in sorted(points):
                chk = check_bound(spec.bound_id, n, p)
                rep.append(CheckRecord(
                    check="equality_numeric",
                    params=(("bound", spec.bound_id), ("side", side), ("n", n)),
                    verdict=Verdict.PASS if chk.verdict is Verdict.EQUALITY else Verdict.FAIL,
                    margin=chk.margin, precision_bits=chk.precision_bits,
                ))
    return rep


# ---------------------------------------------------------------------------
# the full sweep
# ---------------------------------------------------------------------------

# the fewest n a claim of the fanned-out sweep takes while as many are left
_CLAIM_FLOOR = 4


def _claims(max_n: int, jobs: int) -> list[tuple[int, int]]:
    """Every claim [lo, hi) of the fanned-out sweep of [1, max_n], in order.
    Each takes about a 1/(2 jobs) share of the n left, at least
    _CLAIM_FLOOR, so the claims shrink toward the end and no job idles long
    waiting for another (guided self-scheduling).  A size depends only on
    how many n are left, so the whole schedule is known before any job
    starts."""
    claims, lo = [], 1
    while lo <= max_n:
        left = max_n + 1 - lo
        hi = lo + min(left, max(_CLAIM_FLOOR, left // (2 * jobs)))
        claims.append((lo, hi))
        lo = hi
    return claims


# each bound's spec with its ("id", bound_id) param, in bound_ids() order
_BOUND_PARAMS = tuple((spec, _param("id", spec.bound_id)) for spec in catalog())


def _bounds_chunk(args: tuple[int, int, int]) -> list[CheckRecord]:
    """The catalog at every n in [n_lo, n_hi): per n, one record per id, in
    bound_ids() order.  Each is check_bound(id, n, p).record(), built from
    the first rung's margin with no BoundCheck, and climbed from that rung
    only while it leaves the claim open."""
    n_lo, n_hi, p = args
    records = []
    for n in range(n_lo, n_hi):
        at_n = _param("n", n)
        for spec, of_id in _BOUND_PARAMS:
            verdict, sides, _ = rung = _check_rung(spec, n, p)
            w = p
            if verdict is None:
                verdict, sides, w = climb(partial(_check_rung, spec, n), p, rung)
            records.append(CheckRecord("bound", (of_id, at_n), verdict or Verdict.UNDECIDED, sides[0], w))
    return records


def _in_catalog_order(parts: list[list]) -> list:
    """The entries of n-chunks in n order, each holding per n one entry per
    bound id in bound_ids() order, as one list in catalog order, then by n:
    id k's entries of a chunk are part[k::len(bound_ids())]."""
    ids = len(bound_ids())
    return [x for k in range(ids) for part in parts for x in part[k::ids]]


def _render(records: list[CheckRecord]) -> list[str]:
    return [r._json_text() for r in records]


# a verdict's code in the columns a child sends, and the verdict of each code
_VERDICTS = tuple(Verdict)
_VERDICT_CODES = {v: i for i, v in enumerate(_VERDICTS)}


def _columns(records: list[CheckRecord]) -> tuple[list, ...]:
    """records as flat columns of strs, ints and params, which pickle with
    no class and no reduce call per record: checks, params, verdict codes,
    precisions, and each margin's man, exp and r, all three None where a
    record has no margin."""
    margins = [r.margin for r in records]
    return (
        [r.check for r in records],
        [r.params for r in records],
        [_VERDICT_CODES[r.verdict] for r in records],
        [r.precision_bits for r in records],
        [None if m is None else m.man for m in margins],
        [None if m is None else m.exp for m in margins],
        [None if m is None else m.r for m in margins],
    )


def _from_columns(
    checks: list, params: list, codes: list, precisions: list, mans: list, exps: list, rs: list,
) -> list[CheckRecord]:
    """The records that _columns made these columns of."""
    return [
        CheckRecord(c, q, _VERDICTS[v], None if m is None else _ball(m, e, r), w)
        for c, q, v, w, m, e, r in zip(checks, params, codes, precisions, mans, exps, rs)
    ]


def _fan_out(
    max_n: int, p: int, children: int, meanwhile: Callable[[], list[CheckRecord]],
) -> tuple[list[CheckRecord], list[str]]:
    """The bound records at every n in [1, max_n], in catalog order, then by
    n, followed by those of meanwhile(), and each record's _json_text().

    Before it forks, writes every claim of _claims(max_n, jobs) as a 16-byte
    record to one unlinked temporary file, the queue, and flushes it.  Then
    forks `children` children, which sweep at once; the parent runs
    meanwhile() and renders its records, then sweeps too.  Each job takes
    its next claim with one os.read of 16 bytes at the file offset that all
    jobs share across the fork, until the queue is empty.  No lock is
    needed: POSIX (XSH 2.9.7) makes read() on a regular file atomic,
    offset update included, and Linux enforces this for an offset shared
    between processes with the open file's f_pos_lock, so no two jobs read
    the same claim.  A child that dies holds nothing another job waits on.

    Each job renders the texts of the records it makes.  Each child
    appends each claim's first n, its records as columns (_columns, so that
    no record, ball or verdict object is pickled) and their texts, pickled,
    to its own unlinked temporary file (a pipe would fill and block it
    while the parent runs meanwhile()); on an exception it appends that
    instead, and it leaves through os._exit, never into the caller's
    stack.  After its own sweep the parent reaps each child and reads its
    file once from the start, rebuilding the records (_from_columns): a
    child's exception is raised again, and any other failed exit raises an
    error naming it.  On any error in the parent, every child not yet
    reaped is killed and reaped before the error leaves.  The parts are
    kept by their first n and put back together in the order of the
    claims.
    """
    # imported here, not at the top: only the fan-out uses them, and every
    # single-process run would otherwise pay for them at start-up
    import pickle
    import signal
    import struct
    import tempfile

    claim = struct.Struct("qq")

    def spans() -> Iterator[tuple[int, int]]:
        """This job's claims, each taken from the queue by one read."""
        while data := os.read(queue.fileno(), claim.size):
            yield claim.unpack(data)

    def sweep(span: tuple[int, int]) -> tuple[list[CheckRecord], list[str]]:
        records = _bounds_chunk((*span, p))
        return records, _render(records)

    def child(out: IO[bytes]) -> NoReturn:
        code = 1
        try:
            try:
                for span in spans():
                    records, texts = sweep(span)
                    pickle.dump((span[0], _columns(records), texts), out)
                out.flush()
                code = 0
            except BaseException as exc:  # the parent raises it again
                pickle.dump(exc, out)
                out.flush()
        finally:
            os._exit(code)

    def gather(out: IO[bytes]) -> BaseException | None:
        """Keep the entries of a reaped child's file, read from the start;
        its exception, if that is what it wrote."""
        out.seek(0)
        while out.peek(1):
            entry = pickle.load(out)
            if isinstance(entry, BaseException):
                return entry
            lo, columns, texts = entry
            parts[lo] = _from_columns(*columns), texts
        return None

    claims = _claims(max_n, children + 1)
    parts: dict[int, tuple[list[CheckRecord], list[str]]] = {}  # by first n
    outs: list[IO[bytes]] = []
    pids: dict[int, IO[bytes]] = {}  # the children not yet reaped, with their files
    with tempfile.TemporaryFile() as queue:
        queue.write(b"".join(claim.pack(*span) for span in claims))
        queue.flush()
        queue.seek(0)
        try:
            for _ in range(children):
                outs.append(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    child(outs[-1])
                pids[pid] = outs[-1]
            rest = meanwhile()
            rest_texts = _render(rest)
            for span in spans():
                parts[span[0]] = sweep(span)
            for pid, out in list(pids.items()):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del pids[pid]
                try:
                    exc = gather(out)
                except Exception:  # cut short: the child died while writing
                    if code == 0:
                        raise
                    exc = None
                if exc is not None:
                    raise exc
                if code != 0:
                    how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    raise RuntimeError(f"a bound sweep worker {how}")
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
            for out in outs:
                out.close()
    if len(parts) != len(claims):
        raise RuntimeError("the bound sweep lost an n-chunk")
    chunks = [parts[lo] for lo, _ in claims]
    records = _in_catalog_order([r for r, _ in chunks]) + rest
    return records, _in_catalog_order([t for _, t in chunks]) + rest_texts


def _sweep_bounds(
    max_n: int, p: int, jobs: int, meanwhile: Callable[[], list[CheckRecord]],
) -> tuple[list[CheckRecord], list[str]]:
    """The catalog at every n in [1, max_n], in catalog order, then by n,
    followed by the records of meanwhile(), and the records' job-made
    texts: one per record when the sweep fans out, else none.

    With jobs capped at one per core, the sweep fans out (_fan_out) to
    jobs - 1 forked children and the parent, which runs meanwhile() first,
    when that leaves at least one child, max_n is at least 4 per job and
    fork exists.  Otherwise it runs in this process as one chunk, and
    meanwhile() runs after; the texts are then left to the report.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and max_n >= 4 * jobs and hasattr(os, "fork"):
        return _fan_out(max_n, p, jobs - 1, meanwhile)
    return _in_catalog_order([_bounds_chunk((1, max_n + 1, p))]) + meanwhile(), []


# every stage of verify_all, in report order: stage(max_n, p) -> records,
# except the bound sweep, which verify_all calls as
# stage(max_n, p, jobs, meanwhile) with the other selected stages as
# meanwhile, and which returns (records, texts)
_STAGES: dict[str, Callable[..., list[CheckRecord]]] = {
    "bounds": _sweep_bounds,
    "sharpness": lambda max_n, p: sharpness_main(max_n, p).records,
    "g_positivity": lambda max_n, p: g_positivity(None, p).records,
    "epsilon": lambda max_n, p: epsilon_window(max_n, p).records,
    "refinement": lambda max_n, p: refinement_check(max_n, p).records,
    "alt_tail": lambda max_n, p: alt_tail_constants(max_n, p).records,
    "cm": lambda max_n, p: [
        r for kind, order in (("F", 2), ("G", 1))
        for r in cm_spotcheck(kind, order, range(1, 21), 4, p).records
    ],
    "equality": lambda max_n, p: equality_witnesses(p).records,
}

CHECK_NAMES: tuple[str, ...] = tuple(_STAGES)


def verify_all(
    max_n: int,
    prec=DEFAULT_PRECISION,
    checks: Iterable[str] | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run the selected stages of _STAGES, each once and in its order.

    Results are deterministic for fixed arguments regardless of jobs: only
    the bound sweep fans out, to jobs - 1 forked children and the parent,
    and it reassembles in catalog order; the parent runs every other
    stage, in order, while the children sweep, and then joins them.  When
    it fans out, the returned report carries each record's text as the
    job that made it rendered it, and writes its JSON from those.
    """
    specfun.check_index(max_n, 3, "max_n")
    specfun.check_index(jobs, 1, "jobs")
    if isinstance(checks, str):
        raise TypeError(f"checks must be a collection of check names, not the str {checks!r}")
    selected = tuple(checks) if checks is not None else CHECK_NAMES
    if not selected:
        raise ValueError("checks must name at least one check")
    unknown = [c for c in selected if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
    p = bits_of(prec)

    def serial() -> list[CheckRecord]:
        return [
            r for name, stage in _STAGES.items() if name != "bounds" and name in selected
            for r in stage(max_n, p)
        ]

    if "bounds" not in selected:
        return VerificationReport(serial())
    records, texts = _STAGES["bounds"](max_n, p, jobs, serial)
    return VerificationReport(records)._with_texts(texts)
