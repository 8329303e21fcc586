"""Catalog of two-sided harmonic-number bounds with certified checking.

Each catalog entry pins down, for a stated target quantity and every
n >= 1, a lower and an upper side and the set of n where a side is
attained exactly.  A side is a family of expressions in n taken at one
constant (Side), and where the catalog declares that constant best
possible, the decimal window it lies in; BoundSpec.sharp_constants lists
those.  The families, with the entries that take them:
  1/(2n + a)               franel and young (upper), young (lower),
                             toth, toth_sharp, alt_tail
  1/(24 (n + a)^2)         detemple, chen
  -1/(12 n^2 + A)          main
  c - ln(e^(1/(n+1)) - 1)  batir
  c - g                    klamkin
  ln(n + c) + g            qi_guo_family
A rational constant p/q is evaluated as one fraction of integers, rounded
once; any other is a ball-valued function of the precision.  odd's sides
and franel's lower side declare no constant and are plain functions.

Checking a bound at some n encloses lower, target and upper,
and every verdict is the sign of a certified difference ball: judge()
decides the claim that target - lower and upper - target are both > 0,
returning fail when one is certainly negative and pass when both are
certainly positive.  While one straddles zero the check climbs the
precision ladder (ball.climb), which doubles the precision and stops,
undecided, at the cap or once a doubling fails to at least halve that
difference's radius.

At a declared equality point the difference may instead straddle zero
with radius below 10^-30, which judge() reports as equality; the
closed-form reasons for those equalities are verified separately (see
verify.equality_witnesses).

Targets, and how each is evaluated from gap(n) = ln n + 1/(2n) - psi(n+1)
(specfun.psi_gap, a cancellation-free series whose cost does not grow with
n), so no exact partial sum is built:
  H                        H(n) = ln n + g + 1/(2n) - gap(n)
  H_minus_ln_gamma         H(n) - ln n - g = 1/(2n) - gap(n)
  H_minus_lnhalf_gamma     H(n) - ln(n + 1/2) - g
                             = 1/(2n) - gap(n) - ln(1 + 1/(2n))
  H_minus_ln_half_n_gamma  H(n) - ln n - 1/(2n) - g = -gap(n)
  odd_harmonic             1 + 1/3 + ... + 1/(2n-1) = H(2n) - H(n)/2
                             = ln 2 + (ln n + g)/2 - gap(2n) + gap(n)/2
  alternating_tail         |ln 2 - (1 - 1/2 + ... +- 1/n)|, see
                             specfun.alternating_tail
where g is the Euler--Mascheroni constant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, NamedTuple, Sequence, Union

from . import elementary, specfun
from .ball import (
    Ball,
    DEFAULT_PRECISION,
    add,
    bits_of,
    climb,
    mul,
    neg,
    recip,
    scale2,
    sub,
    _dyadic_cmp,
    _quotient,
)
from .report import CheckRecord, Verdict

__all__ = [
    "BoundSpec",
    "Side",
    "SharpConstant",
    "TargetValue",
    "BoundCheck",
    "TARGETS",
    "EQUALITY_RADIUS",
    "judge",
    "catalog",
    "catalog_map",
    "bound_ids",
    "target_value",
    "evaluate_bound",
    "check_bound",
]

# radius threshold for certifying a declared equality endpoint
EQUALITY_RADIUS = Fraction(1, 10**30)


def judge(
    diffs: Sequence[Ball], may_equal: Collection[int] = ()
) -> tuple[Verdict | None, Ball, Ball]:
    """Decide the claim that every certified difference in diffs is > 0.

    Returns (verdict, margin, deciding) in the form ball.climb expects.
    The verdict is fail when some difference is certainly negative, None
    (open) when some difference straddles zero, equality when the only
    ones straddling zero are declared equalities (indices in may_equal)
    of radius below EQUALITY_RADIUS, and pass otherwise.  On pass or
    equality the margin is the difference with the smallest midpoint;
    otherwise it is the first failing, else the first open, difference,
    which is also the deciding ball whose radius keeps the claim open.
    """
    lowest = diffs[0]
    open_ = None
    equal = False
    for i, d in enumerate(diffs):
        m, r = d.man, d.r
        if -m > r:  # certainly negative
            return Verdict.FAIL, d, d
        if d is not lowest and _dyadic_cmp(m, d.exp, lowest.man, lowest.exp) < 0:
            lowest = d
        if m > r:  # certainly positive
            continue
        if i in may_equal and d.rad_fraction() < EQUALITY_RADIUS:
            equal = True
        elif open_ is None:
            open_ = d
    if open_ is not None:
        return None, open_, open_
    return Verdict.EQUALITY if equal else Verdict.PASS, lowest, lowest


class TargetValue(NamedTuple):
    """A named quantity that bounds in the catalog enclose."""

    target_id: str
    description: str


TARGETS: dict[str, TargetValue] = {
    t.target_id: t
    for t in (
        TargetValue("H", "harmonic number H(n)"),
        TargetValue("H_minus_ln_gamma", "H(n) - ln n - gamma"),
        TargetValue("H_minus_lnhalf_gamma", "H(n) - ln(n + 1/2) - gamma"),
        TargetValue("H_minus_ln_half_n_gamma", "H(n) - ln n - 1/(2n) - gamma"),
        TargetValue("odd_harmonic", "sum of 1/(2k-1) for k = 1..n"),
        TargetValue("alternating_tail", "|ln 2 - alternating harmonic partial sum|"),
    )
}


class SharpConstant(NamedTuple):
    """A best-possible constant and the decimal window it must lie in."""

    name: str
    window_lo: Fraction
    window_hi: Fraction
    value: Callable[[int], Ball]


# A side's constant: a rational, or the function from a precision to its ball.
Const = Union[Fraction, Callable[[int], Ball]]


class BoundSpec(NamedTuple):
    """One two-sided bound at every n >= 1: target, sides, equality sets.

    Each side is a Side, except for the three with no constant to declare
    (odd's two, franel's lower), which are plain functions of (n, p).
    """

    bound_id: str
    description: str
    target: str
    lower: Callable[[int, int], Ball]
    upper: Callable[[int, int], Ball]
    lower_equalities: frozenset[int] = frozenset()
    upper_equalities: frozenset[int] = frozenset()
    notes: str = ""

    @property
    def sharp_constants(self) -> tuple[SharpConstant, ...]:
        """The sides' constants that the catalog declares best possible."""
        return tuple(
            SharpConstant(
                f"{slot}_{_CONST_NAMES[side.family]}",
                Fraction(side.window[0]), Fraction(side.window[1]), side.const_ball,
            )
            for slot, side in (("lower", self.lower), ("upper", self.upper))
            if isinstance(side, Side) and side.window
        )


class BoundCheck(NamedTuple):
    """Result of checking one bound at one n."""

    bound_id: str
    n: int
    verdict: Verdict
    lower: Ball
    target: Ball
    upper: Ball
    margin: Ball
    precision_bits: int
    equality_side: str = ""

    def verdict_label(self) -> str:
        if self.verdict is Verdict.EQUALITY and self.equality_side:
            return f"equality({self.equality_side})"
        return self.verdict.value

    def record(self) -> CheckRecord:
        """The report record of this check."""
        return CheckRecord(
            check="bound", params=(("id", self.bound_id), ("n", self.n)),
            verdict=self.verdict, margin=self.margin, precision_bits=self.precision_bits,
        )


# ---------------------------------------------------------------------------
# shared sub-expressions, cached per working precision
# ---------------------------------------------------------------------------

def _ln_int(n: int, w: int) -> Ball:
    return elementary.ln(Ball.from_int(n), w)


@lru_cache(maxsize=512)
def _ln_expm1_recip(np1: int, w: int) -> Ball:
    """ln(e^(1/np1) - 1), shared by both exponential-form bound sides.

    Summed as 1/(2 np1) - ln np1 plus specfun's convergent expm1 series, so
    it keeps its accuracy at every np1, where e^(1/np1) - 1 would cancel.
    """
    s = add(specfun._SERIES["expm1"].at(np1, 0, w), _half_recip(np1, w), w)
    return sub(s, _ln_int(np1, w), w)


@lru_cache(maxsize=64)
def _qi_guo_offset(w: int) -> Ball:
    # e^(1 - g) - 1
    e = elementary.exp(sub(Ball.from_int(1), specfun.euler_gamma(w), w), w)
    return sub(e, Ball.from_int(1), w)


@lru_cache(maxsize=64)
def _toth_sharp_shift(w: int) -> Ball:
    # 1/(1 - g) - 2
    inv = recip(sub(Ball.from_int(1), specfun.euler_gamma(w), w), w)
    return sub(inv, Ball.from_int(2), w)


@lru_cache(maxsize=64)
def _alt_tail_shift(w: int) -> Ball:
    # 1/(1 - ln 2) - 2
    inv = recip(sub(Ball.from_int(1), elementary.ln2_ball(w), w), w)
    return sub(inv, Ball.from_int(2), w)


@lru_cache(maxsize=64)
def _chen_shift(w: int) -> Ball:
    # 1/(2 sqrt(6 c)) - 1 with c = 1 - g - ln(3/2)
    c = sub(sub(Ball.from_int(1), specfun.euler_gamma(w), w), elementary.ln(Ball(3, -1), w), w)
    root = elementary.sqrt(mul(Ball.from_int(6), c, w), w)
    return sub(recip(scale2(root, 1), w), Ball.from_int(1), w)


@lru_cache(maxsize=64)
def _main_shift(w: int) -> Ball:
    # 2 (7 - 12 g) / (2 g - 1)
    g = specfun.euler_gamma(w)
    num = sub(Ball.from_int(7), mul(Ball.from_int(12), g, w), w)
    den = sub(scale2(g, 1), Ball.from_int(1), w)
    return mul(scale2(num, 1), recip(den, w), w)


@lru_cache(maxsize=64)
def _batir_const(w: int) -> Ball:
    # 1 + ln(e^(1/2) - 1)
    e_half = elementary.exp(Ball(1, -1), w)
    return add(Ball.from_int(1), elementary.ln(sub(e_half, Ball.from_int(1), w), w), w)


# ---------------------------------------------------------------------------
# target evaluation
# ---------------------------------------------------------------------------

def _ln1p_half_recip(n: int, w: int) -> Ball:
    return elementary.ln1p_recip(2 * n, w)


def _half_recip(n: int, w: int) -> Ball:
    return Ball.from_fraction(Fraction(1, 2 * n), w)


@lru_cache(maxsize=4)
def _frame_offset(target_id: str, n: int, w: int) -> Ball | None:
    """What a target adds to become H(n) - ln n - g, the frame its bounds
    compare in, or None for that frame itself.

    Defined for the targets that differ from that frame by a term free of
    ln n and g, so bounds on different targets compare without cancelling.
    Memoised for the few targets at one (n, w): detemple and chen share
    ln(1 + 1/(2n)).
    """
    if target_id == "H_minus_ln_gamma":
        return None
    if target_id == "H_minus_lnhalf_gamma":
        return _ln1p_half_recip(n, w)
    if target_id == "H_minus_ln_half_n_gamma":
        return _half_recip(n, w)
    raise KeyError(f"no frame offset for target: {target_id!r}")


@lru_cache(maxsize=256)
def _target_cached(target_id: str, n: int, w: int) -> Ball:
    if target_id == "alternating_tail":
        return specfun.alternating_tail(n, w)
    gap = specfun.psi_gap(n, w)
    if target_id == "H_minus_ln_half_n_gamma":
        return neg(gap)
    if target_id == "odd_harmonic":
        # H(2n) - H(n)/2: the 1/(4n) terms cancel
        s = add(elementary.ln2_ball(w), scale2(add(_ln_int(n, w), specfun.euler_gamma(w), w), -1), w)
        return add(sub(s, specfun.psi_gap(2 * n, w), w), scale2(gap, -1), w)
    d = sub(_half_recip(n, w), gap, w)  # H(n) - ln n - g
    if target_id == "H_minus_ln_gamma":
        return d
    if target_id == "H_minus_lnhalf_gamma":
        return sub(d, _ln1p_half_recip(n, w), w)
    if target_id == "H":
        return add(d, add(_ln_int(n, w), specfun.euler_gamma(w), w), w)
    raise KeyError(f"unknown target: {target_id!r}")


def target_value(target_id: str, n: int, prec=DEFAULT_PRECISION) -> Ball:
    """Certified enclosure of a catalog target at integer n >= 1."""
    if target_id not in TARGETS:
        raise KeyError(f"unknown target: {target_id!r}")
    return _target_cached(target_id, specfun.check_index(n), bits_of(prec))


# ---------------------------------------------------------------------------
# the twelve bounds: sides as families evaluated at their constants
# ---------------------------------------------------------------------------

def _const_ball(c: Const, p: int) -> Ball:
    return Ball.from_fraction(c, p) if isinstance(c, Fraction) else c(p)


def _recip_2n(n: int, a: Const, p: int) -> Ball:
    """1/(2n + a): Franel, Young, Toth and the alternating tail."""
    if isinstance(a, Fraction):
        q = a.denominator
        return _quotient(q, 2 * n * q + a.numerator, p)
    return recip(add(Ball.from_int(2 * n), a(p), p), p)


def _recip_24_square(n: int, a: Const, p: int) -> Ball:
    """1/(24 (n + a)^2): DeTemple and Chen."""
    if isinstance(a, Fraction):
        q = a.denominator
        return _quotient(q * q, 24 * (n * q + a.numerator) ** 2, p)
    s = add(Ball.from_int(n), a(p), p)
    return recip(mul(Ball.from_int(24), mul(s, s, p), p), p)


def _neg_recip_12_square(n: int, a: Const, p: int) -> Ball:
    """-1/(12 n^2 + A): the quadratic window of the main theorem."""
    if isinstance(a, Fraction):
        q = a.denominator
        return _quotient(-q, 12 * n * n * q + a.numerator, p)
    return neg(recip(add(Ball.from_int(12 * n * n), a(p), p), p))


def _minus_ln_expm1(n: int, c: Const, p: int) -> Ball:
    """c - ln(e^(1/(n+1)) - 1): Batir."""
    return sub(_const_ball(c, p), _ln_expm1_recip(n + 1, p), p)


def _minus_gamma(n: int, c: Const, p: int) -> Ball:
    """c - g, the same at every n: Klamkin."""
    return sub(_const_ball(c, p), specfun.euler_gamma(p), p)


def _ln_plus_gamma(n: int, c: Const, p: int) -> Ball:
    """ln(n + c) + g: Qi and Guo.  A rational c must be dyadic, so that
    n + c is an exact ball at every n."""
    if isinstance(c, Fraction):
        arg = Ball(n * c.denominator + c.numerator, 1 - c.denominator.bit_length())
    else:
        arg = add(Ball.from_int(n), c(p), p)
    return add(elementary.ln(arg, p), specfun.euler_gamma(p), p)


# what the catalog calls the constant of each family
_CONST_NAMES = {
    _recip_2n: "shift",
    _recip_24_square: "shift",
    _neg_recip_12_square: "shift",
    _minus_ln_expm1: "const",
    _ln_plus_gamma: "offset",
}


class Side(NamedTuple):
    """One side of a bound: a family of expressions in n taken at a constant,
    and the decimal window in which the catalog declares that constant best
    possible (None where it is not)."""

    family: Callable[[int, Const, int], Ball]
    const: Const
    window: tuple[str, str] | None = None

    def __call__(self, n: int, p: int) -> Ball:
        return self.family(n, self.const, p)

    def const_ball(self, p: int) -> Ball:
        return _const_ball(self.const, p)


def _franel_lower(n: int, p: int) -> Ball:
    return _quotient(4 * n - 1, 8 * n * n, p)


def _odd_lower(n: int, p: int) -> Ball:
    return scale2(_ln_int(2 * n + 1, p), -1)


def _odd_upper(n: int, p: int) -> Ball:
    return add(Ball.from_int(1), scale2(_ln_int(2 * n - 1, p), -1), p)


def _build_catalog() -> tuple[BoundSpec, ...]:
    third = Side(_recip_2n, Fraction(1, 3), ("0.3333", "0.3334"))
    specs = (
        BoundSpec(
            bound_id="franel",
            description="1/(2n) - 1/(8n^2) < H(n) - ln n - g < 1/(2n)",
            target="H_minus_ln_gamma",
            lower=_franel_lower,
            upper=Side(_recip_2n, Fraction(0)),
        ),
        BoundSpec(
            bound_id="klamkin",
            description="1/2 < H(n) - ln n < 1, recentred by g",
            target="H_minus_ln_gamma",
            lower=Side(_minus_gamma, Fraction(1, 2)),
            upper=Side(_minus_gamma, Fraction(1)),
            upper_equalities=frozenset({1}),
            notes=(
                "The classical statement is strict on both sides; the upper "
                "endpoint is attained at n = 1 (H(1) - ln 1 = 1), so this "
                "catalog encodes the upper side as non-strict there."
            ),
        ),
        BoundSpec(
            bound_id="odd",
            description="(1/2) ln(2n+1) < sum 1/(2k-1) <= 1 + (1/2) ln(2n-1)",
            target="odd_harmonic",
            lower=_odd_lower,
            upper=_odd_upper,
            upper_equalities=frozenset({1}),
            notes="Upper endpoint attained at n = 1 since ln 1 = 0.",
        ),
        BoundSpec(
            bound_id="young",
            description="1/(2(n+1)) < H(n) - ln n - g < 1/(2n)",
            target="H_minus_ln_gamma",
            lower=Side(_recip_2n, Fraction(2)),
            upper=Side(_recip_2n, Fraction(0)),
        ),
        BoundSpec(
            bound_id="detemple",
            description="1/(24(n+1)^2) < H(n) - ln(n+1/2) - g < 1/(24 n^2)",
            target="H_minus_lnhalf_gamma",
            lower=Side(_recip_24_square, Fraction(1)),
            upper=Side(_recip_24_square, Fraction(0)),
        ),
        BoundSpec(
            bound_id="toth",
            description="1/(2n + 2/5) < H(n) - ln n - g < 1/(2n + 1/3)",
            target="H_minus_ln_gamma",
            lower=Side(_recip_2n, Fraction(2, 5)),
            upper=third,
            notes="The upper shift 1/3 is best possible; 2/5 is not.",
        ),
        BoundSpec(
            bound_id="toth_sharp",
            description="1/(2n + a) <= H(n) - ln n - g < 1/(2n + 1/3), a = 1/(1-g) - 2",
            target="H_minus_ln_gamma",
            lower=Side(_recip_2n, _toth_sharp_shift, ("0.3652", "0.3653")),
            upper=third,
            lower_equalities=frozenset({1}),
            notes="Lower shift tuned so the bound is exact at n = 1.",
        ),
        BoundSpec(
            bound_id="alt_tail",
            description="1/(2n + a) <= |ln 2 - S_n| < 1/(2n + 1), a = 1/(1-ln 2) - 2",
            target="alternating_tail",
            lower=Side(_recip_2n, _alt_tail_shift, ("1.2588", "1.2590")),
            upper=Side(_recip_2n, Fraction(1), ("1", "1")),
            lower_equalities=frozenset({1}),
            notes="Both shifts best possible; the lower one is exact at n = 1.",
        ),
        BoundSpec(
            bound_id="batir",
            description="1 + ln(sqrt(e) - 1) - ln(e^(1/(n+1)) - 1) <= H(n) < g - ln(e^(1/(n+1)) - 1)",
            target="H",
            lower=Side(_minus_ln_expm1, _batir_const, ("0.5672", "0.5673")),
            upper=Side(_minus_ln_expm1, specfun.euler_gamma, ("0.5772", "0.5773")),
            lower_equalities=frozenset({1}),
            notes="At n = 1 the two logarithms coincide and the lower side gives H(1) = 1 exactly.",
        ),
        BoundSpec(
            bound_id="qi_guo_family",
            description="ln(n + 1/2) + g < H(n) <= ln(n + e^(1-g) - 1) + g",
            target="H",
            lower=Side(_ln_plus_gamma, Fraction(1, 2), ("0.5", "0.5")),
            upper=Side(_ln_plus_gamma, _qi_guo_offset, ("0.5262", "0.5263")),
            upper_equalities=frozenset({1}),
            notes="Offsets 1/2 and e^(1-g) - 1 are both best possible.",
        ),
        BoundSpec(
            bound_id="chen",
            description="1/(24(n+a)^2) <= H(n) - ln(n+1/2) - g < 1/(24(n+1/2)^2), a = 1/(2 sqrt(6(1-g-ln(3/2)))) - 1",
            target="H_minus_lnhalf_gamma",
            lower=Side(_recip_24_square, _chen_shift, ("0.5510", "0.5511")),
            upper=Side(_recip_24_square, Fraction(1, 2), ("0.5", "0.5")),
            lower_equalities=frozenset({1}),
            notes="Shift a chosen so the lower side is exact at n = 1; 1/2 is the limiting shift.",
        ),
        BoundSpec(
            bound_id="main",
            description="-1/(12n^2 + A) <= H(n) - ln n - 1/(2n) - g < -1/(12n^2 + 6/5), A = 2(7-12g)/(2g-1)",
            target="H_minus_ln_half_n_gamma",
            lower=Side(_neg_recip_12_square, _main_shift, ("0.9507", "0.9508")),
            upper=Side(_neg_recip_12_square, Fraction(6, 5), ("1.2", "1.2")),
            lower_equalities=frozenset({1}),
            notes=(
                "Quadratic-denominator window; A makes the lower side exact at "
                "n = 1 and 6/5 is the limit value, so both constants are best "
                "possible."
            ),
        ),
    )
    return specs


_CATALOG: tuple[BoundSpec, ...] = _build_catalog()
_CATALOG_MAP = {s.bound_id: s for s in _CATALOG}


def catalog() -> tuple[BoundSpec, ...]:
    """All bounds in stable order."""
    return _CATALOG


def catalog_map() -> dict[str, BoundSpec]:
    return dict(_CATALOG_MAP)


def bound_ids() -> tuple[str, ...]:
    return tuple(s.bound_id for s in _CATALOG)


def _spec_at(bound_id: str, n: int) -> BoundSpec:
    """The bound's spec, once n is an index (specfun.check_index)."""
    spec = _CATALOG_MAP.get(bound_id)
    if spec is None:
        raise KeyError(f"unknown bound: {bound_id!r}")
    specfun.check_index(n)
    return spec


def evaluate_bound(bound_id: str, n: int, prec=DEFAULT_PRECISION) -> tuple[Ball, Ball]:
    """Enclosures of the lower and upper expressions of a bound at n."""
    spec = _spec_at(bound_id, n)
    p = bits_of(prec)
    return spec.lower(n, p), spec.upper(n, p)


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

_SIDES = ("lower", "upper")


def _check_rung(spec: BoundSpec, n: int, p: int) -> tuple[Verdict | None, BoundCheck, Ball]:
    """One rung of check_bound's ladder: judge() of target - lower and
    upper - target, as (verdict or None, the check at p bits, deciding)."""
    t = _target_cached(spec.target, n, p)
    lo = spec.lower(n, p)
    hi = spec.upper(n, p)
    diffs = (sub(t, lo, p), sub(hi, t, p))
    declared = ()
    if n in spec.lower_equalities or n in spec.upper_equalities:
        declared = [i for i, eq in enumerate((spec.lower_equalities, spec.upper_equalities)) if n in eq]
    verdict, margin, deciding = judge(diffs, declared)
    equal = ""
    if verdict is Verdict.EQUALITY:
        equal = ",".join(_SIDES[i] for i in declared if not diffs[i].is_positive())
    chk = BoundCheck(
        bound_id=spec.bound_id,
        n=n,
        verdict=verdict or Verdict.UNDECIDED,
        lower=lo,
        target=t,
        upper=hi,
        margin=margin,
        precision_bits=p,
        equality_side=equal,
    )
    return verdict, chk, deciding


def check_bound(bound_id: str, n: int, prec=DEFAULT_PRECISION) -> BoundCheck:
    """Check one bound at one n, climbing the precision ladder until decided."""
    spec = _spec_at(bound_id, n)
    _, chk, _ = climb(lambda w: _check_rung(spec, n, w), bits_of(prec))
    return chk
