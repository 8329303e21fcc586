"""Midpoint-radius interval ("ball") arithmetic over dyadic rationals.

A ball (man, exp, r) represents the closed interval
[(man - r)*2^exp, (man + r)*2^exp]: the midpoint mantissa man is an
arbitrary-precision integer and the radius r >= 0 counts units in the last
place of the midpoint, as in F. Johansson, "Arb: efficient arbitrary-
precision midpoint-radius interval arithmetic".  The radius is
deliberately *not* a machine float: at working precisions of a few
thousand bits a float radius would underflow to zero below 2^-1074 and
silently destroy soundness.

Rounding at p bits is one shift: the midpoint keeps at most p + 1 bits,
rounded to nearest, and the radius plus the rounding error is divided by
the same power of two, rounding up.  A wide ball, whose radius is about as
long as its midpoint, is given a shorter midpoint instead, so that after
every rounding r is at most 2^64 + 1.

A ball is built once, by _ball, which fills its three slots through the
slots' own setters; afterwards every write or delete raises.

Every operation returns a ball whose interval contains the exact image of
the input intervals.  No infinities or NaNs exist in this model — out-of-
domain inputs raise instead.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "Ball",
    "Order",
    "Precision",
    "DomainError",
    "EnclosureError",
    "RangeError",
    "DEFAULT_PRECISION",
    "MAX_PRECISION",
    "MIN_PRECISION",
    "bits_of",
    "climb",
    "add",
    "sub",
    "neg",
    "abs_ball",
    "mul",
    "div",
    "recip",
    "scale2",
    "hull",
    "round_ball",
    "add_rad_fraction",
    "compare",
    "dyadic_decimal",
    "radius_decimal",
    "enclosure_str",
]


class DomainError(ValueError):
    """Input lies (partly) outside the mathematical domain of an operation."""


class EnclosureError(ArithmeticError):
    """An enclosure is too wide to carry out the requested operation soundly."""


class RangeError(OverflowError):
    """A result magnitude exceeds what this representation will model."""


MIN_PRECISION = 53
DEFAULT_PRECISION = 128
MAX_PRECISION = 4096

# Callers pass a precision in [MIN_PRECISION, MAX_PRECISION] (bits_of).  The
# ball arithmetic and elementary run at that precision plus guard bits, up to
# this ceiling (_bits).  The deepest chain of guard bits above a caller's
# precision is stirling_tail's: +32, then +16 at its lgamma point, then +8
# for pi in ln(2 pi), +56 at most, well under +512.
_INTERNAL_CEILING = MAX_PRECISION + 512

# A rounding keeps r at most 2^_RADIUS_BITS + 1, shortening the midpoint of
# a wide ball instead of carrying a long radius.
_RADIUS_BITS = 64

# An addend more than (precision + this) bits below the other one is
# absorbed into the radius instead of materialising huge shifted integers.
_ALIGN_SLACK = 64


class Precision(NamedTuple("Precision", [("bits", int)])):
    """A caller's precision in bits for ball midpoints.

    The floor of 53 bits keeps every certified quantity at least as sharp
    as a double; callers normally pass plain ints and only construct this
    when they want the validation.  An immutable named tuple, checked on
    construction and again on unpickling.
    """

    __slots__ = ()

    def __new__(cls, bits: int = DEFAULT_PRECISION):
        return super().__new__(cls, _checked(bits, MAX_PRECISION))


def _checked(bits, top: int) -> int:
    """bits, an int in [MIN_PRECISION, top]: the one range check."""
    if isinstance(bits, bool) or not isinstance(bits, int):
        raise TypeError(f"precision must be an int or Precision, got {type(bits).__name__}")
    if not MIN_PRECISION <= bits <= top:
        raise ValueError(f"precision must be in [{MIN_PRECISION}, {top}] bits, got {bits}")
    return bits


def bits_of(prec) -> int:
    """A caller's precision, an int or a Precision, as bits in
    [MIN_PRECISION, MAX_PRECISION], the range of Precision and the CLI."""
    return _bits(prec, MAX_PRECISION)


def _bits(prec, top: int = _INTERNAL_CEILING) -> int:
    """Working bits for the ball arithmetic and elementary: a caller's
    precision plus guard bits, an int or a Precision, up to top."""
    if type(prec) is int and MIN_PRECISION <= prec <= top:
        return prec
    if isinstance(prec, Precision):
        return prec.bits
    return _checked(prec, top)


def climb(step, w0: int, first=None):
    """The precision ladder: run step(w) for w = w0, 2 w0, ... up to
    MAX_PRECISION, where w0 is a caller's precision.

    step(w) returns (decision, value, deciding), where decision is None
    while the question is still open and `deciding` is the ball whose
    radius keeps it open.  Returns (decision, value, w) from the first rung
    that decides.  The ladder gives up, returning decision None, at the cap
    or as soon as doubling w did not at least halve the deciding radius:
    the inputs' own width then sets that radius, and no higher rung helps.
    A caller that has already run step(w0) passes its result as `first`,
    and the ladder goes on from there without running it again.
    """
    w = w0
    prev = None
    decision, value, deciding = step(w) if first is None else first
    while True:
        if decision is not None:
            return decision, value, w
        if w >= MAX_PRECISION or (
            prev is not None and _dyadic_cmp(deciding.r, deciding.exp + 1, prev.r, prev.exp) > 0
        ):
            return None, value, w
        prev = deciding
        w = min(2 * w, MAX_PRECISION)
        decision, value, deciding = step(w)


class Order(Enum):
    """Outcome of comparing two balls as sets of reals."""

    CERTAINLY_LESS = "certainly_less"
    CERTAINLY_GREATER = "certainly_greater"
    OVERLAPPING = "overlapping"


def _dyadic_cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """Exact three-way comparison of m1*2^e1 and m2*2^e2 without huge shifts."""
    if m1 == 0 or m2 == 0 or (m1 > 0) != (m2 > 0):
        s1 = (m1 > 0) - (m1 < 0)
        s2 = (m2 > 0) - (m2 < 0)
        return (s1 > s2) - (s1 < s2)
    sign = 1 if m1 > 0 else -1
    h1 = abs(m1).bit_length() + e1
    h2 = abs(m2).bit_length() + e2
    if h1 != h2:
        return sign if h1 > h2 else -sign
    # Same binary magnitude; exponent gap equals mantissa-length gap, small.
    e0 = min(e1, e2)
    a = m1 << (e1 - e0)
    b = m2 << (e2 - e0)
    return (a > b) - (a < b)


class Ball:
    """Closed interval [(man - r)*2^exp, (man + r)*2^exp], with r >= 0."""

    __slots__ = ("man", "exp", "r")

    def __new__(cls, man: int, exp: int, rman: int = 0, rexp: int = 0):
        """The ball man*2^exp +/- rman*2^rexp, held exactly: the midpoint's
        exponent drops to rexp when the radius is the finer of the two."""
        if rman < 0:
            raise ValueError("radius mantissa must be nonnegative")
        if not rman:
            return _ball(man, exp if man else 0, 0)
        if not man:
            return _ball(0, rexp, rman)
        if rexp < exp:
            return _ball(man << (exp - rexp), rexp, rman)
        return _ball(man, exp, rman << (rexp - exp))

    def __setattr__(self, name, value):
        raise AttributeError("Ball is immutable")

    def __delattr__(self, name):
        raise AttributeError("Ball is immutable")

    def __reduce__(self):
        return (Ball, (self.man, self.exp, self.r, self.exp))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, value: int) -> "Ball":
        return _ball(value, 0, 0)

    @classmethod
    def exact_dyadic(cls, man: int, exp: int) -> "Ball":
        return cls(man, exp)

    @classmethod
    def from_fraction(cls, value, prec) -> "Ball":
        """Enclose an int or Fraction; radius is at most one ulp at `prec`."""
        p = _bits(prec)
        if isinstance(value, int):
            return _make(value, 0, 0, p)
        if not isinstance(value, Fraction):
            raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
        return _quotient(value.numerator, value.denominator, p)

    # -- views ---------------------------------------------------------------

    @property
    def rman(self) -> int:
        """The radius is rman*2^rexp."""
        return self.r

    @property
    def rexp(self) -> int:
        return self.exp if self.r else 0

    @property
    def is_exact(self) -> bool:
        return self.r == 0

    def mid_fraction(self) -> Fraction:
        return _dyadic_fraction(self.man, self.exp)

    def rad_fraction(self) -> Fraction:
        return _dyadic_fraction(self.r, self.exp)

    def lower(self) -> Fraction:
        """Exact lower endpoint."""
        return _dyadic_fraction(self.man - self.r, self.exp)

    def upper(self) -> Fraction:
        """Exact upper endpoint."""
        return _dyadic_fraction(self.man + self.r, self.exp)

    def contains(self, value) -> bool:
        """Exact membership test for an int or Fraction."""
        v = Fraction(value)
        return self.lower() <= v <= self.upper()

    def contains_zero(self) -> bool:
        return abs(self.man) <= self.r

    def is_positive(self) -> bool:
        """True when every point of the ball is > 0."""
        return self.man > self.r

    def is_negative(self) -> bool:
        """True when every point of the ball is < 0."""
        return -self.man > self.r

    def sign_definite(self) -> bool:
        return self.is_positive() or self.is_negative()

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Ball({enclosure_str(self, 12)})"

    def __eq__(self, other) -> bool:
        """Structural identity (same midpoint and radius), not set equality."""
        if not isinstance(other, Ball):
            return NotImplemented
        return (
            _dyadic_cmp(self.man, self.exp, other.man, other.exp) == 0
            and _dyadic_cmp(self.r, self.exp, other.r, other.exp) == 0
        )

    def __hash__(self):
        return hash((self.mid_fraction(), self.rad_fraction()))


_new_ball = object.__new__
# The slots' own setters, bound once: _ball fills a new ball through them,
# and Ball.__setattr__ and __delattr__ refuse every later write.
_set_man = Ball.__dict__["man"].__set__
_set_exp = Ball.__dict__["exp"].__set__
_set_r = Ball.__dict__["r"].__set__


def _ball(man: int, exp: int, r: int) -> Ball:
    b = _new_ball(Ball)
    _set_man(b, man)
    _set_exp(b, exp)
    _set_r(b, r)
    return b


def _dyadic_fraction(m: int, e: int) -> Fraction:
    if e >= 0:
        return Fraction(m << e, 1)
    return Fraction(m, 1 << -e)


def _quotient(num: int, den: int, p: int) -> Ball:
    """Enclose num/den, den > 0 and not necessarily coprime to num, with a
    radius of at most one ulp at p bits: one division, no gcd."""
    if num == 0:
        return _ball(0, 0, 0)
    if den & (den - 1) == 0:  # already dyadic
        return _make(num, 1 - den.bit_length(), 0, p)
    sign = 1 if num > 0 else -1
    a = abs(num)
    shift = p + 1 + den.bit_length() - a.bit_length()
    if shift < 0:
        shift = 0
    q, r = divmod(a << shift, den)
    if r == 0:
        return _make(sign * q, -shift, 0, p)
    # true value in (q, q+1) * 2^-shift: centre on the half-integer
    return _make(sign * (2 * q + 1), -shift - 1, 1, p)


def _make(man: int, exp: int, r: int, prec: int) -> Ball:
    """Round (man, exp, r) to at most prec + 1 midpoint bits and a radius of
    at most 2^_RADIUS_BITS + 1, by one shift s: the midpoint to nearest,
    and the radius plus the midpoint's rounding error upward."""
    s = man.bit_length() - prec - 1
    if r.bit_length() - _RADIUS_BITS > s:
        s = r.bit_length() - _RADIUS_BITS
    if s <= 0:
        return _ball(man, exp if man or r else 0, r)
    q = (man + (1 << (s - 1))) >> s
    r = (r + abs(man - (q << s)) + (1 << s) - 1) >> s
    if q.bit_length() > prec + 1:  # rounded up to 2^(prec+1)
        return _ball(q >> 1, exp + s + 1, (r + 1) >> 1)
    return _ball(q, exp + s, r)


def _endpoints_scaled(b: Ball) -> tuple[int, int, int]:
    """Exact endpoints as (lo, hi, e) with endpoints lo*2^e and hi*2^e."""
    return b.man - b.r, b.man + b.r, b.exp


def _from_int_interval(lo: int, hi: int, e: int, prec: int) -> Ball:
    """Ball from an integer-endpoint interval [lo, hi] * 2^e."""
    if lo > hi:
        raise ValueError("empty interval")
    return _make(lo + hi, e - 1, hi - lo, prec)


def _absorb(man: int, exp: int, r: int, top: int, prec: int) -> Ball:
    """(man, exp, r), of magnitude below 2^top, plus anything of magnitude
    below 2^(top - prec - 1), which widens the radius by that bound."""
    e = min(exp, top - prec - 1)
    s = exp - e
    return _make(man << s, e, (r << s) + (1 << (top - prec - 1 - e)), prec)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def neg(a: Ball) -> Ball:
    return _ball(-a.man, a.exp, a.r)


def abs_ball(a: Ball) -> Ball:
    """Enclosure of |x|; collapses to [0, hi] when the ball straddles zero."""
    if not a.contains_zero():
        return _ball(abs(a.man), a.exp, a.r)
    hi = abs(a.man) + a.r
    return _ball(hi, a.exp - 1, hi)


def scale2(a: Ball, k: int) -> Ball:
    """Exact multiplication by 2^k."""
    if a.man == 0 and a.r == 0:
        return a
    return _ball(a.man, a.exp + k, a.r)


def _add(a: Ball, bman: int, b: Ball, p: int) -> Ball:
    """a plus the ball (bman, b.exp, b.r): bman is b.man, or -b.man for a
    difference."""
    am, ae, ar = a.man, a.exp, a.r
    be, br = b.exp, b.r
    gap = ae - be
    if gap > p + _ALIGN_SLACK or -gap > p + _ALIGN_SLACK:
        if not (am or ar):
            return _make(bman, be, br, p)
        if not (bman or br):
            return _make(am, ae, ar, p)
        ta = (abs(am) + ar).bit_length() + ae
        tb = (abs(bman) + br).bit_length() + be
        if tb < ta - p - _ALIGN_SLACK:
            return _absorb(am, ae, ar, ta, p)
        if ta < tb - p - _ALIGN_SLACK:
            return _absorb(bman, be, br, tb, p)
    if gap >= 0:
        return _make((am << gap) + bman, be, (ar << gap) + br, p)
    return _make(am + (bman << -gap), ae, ar + (br << -gap), p)


def add(a: Ball, b: Ball, prec) -> Ball:
    return _add(a, b.man, b, _bits(prec))


def sub(a: Ball, b: Ball, prec) -> Ball:
    return _add(a, -b.man, b, _bits(prec))


def mul(a: Ball, b: Ball, prec) -> Ball:
    """One midpoint product; the radius is (|a| + ra) rb + ra |b|."""
    p = _bits(prec)
    am, ar, bm, br = a.man, a.r, b.man, b.r
    r = (abs(am) + ar) * br if br else 0
    if ar:
        r += ar * abs(bm)
    return _make(am * bm, a.exp + b.exp, r, p)


def recip(b: Ball, prec) -> Ball:
    """Enclosure of 1/x; the input must exclude zero."""
    p = _bits(prec)
    m = abs(b.man)
    if m <= b.r:
        raise EnclosureError("reciprocal of an interval containing zero")
    lo, hi = m - b.r, m + b.r
    # 1/(x * 2^e) for x in [lo, hi], both positive integers
    k = p + 4 + hi.bit_length()
    new_lo = (1 << k) // hi
    new_hi = -(-(1 << k) // lo)
    if b.man < 0:
        new_lo, new_hi = -new_hi, -new_lo
    return _from_int_interval(new_lo, new_hi, -k - b.exp, p)


def div(a: Ball, b: Ball, prec) -> Ball:
    p = _bits(prec)
    return mul(a, recip(b, min(p + 8, _INTERNAL_CEILING)), p)


def hull(a: Ball, b: Ball, prec) -> Ball:
    """Smallest ball (at `prec`) containing both input balls."""
    p = _bits(prec)
    e = min(a.exp, b.exp)
    sa = a.exp - e
    sb = b.exp - e
    lo = min((a.man - a.r) << sa, (b.man - b.r) << sb)
    hi = max((a.man + a.r) << sa, (b.man + b.r) << sb)
    return _from_int_interval(lo, hi, e, p)


def add_rad_fraction(a: Ball, value: Fraction) -> Ball:
    """Widen a ball by a nonnegative rational amount, rounded up to a unit of
    the midpoint.  The midpoint's exponent first drops to keep _RADIUS_BITS
    bits of the amount; for a ball with a radius, by at most _RADIUS_BITS,
    as rounding up then adds at most 2^-_RADIUS_BITS of that radius.  An
    exact ball has no such scale and no precision to round to, so its
    midpoint is shifted down to the amount's scale, however far below it
    lies; the next rounding operation shortens it again."""
    num, den = value.numerator, value.denominator
    if num < 0:
        raise ValueError("radius must be nonnegative")
    if num == 0:
        return a
    e = min(a.exp, num.bit_length() - den.bit_length() - _RADIUS_BITS)
    if a.r:
        e = max(e, a.exp - _RADIUS_BITS)
    s = a.exp - e
    units = -((-num << max(-e, 0)) // (den << max(e, 0)))
    return _ball(a.man << s, e, (a.r << s) + units)


def round_ball(b: Ball, prec) -> Ball:
    """Re-round a ball's midpoint to `prec` bits, widening the radius."""
    return _make(b.man, b.exp, b.r, _bits(prec))


def compare(a: Ball, b: Ball) -> Order:
    """Set comparison: certainly-less / certainly-greater / overlapping."""
    if _dyadic_cmp(a.man + a.r, a.exp, b.man - b.r, b.exp) < 0:
        return Order.CERTAINLY_LESS
    if _dyadic_cmp(a.man - a.r, a.exp, b.man + b.r, b.exp) > 0:
        return Order.CERTAINLY_GREATER
    return Order.OVERLAPPING


# ---------------------------------------------------------------------------
# decimal rendering (exact integer algorithms; no float round-trips)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _pow10(k: int) -> int:
    """10^k, memoised: a whole report renders its margins with a few dozen k."""
    return 10**k


def _decimal_digits(a: int, exp: int, sig: int, up: bool = False) -> tuple[int, int]:
    """Return (D, t): D has `sig` digits, a*2^exp ~= D * 10^(t-sig+1), rounded
    half-even, or upward if `up`.

    a*2^exp is split once into num/den, (a << exp, 1) or (a, 2^-exp).  Each
    pass then scales by 10^k, k = sig - 1 - t: it multiplies num by 10^k if
    k >= 0 and den by 10^-k otherwise, and divides once.  The estimate of t
    from the bit length can be one off either way, and q can round up to
    10^sig; either moves t by one and the loop goes round again."""
    num, den = (a << exp, 1) if exp >= 0 else (a, 1 << -exp)
    t = (a.bit_length() - 1 + exp) * 30103 // 100000
    for _ in range(4):
        k = sig - 1 - t
        n, d = (num * _pow10(k), den) if k >= 0 else (num, den * _pow10(-k))
        q, r = divmod(n, d)
        if up:
            q += r > 0
        elif 2 * r > d or (2 * r == d and q & 1):
            q += 1
        if q >= _pow10(sig):
            t += 1
            continue
        if q < _pow10(sig - 1):
            t -= 1
            continue
        return q, t
    raise AssertionError("decimal digit extraction failed to settle")


def dyadic_decimal(man: int, exp: int, sig: int) -> str:
    """Deterministic decimal string for man*2^exp with `sig` significant digits."""
    if sig < 1:
        raise ValueError("need at least one significant digit")
    if man == 0:
        return "0"
    d, t = _decimal_digits(abs(man), exp, sig)
    return _decimal_body(man, d, t, sig)


def _decimal_body(man: int, d: int, t: int, sig: int) -> str:
    """Lay out D * 10^(t-sig+1), with the sign of man, as a decimal string."""
    sign = "-" if man < 0 else ""
    ds = str(d)
    if -4 <= t < 17:
        if t >= sig - 1:
            body = ds + "0" * (t - sig + 1)
        elif t >= 0:
            body = ds[: t + 1] + "." + ds[t + 1 :]
        else:
            body = "0." + "0" * (-t - 1) + ds
    else:
        body = ds[0] + "." + ds[1:] + ("e%+d" % t)
    return sign + body


@lru_cache(maxsize=1024)
def radius_decimal(rman: int, rexp: int) -> str:
    """Two-significant-digit upper bound for a radius, always scientific.

    Memoised: radii repeat, so a report renders few distinct ones (793
    (rman, rexp) pairs among the 10,541 nonzero margins of
    verify_all(500, 128)), and 1024 slots hold them all."""
    if rman == 0:
        return "0"
    q, t = _decimal_digits(rman, rexp, 2, up=True)  # radius strings never round down
    return f"{q // 10}.{q % 10}e{t:+d}"


def enclosure_str(b: Ball, sig: int = 36) -> str:
    """Render a ball as 'midpoint +/- radius', an interval containing the ball.

    The printed radius covers the ball's radius plus the error of rounding
    the midpoint to `sig` digits.
    """
    if b.man == 0:
        mid, err = "0", Fraction(0)
    else:
        d, t = _decimal_digits(abs(b.man), b.exp, sig)
        mid = _decimal_body(b.man, d, t, sig)
        err = abs(abs(b.mid_fraction()) - d * Fraction(10) ** (t - sig + 1))
    b = add_rad_fraction(b, err)
    return f"{mid} +/- {radius_decimal(b.r, b.exp)}"
