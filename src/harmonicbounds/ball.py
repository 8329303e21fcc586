"""Midpoint-radius interval ("ball") arithmetic over dyadic rationals.

A ball represents the closed interval [m*2^e - r, m*2^e + r] where the
midpoint mantissa m is an arbitrary-precision integer and the radius
r = rman*2^rexp keeps a short mantissa (at most 32 bits) with its own
exponent.  The radius is deliberately *not* a machine float: at working
precisions of a few thousand bits a float radius would underflow to zero
below 2^-1074 and silently destroy soundness.

Every operation returns a ball whose interval contains the exact image of
the input intervals; midpoint rounding (ties to even) is folded into the
radius.  No infinities or NaNs exist in this model — out-of-domain inputs
raise instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

__all__ = [
    "Ball",
    "Order",
    "Precision",
    "DomainError",
    "EnclosureError",
    "RangeError",
    "PrecisionExhausted",
    "CLIMB_CAP",
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


class PrecisionExhausted(RuntimeError):
    """Raised when the precision ladder hit its cap without a decision."""


MIN_PRECISION = 53
DEFAULT_PRECISION = 128
MAX_PRECISION = 4096

# The precision ladder's top rung.  Every ladder starts at the caller's
# precision except verify.f_eval's, which starts 16 guard bits above it, so
# the ladder may climb that far past the cap.
CLIMB_CAP = MAX_PRECISION + 16

# Internal evaluations stack guard bits on top of a caller's precision, so
# plain-int precisions are allowed a bit past the user-facing cap.
_INTERNAL_CEILING = MAX_PRECISION + 512

# Radius mantissas are kept at or below this many bits, always rounding up.
_RAD_BITS = 32

# Midpoint alignment beyond roughly (precision + this) bits is absorbed into
# the radius instead of materialising huge shifted integers.
_ALIGN_SLACK = 64


@dataclass(frozen=True)
class Precision:
    """Working precision in bits for ball midpoints.

    The floor of 53 bits keeps every certified quantity at least as sharp
    as a double; callers normally pass plain ints and only construct this
    when they want the validation.
    """

    bits: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int):
            raise TypeError(f"precision bits must be an int, got {type(self.bits).__name__}")
        if self.bits < MIN_PRECISION:
            raise ValueError(f"precision must be at least {MIN_PRECISION} bits, got {self.bits}")
        if self.bits > MAX_PRECISION:
            raise ValueError(f"precision must be at most {MAX_PRECISION} bits, got {self.bits}")


def bits_of(prec) -> int:
    """Accept an int or a Precision and return validated bits."""
    if isinstance(prec, Precision):
        return prec.bits
    if isinstance(prec, int) and not isinstance(prec, bool):
        if not MIN_PRECISION <= prec <= _INTERNAL_CEILING:
            raise ValueError(
                f"precision must be in [{MIN_PRECISION}, {_INTERNAL_CEILING}] bits, got {prec}"
            )
        return prec
    raise TypeError(f"precision must be an int or Precision, got {type(prec).__name__}")


def climb(step, w0: int):
    """The precision ladder: run step(w) for w = w0, 2 w0, ... up to CLIMB_CAP.

    step(w) returns (decision, value, deciding), where decision is None
    while the question is still open and `deciding` is the ball whose
    radius keeps it open.  Returns (decision, value, w) from the first rung
    that decides.  The ladder gives up, returning decision None, at the cap
    or as soon as doubling w did not at least halve the deciding radius:
    the inputs' own width then sets that radius, and no higher rung helps.
    """
    w = w0
    prev = None
    while True:
        decision, value, deciding = step(w)
        if decision is not None:
            return decision, value, w
        if w >= CLIMB_CAP or (
            prev is not None
            and _dyadic_cmp(deciding.rman, deciding.rexp + 1, prev.rman, prev.rexp) > 0
        ):
            return None, value, w
        prev = deciding
        w = min(2 * w, CLIMB_CAP)


class Order(Enum):
    """Outcome of comparing two balls as sets of reals."""

    CERTAINLY_LESS = "certainly_less"
    CERTAINLY_GREATER = "certainly_greater"
    OVERLAPPING = "overlapping"


# ---------------------------------------------------------------------------
# radius helpers: nonnegative dyadics (mantissa, exponent), rounded upward
# ---------------------------------------------------------------------------

def _rad_norm(m: int, e: int) -> tuple[int, int]:
    """Shorten a nonnegative dyadic m*2^e to <= _RAD_BITS mantissa bits, rounding up."""
    if m == 0:
        return 0, 0
    bl = m.bit_length()
    if bl <= _RAD_BITS:
        return m, e
    s = bl - _RAD_BITS
    m2 = (m + (1 << s) - 1) >> s
    if m2.bit_length() > _RAD_BITS:  # ceiling carried up to a power of two
        m2 >>= 1
        s += 1
    return m2, e + s


def _rad_add(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    if m1 == 0:
        return _rad_norm(m2, e2)
    if m2 == 0:
        return _rad_norm(m1, e1)
    m1, e1 = _rad_norm(m1, e1)
    m2, e2 = _rad_norm(m2, e2)
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    sh = e1 - e2
    if sh > _RAD_BITS + 2:
        # The smaller term is below one ulp of the larger; absorb it.
        return _rad_norm(m1 + 1, e1)
    return _rad_norm((m1 << sh) + m2, e2)


def _rad_mul(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    if m1 == 0 or m2 == 0:
        return 0, 0
    return _rad_norm(m1 * m2, e1 + e2)


def _rad_from_fraction(value: Fraction) -> tuple[int, int]:
    """Upper-bound a nonnegative Fraction by a short radius."""
    num, den = value.numerator, value.denominator
    if num == 0:
        return 0, 0
    if num < 0:
        raise ValueError("radius must be nonnegative")
    shift = _RAD_BITS + 2 + den.bit_length() - num.bit_length()
    if shift < 0:
        shift = 0
    q = -((-(num << shift)) // den)  # ceil
    return _rad_norm(q, -shift)


def _round_mid(man: int, exp: int, prec: int) -> tuple[int, int, int, int]:
    """Round man*2^exp to <= prec mantissa bits (ties to even).

    Returns (man', exp', err_man, err_exp) where the error term bounds the
    rounding defect in radius format.
    """
    if man == 0:
        return 0, 0, 0, 0
    a = abs(man)
    bl = a.bit_length()
    if bl <= prec:
        return man, exp, 0, 0
    s = bl - prec
    q = a >> s
    r = a - (q << s)
    half = 1 << (s - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
        err = (1 << s) - r
    else:
        err = r
    if q.bit_length() > prec:  # rounded up to a power of two
        q >>= 1
        s += 1
    if man < 0:
        q = -q
    if err == 0:
        return q, exp + s, 0, 0
    em, ee = _rad_norm(err, exp)
    return q, exp + s, em, ee


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
    """Closed interval [man*2^exp - rman*2^rexp, man*2^exp + rman*2^rexp]."""

    __slots__ = ("man", "exp", "rman", "rexp")

    def __init__(self, man: int, exp: int, rman: int = 0, rexp: int = 0):
        if rman < 0:
            raise ValueError("radius mantissa must be nonnegative")
        if man == 0:
            exp = 0
        if rman == 0:
            rexp = 0
        else:
            rman, rexp = _rad_norm(rman, rexp)
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "rman", rman)
        object.__setattr__(self, "rexp", rexp)

    def __setattr__(self, name, value):
        raise AttributeError("Ball is immutable")

    def __reduce__(self):
        return (Ball, (self.man, self.exp, self.rman, self.rexp))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, value: int) -> "Ball":
        return cls(value, 0)

    @classmethod
    def exact_dyadic(cls, man: int, exp: int) -> "Ball":
        return cls(man, exp)

    @classmethod
    def from_fraction(cls, value, prec) -> "Ball":
        """Enclose an int or Fraction; radius is at most one ulp at `prec`."""
        p = bits_of(prec)
        if isinstance(value, int):
            return _make(value, 0, 0, 0, p)
        if not isinstance(value, Fraction):
            raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
        num, den = value.numerator, value.denominator
        if num == 0:
            return cls(0, 0)
        if den & (den - 1) == 0:  # already dyadic
            return _make(num, 1 - den.bit_length(), 0, 0, p)
        sign = 1 if num > 0 else -1
        a = abs(num)
        shift = p + 1 + den.bit_length() - a.bit_length()
        if shift < 0:
            shift = 0
        q, r = divmod(a << shift, den)
        if r == 0:
            return _make(sign * q, -shift, 0, 0, p)
        # true value in (q, q+1) * 2^-shift: centre on the half-integer
        return _make(sign * (2 * q + 1), -shift - 1, 1, -shift - 1, p)

    # -- exact views --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.rman == 0

    def mid_fraction(self) -> Fraction:
        return _dyadic_fraction(self.man, self.exp)

    def rad_fraction(self) -> Fraction:
        return _dyadic_fraction(self.rman, self.rexp)

    def lower(self) -> Fraction:
        """Exact lower endpoint."""
        return self.mid_fraction() - self.rad_fraction()

    def upper(self) -> Fraction:
        """Exact upper endpoint."""
        return self.mid_fraction() + self.rad_fraction()

    def contains(self, value) -> bool:
        """Exact membership test for an int or Fraction."""
        v = Fraction(value)
        return self.lower() <= v <= self.upper()

    def contains_zero(self) -> bool:
        if self.rman == 0:
            return self.man == 0
        return _dyadic_cmp(abs(self.man), self.exp, self.rman, self.rexp) <= 0

    def is_positive(self) -> bool:
        """True when every point of the ball is > 0."""
        if self.man <= 0:
            return False
        return _dyadic_cmp(self.man, self.exp, self.rman, self.rexp) > 0

    def is_negative(self) -> bool:
        """True when every point of the ball is < 0."""
        if self.man >= 0:
            return False
        return _dyadic_cmp(-self.man, self.exp, self.rman, self.rexp) > 0

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
            and _dyadic_cmp(self.rman, self.rexp, other.rman, other.rexp) == 0
        )

    def __hash__(self):
        return hash((self.mid_fraction(), self.rad_fraction()))


def _dyadic_fraction(m: int, e: int) -> Fraction:
    if e >= 0:
        return Fraction(m << e, 1)
    return Fraction(m, 1 << -e)


def _make(man: int, exp: int, rman: int, rexp: int, prec: int) -> Ball:
    man2, exp2, em, ee = _round_mid(man, exp, prec)
    rm, re = _rad_add(rman, rexp, em, ee)
    return Ball(man2, exp2, rm, re)


def _mag_upper(b: Ball) -> tuple[int, int]:
    """Short upper bound for sup |x| over the ball, in radius format."""
    m, e = _rad_norm(abs(b.man), b.exp)
    return _rad_add(m, e, b.rman, b.rexp)


def _endpoints_scaled(b: Ball) -> tuple[int, int, int]:
    """Exact endpoints as (lo, hi, e) with endpoints lo*2^e and hi*2^e."""
    if b.rman == 0:
        return b.man, b.man, b.exp
    e = min(b.exp, b.rexp)
    m = b.man << (b.exp - e)
    r = b.rman << (b.rexp - e)
    return m - r, m + r, e


def _from_int_interval(lo: int, hi: int, e: int, prec: int) -> Ball:
    """Ball from an integer-endpoint interval [lo, hi] * 2^e."""
    if lo > hi:
        raise ValueError("empty interval")
    return _make(lo + hi, e - 1, hi - lo, e - 1, prec)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def neg(a: Ball) -> Ball:
    return Ball(-a.man, a.exp, a.rman, a.rexp)


def abs_ball(a: Ball) -> Ball:
    """Enclosure of |x|; collapses to [0, hi] when the ball straddles zero."""
    if not a.contains_zero():
        return Ball(abs(a.man), a.exp, a.rman, a.rexp)
    hm, he = _mag_upper(a)
    # interval [0, hm*2^he]
    return Ball(hm, he - 1, hm, he - 1)


def scale2(a: Ball, k: int) -> Ball:
    """Exact multiplication by 2^k."""
    if a.man == 0 and a.rman == 0:
        return a
    return Ball(a.man, a.exp + k, a.rman, a.rexp + k)


def add(a: Ball, b: Ball, prec) -> Ball:
    p = bits_of(prec)
    extra = None
    if a.man == 0:
        sm, se = b.man, b.exp
    elif b.man == 0:
        sm, se = a.man, a.exp
    else:
        big, small = (a, b) if (a.man.bit_length() + a.exp >= b.man.bit_length() + b.exp) else (b, a)
        h_small = abs(small.man).bit_length() + small.exp
        h_big = abs(big.man).bit_length() + big.exp
        if h_small < h_big - (p + _ALIGN_SLACK):
            sm, se = big.man, big.exp
            extra = (1, h_small)  # |small midpoint| < 2^h_small
        else:
            e0 = min(a.exp, b.exp)
            sm = (a.man << (a.exp - e0)) + (b.man << (b.exp - e0))
            se = e0
    rm, re = _rad_add(a.rman, a.rexp, b.rman, b.rexp)
    if extra is not None:
        rm, re = _rad_add(rm, re, *extra)
    return _make(sm, se, rm, re, p)


def sub(a: Ball, b: Ball, prec) -> Ball:
    return add(a, neg(b), prec)


def mul(a: Ball, b: Ball, prec) -> Ball:
    p = bits_of(prec)
    mm = a.man * b.man
    me = a.exp + b.exp
    rm, re = 0, 0
    if b.rman:
        am, ae = _mag_upper(a)
        rm, re = _rad_mul(am, ae, b.rman, b.rexp)
    if a.rman and b.man:
        bm, be = _rad_norm(abs(b.man), b.exp)
        rm, re = _rad_add(rm, re, *_rad_mul(a.rman, a.rexp, bm, be))
    return _make(mm, me, rm, re, p)


def recip(b: Ball, prec) -> Ball:
    """Enclosure of 1/x; the input must exclude zero."""
    p = bits_of(prec)
    lo, hi, e = _endpoints_scaled(b)
    if lo <= 0 <= hi:
        raise EnclosureError("reciprocal of an interval containing zero")
    flip = lo < 0
    if flip:
        lo, hi = -hi, -lo
    # 1/(x * 2^e) for x in [lo, hi], both positive integers now
    k = p + 4 + hi.bit_length()
    num = 1 << k
    new_lo = num // hi  # floor(2^k / hi)
    q, r = divmod(num, lo)
    new_hi = q if r == 0 else q + 1  # ceil(2^k / lo)
    if flip:
        new_lo, new_hi = -new_hi, -new_lo
    return _from_int_interval(new_lo, new_hi, -k - e, p)


def div(a: Ball, b: Ball, prec) -> Ball:
    p = bits_of(prec)
    return mul(a, recip(b, min(p + 8, MAX_PRECISION)), p)


def hull(a: Ball, b: Ball, prec) -> Ball:
    """Smallest ball (at `prec`) containing both input balls."""
    p = bits_of(prec)
    alo, ahi, ae = _endpoints_scaled(a)
    blo, bhi, be = _endpoints_scaled(b)
    e = min(ae, be)
    sa = ae - e
    sb = be - e
    lo = min(alo << sa, blo << sb)
    hi = max(ahi << sa, bhi << sb)
    return _from_int_interval(lo, hi, e, p)


def add_rad_fraction(a: Ball, value: Fraction) -> Ball:
    """Widen a ball by a nonnegative rational amount (rounded up)."""
    em, ee = _rad_from_fraction(value)
    rm, re = _rad_add(a.rman, a.rexp, em, ee)
    return Ball(a.man, a.exp, rm, re)


def round_ball(b: Ball, prec) -> Ball:
    """Re-round a ball's midpoint to `prec` bits, widening the radius."""
    return _make(b.man, b.exp, b.rman, b.rexp, bits_of(prec))


def compare(a: Ball, b: Ball) -> Order:
    """Set comparison: certainly-less / certainly-greater / overlapping."""
    alo, ahi, ae = _endpoints_scaled(a)
    blo, bhi, be = _endpoints_scaled(b)
    if _dyadic_cmp(ahi, ae, blo, be) < 0:
        return Order.CERTAINLY_LESS
    if _dyadic_cmp(alo, ae, bhi, be) > 0:
        return Order.CERTAINLY_GREATER
    return Order.OVERLAPPING


# ---------------------------------------------------------------------------
# decimal rendering (exact integer algorithms; no float round-trips)
# ---------------------------------------------------------------------------

def _decimal_digits(a: int, exp: int, sig: int, up: bool = False) -> tuple[int, int]:
    """Return (D, t): D has `sig` digits, a*2^exp ~= D * 10^(t-sig+1), rounded
    half-even, or upward if `up`."""
    # first estimate of the decimal exponent
    t = (a.bit_length() - 1 + exp) * 30103 // 100000
    for _ in range(4):
        pow10 = t - sig + 1
        num = a << max(exp, 0) if exp >= 0 else a
        num *= 10 ** max(-pow10, 0)
        den = (1 << max(-exp, 0)) * 10 ** max(pow10, 0)
        q, r = divmod(num, den)
        if up:
            q += r > 0
        elif 2 * r > den or (2 * r == den and q & 1):
            q += 1
        if q >= 10**sig:
            t += 1
            continue
        if q < 10 ** (sig - 1):
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


def radius_decimal(rman: int, rexp: int) -> str:
    """Two-significant-digit upper bound for a radius, always scientific."""
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
    rm, re = _rad_add(b.rman, b.rexp, *_rad_from_fraction(err))
    return f"{mid} +/- {radius_decimal(rm, re)}"
