"""Special functions with certified enclosures.

Exact layer: Bernoulli numbers/polynomials and partial sums (harmonic,
odd-denominator harmonic, alternating) as Fractions.  The Bernoulli numbers
come from the integer tangent numbers, each computed once per process by a
recurrence that grows one column at a time.  The partial sums grow with n
(H(n) has a denominator of about 1.44 n bits), so no certified evaluation
uses them, gamma's H(2^k) included: they are public API and the
test-suite's independent reference.  Each call sums from 1 by balanced
splitting and keeps no state.

Certified layer: Euler--Maclaurin evaluation of the harmonic numbers, the
Euler--Mascheroni constant, digamma/trigamma/log-gamma, the Stirling
remainder functions and ln(e^(1/x) - 1).  All of them read one kind of
Bernoulli series (`_Series`): term k is c_k x^-(2k+s) with c_k = B_2k over
the kind's divisors, with one term-count rule, a scan over a float bound
on |B_2k| (DLMF 24.9.8) that stops where the bound reaches the target or
stops falling, and one error radius, the magnitude of the first omitted
term.  `_Series.at` memoises the sum at the shift threshold, which every
point below the threshold shares; `_psi_gap`, one table for ints and
balls alike, and `bounds._ln_expm1_recip` memoise the sums they read one
layer up.  Every argument at which a series is summed to the working
precision is an integer or a dyadic rational, because ball functions are
evaluated at their endpoints, and one integer kernel (`_Series.enclose`)
sums it there: Horner's rule in fixed point over the coefficients floored
to a fixed number of fraction bits, returned as one ball with the first
omitted term inside its radius, so no Fraction grows with x's length or
the term count.  `_Series.ball_sum` rounds the same integers to balls for
`stirling_tail`'s few-term prefix at its ball argument.
`_Series.truncation` gives the first K terms as an exact polynomial in
1/x, with the sign of the first omitted term, which is the side of it on
which the series lies; `verify` derives its envelopes and its lower bound
on g from it.

That radius holds at every truncation length, for two reasons:
- psi, psi' and ln Gamma: the series are asymptotic and diverge, but the
  remainders are completely monotonic, so each lies between zero and the
  first omitted term (DLMF 5.11(ii)); the test-suite spot-checks this.
- expm1, ln((e^t - 1)/t) - t/2 = sum B_2k t^2k / (2k (2k)!) at t = 1/x:
  the series has radius of convergence 2 pi in t.  Its terms alternate
  in sign with B_2k, and |c_(k+1) / c_k| = k/(k+1) zeta(2k+2)/zeta(2k)
  / (2 pi)^2 is below (2 pi)^-2, so for x >= 1 each term is less than
  1/39 of the one before.  The remainder of such an alternating series
  lies between zero and the first omitted term; no monotonicity argument
  is needed.

Arguments below the shift threshold are pushed up by the recurrences
psi(x+1) = psi(x) + 1/x and Gamma(x+1) = x*Gamma(x) before the series is
applied, so the series is only ever used where its terms decay far below
the working precision.  The threshold is sized by cost: at about 0.115
(w + 10) the series could just reach the target, but with about as many
terms as it can have (269 at 1040 bits), and every fresh process would
build Bernoulli and coefficient tables that long.  At twice that, 0.23
(w + 10), it needs about half (131), and the shift pays for the
difference with a few hundred short divisions.  The sum those
recurrences carry, 1/x + ... + 1/(x+m-1) or its squares, is one
fixed-point helper (`_shift_ball`) for trigamma and psi_gap at every x:
each term is floored to a fixed number of fraction bits and the floors
are carried as the radius, so no Fraction grows with m.  The same helper
sums H(2^k) for gamma, at twice the power of two at or above the
threshold.  One point function (`_gap_point`) holds the shifted formula
for gap(x) = ln x + 1/(2x) - psi(x+1), free of cancellation: psi_gap
reads it at a ball's endpoints, gap being decreasing, and at an int n as
the exact ball (n, 0, 0), and digamma reads it as
psi(x) = ln x - 1/(2x) - gap(x).  ln Gamma carries an exact product
instead, and its Stirling formula is one helper (`_stirling`) for lgamma
and stirling_tail.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import elementary
from .ball import (
    Ball,
    DomainError,
    _endpoints_scaled,
    _from_int_interval,
    add,
    add_rad_fraction,
    bits_of,
    hull,
    mul,
    neg,
    recip,
    round_ball,
    scale2,
    sub,
)
from .elementary import pi_ball
from .symbolic import Poly

__all__ = [
    "BernoulliCache",
    "bernoulli_number",
    "bernoulli_polynomial",
    "harmonic_exact",
    "odd_harmonic_exact",
    "alternating_partial",
    "alternating_tail",
    "EmConfig",
    "harmonic_em",
    "euler_gamma",
    "digamma",
    "trigamma",
    "lgamma",
    "psi_gap",
    "stirling_tail",
    "pi_ball",
    "check_index",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def _tangent_step(column: list[int]) -> None:
    """Extend Brent and Harvey's tangent recurrence ("Fast computation of
    Bernoulli, Tangent and Secant numbers", 2011) by one column, in place.

    Column j holds t_j after passes 0..j: t_j = j! after pass 0, and after
    pass k it is (j-k) times column j-1 after pass k plus (j-k+2) times
    itself after pass k-1.  Its last entry is the tangent number T_(j+1)
    (1, 2, 16, 272, ...; tan x = sum T_k x^(2k-1) / (2k-1)!).  A step costs
    j small-by-big products and no gcd.
    """
    j = len(column)
    column[0] *= j
    for k in range(1, j):
        column[k] = (j - k) * column[k] + (j - k + 2) * column[k - 1]
    column.append(2 * column[-1])


class BernoulliCache:
    """Grow-on-demand table of Bernoulli numbers, B_1 = -1/2 convention.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers T_k,
    one gcd per value; odd indices above 1 are stored as exact zeros.  The
    table keeps the last column of the tangent recurrence and extends it one
    column per new T_k, so it grows by any amount and computes each tangent
    number once.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
        self._column = [1]  # column k - 1 of the recurrence, ending in T_k
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        if m >= len(self._values):
            with self._lock:
                self._grow(m)
        return self._values[m]

    def _grow(self, m: int) -> None:
        vals, column = self._values, self._column
        for j in range(len(vals), m + 1):
            k, q = j // 2, 1 << j  # q = 4^k for even j
            if j % 2:
                vals.append(Fraction(0))
                continue
            if len(column) < k:
                _tangent_step(column)
            vals.append(Fraction((-1) ** (k - 1) * j * column[-1], q * (q - 1)))


_BERNOULLI = BernoulliCache()


def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2)."""
    return _BERNOULLI.get(m)


def bernoulli_polynomial(m: int, x) -> Fraction:
    """Exact Bernoulli polynomial B_m(x) = sum C(m,k) B_k x^(m-k)."""
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    xf = Fraction(x)
    acc = Fraction(0)
    c = 1  # C(m, k)
    for k in range(m + 1):
        b = _BERNOULLI.get(k)
        if b:
            acc += c * b * xf ** (m - k)
        c = c * (m - k) // (k + 1)
    return acc


# ---------------------------------------------------------------------------
# the Bernoulli series
# ---------------------------------------------------------------------------

def _log2_lower(man: int, exp: int) -> float:
    """Float lower bound on log2(man * 2^exp) for man > 0."""
    bl = man.bit_length()
    drop = max(0, bl - 53)
    return math.log2(man >> drop) + exp + drop - 1e-9


_LN2, _LOG2_2PI = math.log(2), math.log2(2 * math.pi)


class _Series:
    """A Bernoulli series whose term k >= 1 is c_k x^-(2k+s), with c_k equal
    to B_2k over the product of divisors(k).

    It grows on demand under one lock and keeps, per number f of fraction
    bits asked, the integers floor(c_k 2^f), rounded from the exact c_k.
    The term count reads no coefficient: it comes from a float bound on
    |B_2k|, and stops where that bound reaches the target or stops falling.
    `at` memoises the sum at the shift threshold, which every point below
    the threshold shares.
    """

    def __init__(self, s: int, divisors) -> None:
        self.s = s
        self._divisors = divisors
        self._fixed: dict[int, list[int]] = {}  # f -> floor(c_k 2^f) at index k - 1
        self._logc: dict[int, float] = {}  # _lower's bound at h = 0, per k probed
        self._lock = threading.Lock()

    def coeff(self, k: int) -> Fraction:
        """The exact coefficient c_k."""
        return bernoulli_number(2 * k) / math.prod(self._divisors(k))

    def _ints(self, f: int, count: int) -> list[int]:
        """floor(c_k 2^f) for k = 1..count."""
        with self._lock:
            ints = self._fixed.setdefault(f, [])
            for k in range(len(ints) + 1, count + 1):
                # floor(coeff(k) 2^f) without the Fraction's gcd
                b = bernoulli_number(2 * k)
                ints.append((b.numerator << f) // (b.denominator * math.prod(self._divisors(k))))
            return ints[:count]

    def truncation(self, count: int) -> tuple[Poly, int]:
        """The first count terms as a polynomial in u = 1/x, and the sign of
        the first omitted term.  The series lies strictly between the
        polynomial and the polynomial plus that term (for x > 0; x >= 1 for
        expm1), so on the side of the polynomial that the sign states."""
        coeffs = [Fraction(0)] * (2 * count + self.s + 1)
        for k in range(1, count + 1):
            coeffs[2 * k + self.s] = self.coeff(k)
        return Poly(coeffs), 1 if self.coeff(count + 1) > 0 else -1

    def _lower(self, k: int, h) -> float:
        """A lower bound L on log2 of term k at x = 2^h, read without B_2k.

        2 (2k)! / (2 pi)^2k < |B_2k| < 2 (2k)! / ((2 pi)^2k (1 - 2^(1-2k)))
        (DLMF 24.9.8), so for k >= 2 the term lies between 2^(L+1) and
        2^(L+1.2); the factor 2 is given up to cover the float error.  At
        an x above 2^h the term is smaller still.  The part that does not
        depend on h is kept per k probed: a kind's divisors, (2k)! among
        them, cost far more than the lookup.
        """
        logc = self._logc.get(k)
        if logc is None:
            logc = math.lgamma(2 * k + 1) / _LN2 - 2 * k * _LOG2_2PI
            for d in self._divisors(k):
                logc -= math.log2(d)
            self._logc[k] = logc
        return logc - (2 * k + self.s) * h

    def terms(self, h, target: int) -> int:
        """Smallest count >= 1 whose first omitted term's bound `_lower` is
        <= 2^-(target+2), h being a lower bound on log2 x.

        That term is then below 2^-target, and the last term kept, when
        count > 1, above 2^-(target+1) at x = 2^h: no kept term is far
        below the target.  It reads no Bernoulli number.

        One scan from k = 2 stops where the bound first reaches the target,
        or where it stops falling.  The asymptotic kinds diverge: their
        terms shrink only until k is of order pi*x, so if none gets to the
        target the shift threshold was chosen too small -- a programming
        error, not a runtime condition, hence the assertion.
        """
        k, low = 2, self._lower(2, h)
        while low > -(target + 2):
            nxt = self._lower(k + 1, h)
            if nxt >= low:
                raise AssertionError("asymptotic series cannot reach target precision")
            k, low = k + 1, nxt
        return k - 1

    def _omitted(self, count: int, a: int, d: int, f: int) -> int:
        """The first omitted term |c_(count+1)| x^-e, e = 2 count + 2 + s,
        at x = a/2^d, in units of 2^-f, rounded up.

        It is taken at x rounded down to 64 significant bits: no smaller,
        e being positive, larger by a factor below 1 + e 2^-62, and built
        from powers of a 64-bit integer in place of x's full length.
        """
        k, e = count + 1, 2 * count + 2 + self.s
        drop = max(0, min(d, a.bit_length() - 64))
        b = bernoulli_number(2 * k)
        num = abs(b.numerator) << (f + (d - drop) * e)
        return -(-num // (b.denominator * math.prod(self._divisors(k)) * (a >> drop) ** e))

    def enclose(self, man: int, exp: int, count: int, w: int) -> Ball:
        """The whole series at x = man 2^exp >= 1 as a ball at w bits: its
        first count terms, with the first omitted term in the radius.

        With x = a/2^d, Horner's rule in 1/x^2 runs in fixed point at
        f = w + 32 fraction bits, A_j = floor(c_j 2^f) + floor(A_(j+1)
        2^2d / a^2).  Each floor is exact, so A_1 is never above the true
        value and, x being >= 1, less than 2 count units below it.  The
        2 + s factors 1/x that follow are each one floor of A 2^(d+b)/a,
        b being the bit length of x's integer part, with f raised by b:
        the error stays relative to the value, and at most doubles and
        gains a unit per factor since 2^b/x < 2.  So the sum lies above A
        by less than (2 count + 2) 2^(2+s) units.
        """
        a, d = (man << exp, 0) if exp > 0 else (man, -exp)
        f, a2, acc = w + 32, a * a, 0
        for c in reversed(self._ints(f, count)):
            acc = c + ((acc << 2 * d) // a2)
        b = (a >> d).bit_length()
        for _ in range(2 + self.s):
            acc = (acc << (d + b)) // a
            f += b
        t = self._omitted(count, a, d, f)
        return _from_int_interval(acc - t, acc + ((2 * count + 2) << (2 + self.s)) + t, -f, w)

    def ball_sum(self, x: Ball, count: int, w: int) -> Ball:
        """The first count terms at a ball x: Horner's rule over the
        coefficients at w bits in 1/x^2, times 1/x^(2+s)."""
        f = w + 32
        coeffs = [_from_int_interval(c, c + 1, -f, w) for c in self._ints(f, count)]
        inv = recip(x, w)
        acc = _horner(coeffs, mul(inv, inv, w), w)
        for _ in range(2 + self.s):  # term k is c_k x^-2(k-1) x^-(2+s)
            acc = mul(acc, inv, w)
        return acc

    @lru_cache(maxsize=64)
    def at(self, man: int, exp: int, w: int) -> Ball:
        """The series at x = man 2^exp >= 1, summed to 2^-(w+6), as a ball.

        Memoised: every psi, psi' and ln Gamma point below the shift
        threshold, and psi_gap, sum the series at the threshold itself, so
        they share one sum per (kind, threshold, w)."""
        return self.enclose(man, exp, self.terms(_log2_lower(man, exp), w + 6), w)


# kind -> its series, each with what it completes:
#   psi     psi(x) = ln x - 1/(2x) - sum
#   psi1    psi'(x) = 1/x + 1/(2x^2) + sum
#   lgamma  ln Gamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + sum
#   expm1   ln(e^(1/x) - 1) = -ln x + 1/(2x) + sum
_SERIES = {
    "psi": _Series(0, lambda k: (2 * k,)),
    "psi1": _Series(1, lambda k: ()),
    "lgamma": _Series(-1, lambda k: (2 * k, 2 * k - 1)),
    "expm1": _Series(0, lambda k: (2 * k, math.factorial(2 * k))),
}


# ---------------------------------------------------------------------------
# exact partial sums
# ---------------------------------------------------------------------------

def check_index(n: int, least: int | None = 1, name: str = "n") -> int:
    """n, once it is an index or a count called name: an int >= least (any
    int if least is None) and not a bool, which would stand for 0 or 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}")
    return n


def _tree_sum(term, a: int, b: int) -> Fraction:
    """Balanced sum of term(a..b) keeping intermediate denominators small."""
    if b < a:
        return Fraction(0)
    if b - a < 8:
        acc = Fraction(0)
        for i in range(a, b + 1):
            acc += term(i)
        return acc
    m = (a + b) // 2
    return _tree_sum(term, a, m) + _tree_sum(term, m + 1, b)


def harmonic_exact(n: int) -> Fraction:
    """Exact harmonic number H(n) = 1 + 1/2 + ... + 1/n."""
    return _tree_sum(lambda i: Fraction(1, i), 1, check_index(n, 0))


def odd_harmonic_exact(n: int) -> Fraction:
    """Exact sum of reciprocals of the first n odd numbers."""
    return _tree_sum(lambda i: Fraction(1, 2 * i - 1), 1, check_index(n, 0))


def alternating_partial(n: int) -> Fraction:
    """Exact alternating sum 1 - 1/2 + 1/3 - ... +- 1/n = H(n) - H(floor(n/2))."""
    return harmonic_exact(check_index(n, 0)) - harmonic_exact(n // 2)


def alternating_tail(n: int, prec) -> Ball:
    """Enclosure of |ln 2 - (1 - 1/2 + ... +- 1/n)|, n >= 1.

    With gap(n) = psi_gap(n) and H(n) = ln n + gamma + 1/(2n) - gap(n), the
    partial sum at even n = 2m is H(n) - H(m), so its distance below ln 2
    is 1/(2n) + gap(n) - gap(m): the logarithms and gamma cancel exactly.
    The partial sum at odd n > 1 lies above ln 2 by 1/n less the distance
    at n - 1, and at n = 1 by 1 - ln 2.  The cost does not depend on n.
    """
    check_index(n)
    p = bits_of(prec)
    if n == 1:
        return sub(Ball.from_int(1), elementary.ln2_ball(p), p)
    if n % 2:
        return sub(Ball.from_fraction(Fraction(1, n), p), alternating_tail(n - 1, p), p)
    d = add(Ball.from_fraction(Fraction(1, 2 * n), p), psi_gap(n, p), p)
    return sub(d, psi_gap(n // 2, p), p)


# ---------------------------------------------------------------------------
# ln(2 pi)/2 for Stirling's formula; pi comes from elementary's arctan
# kernel, the series behind ln 2
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _half_ln_2pi(w: int) -> Ball:
    two_pi = scale2(pi_ball(w + 8), 1)
    return scale2(elementary.ln(two_pi, w), -1)


# ---------------------------------------------------------------------------
# Euler--Maclaurin: harmonic numbers and the Euler--Mascheroni constant
# ---------------------------------------------------------------------------

class EmConfig(NamedTuple("EmConfig", [("q", int), ("precision", int)])):
    """Order and precision for Euler--Maclaurin harmonic evaluation.

    q is the number of the first omitted Bernoulli term: the correction sum
    runs over B_2, ..., B_{2(q-1)} and the radius is |B_{2q}|/(2q n^{2q}).
    An immutable named tuple, checked on construction and on unpickling.
    """

    __slots__ = ()

    def __new__(cls, q: int = 5, precision: int = 128):
        if check_index(q, 1, "q") > 50:
            raise ValueError("q must be <= 50")
        bits_of(precision)
        return super().__new__(cls, q, precision)


def harmonic_em(n: int, config: EmConfig | None = None) -> Ball:
    """Euler--Maclaurin enclosure of H(n): ln n + gamma + 1/(2n) - corrections.

    The returned ball always contains the exact harmonic number; its width
    is at most twice the first omitted term plus rounding.
    """
    check_index(n)
    cfg = config or EmConfig()
    p = bits_of(cfg.precision)
    w = p + 16
    series = _SERIES["psi"].enclose(n, 0, cfg.q - 1, w)
    corr = sub(Ball.from_fraction(Fraction(1, 2 * n), w), series, w)
    ln_n = elementary.ln(Ball.from_int(n), w)
    return add(add(ln_n, _euler_gamma(w, "default"), w), corr, p)


_GAMMA_POLICIES = ("default", "alt")


def euler_gamma(prec, policy: str = "default") -> Ball:
    """Certified enclosure of the Euler--Mascheroni constant.

    Rearranges the Euler--Maclaurin formula at n = 2^k so the only
    transcendental input is ln 2: gamma = H(n) - k ln 2 - 1/(2n) + sum of
    Bernoulli corrections, with the first omitted term as radius.  The alt
    policy takes n = 2^k, the power of two at or above the shift threshold
    of the working precision p + 16 (64, 256 and 1024 at 128, 1024 and 4096
    bits), and the default takes 2n.  At either n the series needs no more
    terms than psi's sums at the threshold, so it reads the Bernoulli
    numbers they built; where none were built (a run whose points all lie
    above the threshold), the default's shorter series builds a table about
    three quarters as long, for n more short divisions.
    H(n) is summed in fixed point (`_shift_ball`), n floors of less than an
    ulp each at p + 48 fraction bits, so it costs n short divisions, not an
    exact Fraction with a 1.44 n-bit denominator.  The two policies pick
    different k (and hence different orders q), giving independent
    derivations whose enclosures must overlap.
    """
    if policy not in _GAMMA_POLICIES:
        raise ValueError(f"unknown euler_gamma policy: {policy!r}")
    return _euler_gamma(bits_of(prec), policy)


@lru_cache(maxsize=64)
def _euler_gamma(p: int, policy: str) -> Ball:
    w = p + 16
    k = (_shift_threshold(w) - 1).bit_length() + (policy == "default")
    n = 1 << k
    psi = _SERIES["psi"]
    series = sub(psi.enclose(n, 0, psi.terms(k, p + 10), w), Ball(1, -k - 1), w)
    acc = add(_shift_ball(1, 0, n, 1, w), series, w)
    ln_n = mul(elementary.ln2_ball(w), Ball.from_int(k), w)
    return sub(acc, ln_n, p)


# ---------------------------------------------------------------------------
# digamma / trigamma / log-gamma
# ---------------------------------------------------------------------------

def _shift_threshold(w: int) -> int:
    # twice the smallest argument at which the asymptotic series can reach
    # 2^-(w+8) (its minimal term is about e^(-2 pi x), i.e. 2^(-9.06 x)):
    # there each kind needs about half the terms, 131 instead of 269 at
    # 1040 bits and 519 instead of 1071 at 4112, so the Bernoulli and
    # coefficient tables stop at half the index and cost a fifth as much,
    # while the shift gains about 0.115 (w + 10) short divisions
    return max(16, -(-(23 * (w + 10)) // 100))


def _as_ball(x, w: int) -> Ball:
    if isinstance(x, Ball):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Ball.from_int(x)
    if isinstance(x, Fraction):
        return Ball.from_fraction(x, w)
    raise TypeError(f"expected Ball, int or Fraction, got {type(x).__name__}")


def _norm_dyadic(man: int, exp: int) -> tuple[int, int]:
    """Normalise a positive dyadic to a nonpositive exponent."""
    if exp > 0:
        return man << exp, 0
    return man, exp


def _shifted_arg(man: int, exp: int, w: int) -> tuple[int, int, int, int]:
    """Return (m, xman, nman, nexp): x = xman*2^nexp, N = x + m >= threshold."""
    xman, nexp = _norm_dyadic(man, exp)
    y0 = _shift_threshold(w)
    floor_x = xman >> -nexp if nexp else xman
    m = y0 - floor_x if floor_x < y0 else 0
    nman = xman + (m << -nexp) if nexp else xman + m
    return m, xman, nman, nexp


def _horner(coeffs, u: Ball, w: int) -> Ball:
    """c_0 + c_1 u + c_2 u^2 + ... for ball coefficients in ascending order."""
    s = Ball(0, 0)
    for c in reversed(coeffs):
        s = add(mul(s, u, w), c, w)
    return s


def _shift_ball(xman: int, nexp: int, m: int, s: int, w: int) -> Ball:
    """sum_{j=0}^{m-1} (x+j)^-s at x = xman 2^nexp > 0, nexp <= 0, as a
    ball: what the recurrences of psi (s = 1) and psi' (s = 2) carry from x
    to x + m, and at x = 1, s = 1 the harmonic number H(m).  Each term is
    floored to w + 32 fraction bits, so the cost grows neither with x's
    fraction nor with the sum's exact denominator, and the m floors lose
    less than m units of the last place."""
    f = w + 32
    one = 1 << (f - s * nexp)  # 2^f (x+j)^-s = one / (xman + j 2^-nexp)^s
    total = sum(one // (xman + (j << -nexp)) ** s for j in range(m))
    return _from_int_interval(total, total + m, -f, w)


def _gap_point(man: int, exp: int, w: int) -> Ball:
    """gap(x) = ln x + 1/(2x) - psi(x+1) at x = man 2^exp > 0, at w bits.

    At or above the shift threshold it is psi's series S(x) alone.  Below
    it, with N = x + m, psi(x+1) = psi(N+1) - (1/(x+1) + ... + 1/N) and
    psi(N+1) = ln N + 1/(2N) - S(N) give ln(x/N) + 1/(2x) - 1/(2N) + S(N)
    plus that sum, so ln x never cancels against psi(x+1).
    """
    m, xman, nman, nexp = _shifted_arg(man, exp, w)
    psi = _SERIES["psi"]
    if not m:
        return psi.at(xman, nexp, w)
    one = 1 << -nexp  # x = xman / one and N = nman / one
    series = sub(psi.at(nman, nexp, w), Ball.from_fraction(Fraction(one, 2 * nman), w), w)
    res = add(_shift_ball(xman + one, nexp, m, 1, w), series, w)
    res = add(Ball.from_fraction(Fraction(one, 2 * xman), w), res, w)
    return add(elementary.ln(Ball.from_fraction(Fraction(xman, nman), w), w), res, w)


def _digamma_point(man: int, exp: int, w: int) -> Ball:
    # psi(x) = psi(x+1) - 1/x = ln x - 1/(2x) - gap(x)
    x = Ball(man, exp)
    res = sub(elementary.ln(x, w), scale2(recip(x, w), -1), w)
    return sub(res, _gap_point(man, exp, w), w)


def _trigamma_point(man: int, exp: int, w: int) -> Ball:
    m, xman, nman, nexp = _shifted_arg(man, exp, w)
    inv_n = recip(Ball(nman, nexp), w)
    res = add(inv_n, scale2(mul(inv_n, inv_n, w), -1), w)
    res = add(res, _SERIES["psi1"].at(nman, nexp, w), w)
    if m:
        # psi'(x) = psi'(x+m) + sum_{j=0}^{m-1} 1/(x+j)^2
        res = add(res, _shift_ball(xman, nexp, m, 2, w), w)
    return res


def _stirling(x: Ball, series: Ball, w: int) -> Ball:
    """(x - 1/2) ln x - x + ln(2 pi)/2 + series, Stirling's formula for
    ln Gamma(x) with its Bernoulli series given."""
    res = mul(sub(x, Ball(1, -1), w), elementary.ln(x, w), w)
    res = sub(res, x, w)
    res = add(res, _half_ln_2pi(w), w)
    return add(res, series, w)


def _lgamma_point(man: int, exp: int, w: int) -> Ball:
    m, xman, nman, nexp = _shifted_arg(man, exp, w)
    res = _stirling(Ball(nman, nexp), _SERIES["lgamma"].at(nman, nexp, w), w)
    if m:
        # ln Gamma(x) = ln Gamma(N) - ln(x (x+1) ... (x+m-1)), exact product
        f = -nexp
        prod = 1
        for i in range(m):
            prod *= xman + (i << f)
        res = sub(res, elementary.ln(Ball(prod, nexp * m), w), w)
    return res


def _eval_on_ball(point_fn, x: Ball, w: int, p: int, monotone: bool) -> Ball:
    """point_fn(man, exp, w), a value at w bits, over the ball x, rounded
    once to p: the one place a point function's result is rounded."""
    lo, hi, e = _endpoints_scaled(x)
    if lo <= 0:
        raise DomainError("argument enclosure must be strictly positive")
    if x.r == 0:
        return round_ball(point_fn(x.man, x.exp, w), p)
    a = point_fn(lo, e, w)
    b = point_fn(hi, e, w)
    if monotone:
        return hull(a, b, p)
    # non-monotone (log-gamma dips below its endpoints near 1.46): pad the
    # endpoint hull by width * sup |psi|, psi being monotone on (0, inf)
    res = hull(a, b, w)
    pa = _digamma_point(lo, e, w)
    pb = _digamma_point(hi, e, w)
    slope = max(abs(pa.lower()), abs(pa.upper()), abs(pb.lower()), abs(pb.upper()))
    return round_ball(add_rad_fraction(res, 2 * x.rad_fraction() * slope), p)


def digamma(x, prec) -> Ball:
    """Certified enclosure of psi(x) for a strictly positive argument."""
    p = bits_of(prec)
    w = p + 16
    return _eval_on_ball(_digamma_point, _as_ball(x, w), w, p, monotone=True)


def trigamma(x, prec) -> Ball:
    """Certified enclosure of psi'(x) for a strictly positive argument."""
    p = bits_of(prec)
    w = p + 16
    return _eval_on_ball(_trigamma_point, _as_ball(x, w), w, p, monotone=True)


def lgamma(x, prec) -> Ball:
    """Certified enclosure of ln Gamma(x) for a strictly positive argument."""
    p = bits_of(prec)
    w = p + 16
    return _eval_on_ball(_lgamma_point, _as_ball(x, w), w, p, monotone=False)


def psi_gap(x, prec) -> Ball:
    """Enclosure of gap(x) = ln x + 1/(2x) - psi(x+1) at an int x >= 1 or a
    strictly positive ball.

    gap is of order 1/(12 x^2); `_gap_point` sums it through psi's series,
    shifted up to the threshold below it with the correction 1/(x+1) + ...
    + 1/N in fixed point (`_shift_ball`), leaving ln(x/N) as the only
    transcendental, so it avoids the cancellation of subtracting two
    O(ln x) enclosures.  The cost depends on the precision, not on x;
    results are memoised in one table per (man, exp, r, precision), an int
    n being the exact ball (n, 0, 0), so an int and its exact ball share an
    entry while two representations of one interval never do.

    gap is strictly decreasing on (0, inf): its derivative is 1/x - 1/(2x^2)
    - psi'(x+1) = 1/x + 1/(2x^2) - psi'(x), which is negative because
    psi'(x) > 1/x + 1/(2x^2) (H. Alzer, Math. Comp. 66 (1997); DLMF 5.15).
    So a ball is enclosed by the hull of its endpoints' values.

    The enclosure never contains zero, so its reciprocal exists: at or
    above the threshold it is psi's series, whose floors `enclose` keeps
    relative to the value and whose first omitted term is below the first
    kept one, and below it the value exceeds gap at the threshold, above
    2^-22 even at 4096 bits, while the radius is near 2^-(p+12).
    """
    if isinstance(x, Ball):
        return _psi_gap(x.man, x.exp, x.r, bits_of(prec))
    return _psi_gap(check_index(x), 0, 0, bits_of(prec))


@lru_cache(maxsize=1024)
def _psi_gap(man: int, exp: int, r: int, p: int) -> Ball:
    """psi_gap at the ball (man, exp, r), rebuilt exactly as it was given;
    an int n is the exact ball (n, 0, 0)."""
    return _eval_on_ball(_gap_point, Ball(man, exp, r, exp), p + 16, p, monotone=True)


def stirling_tail(kind: str, order: int, x, prec) -> Ball:
    """Stirling remainder after an even (kind "F") or odd (kind "G") number
    of correction terms.

    F_n(x) keeps 2n Bernoulli terms and is the positive remainder
    ln Gamma(x) - S_{2n}(x); G_n(x) keeps 2n+1 terms with the opposite
    sign, G_n(x) = S_{2n+1}(x) - ln Gamma(x).  Both are positive and
    decreasing; the depth-j finite differences alternate in sign.
    """
    if kind not in ("F", "G"):
        raise ValueError("kind must be 'F' or 'G'")
    if not 1 <= check_index(order, None, "order") <= 12:
        raise ValueError("order must be in [1, 12]")
    p = bits_of(prec)
    w = p + 32
    xb = _as_ball(x, w)
    count = 2 * order if kind == "F" else 2 * order + 1
    lg = _eval_on_ball(_lgamma_point, xb, w + 16, w, monotone=False)
    res = sub(lg, _stirling(xb, _SERIES["lgamma"].ball_sum(xb, count, w), w), p)
    return res if kind == "F" else neg(res)
