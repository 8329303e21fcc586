"""Reference values computed apart from harmonicbounds.

Everything here uses the standard library's `decimal` module only: its
correctly rounded ln, exp and sqrt, harmonic-type sums added term by term,
and the Euler--Mascheroni constant from the Brent--McMillan series.  The
computed gamma and ln 2 are first compared with their published digits, so
a slip in this module shows before it can vouch for the program.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

# published digits, truncated after the 50th decimal
GAMMA_DIGITS = "0.57721566490153286060651209008240243104215933593992"
LN2_DIGITS = "0.69314718055994530941723212145817656807550013436025"

# (bound id, side) pairs that the catalog declares attained, all at n = 1
EQUALITY_SIDES = frozenset({
    ("klamkin", "upper"),
    ("odd", "upper"),
    ("toth_sharp", "lower"),
    ("alt_tail", "lower"),
    ("batir", "lower"),
    ("qi_guo_family", "upper"),
    ("chen", "lower"),
    ("main", "lower"),
})

BOUND_IDS = (
    "franel", "klamkin", "odd", "young", "detemple", "toth",
    "toth_sharp", "alt_tail", "batir", "qi_guo_family", "chen", "main",
)


def brent_mcmillan_gamma(digits: int) -> Decimal:
    """Euler's gamma to about `digits` places (error below pi e^(-4N))."""
    with localcontext() as ctx:
        ctx.prec = digits + 30
        big_n = int(digits * 0.5757) + 10  # 4N >= digits * ln 10
        n2 = Decimal(big_n) ** 2
        a = -Decimal(big_n).ln()
        b = Decimal(1)
        u, v = a, b
        stop = Decimal(10) ** -(digits + 20)
        k = 1
        while True:
            b = b * n2 / (k * k)
            a = (a * n2 / k + b) / k
            u += a
            v += b
            if k > big_n and b < v * stop and abs(a) < v * stop:
                break
            k += 1
        return u / v


class Reference:
    """Independent values of the catalog's targets and bound sides at n.

    `digits` is the decimal working precision; `tol` is a bound on the
    absolute error of every value returned, which sits far below the
    radius of any ball it is compared with.
    """

    def __init__(self, bits: int):
        self.digits = bits * 30103 // 100000 + 40
        self.tol = Fraction(1, 10 ** (self.digits - 12))
        with localcontext() as ctx:
            ctx.prec = self.digits
            self.gamma = +brent_mcmillan_gamma(self.digits)
            self.ln2 = Decimal(2).ln()
        for name, value, published in (
            ("gamma", self.gamma, GAMMA_DIGITS),
            ("ln 2", self.ln2, LN2_DIGITS),
        ):
            if abs(value - Decimal(published)) > Decimal("1e-49"):
                raise AssertionError(f"reference {name} disagrees with its published digits")
        self._sums: dict[int, tuple[Decimal, Decimal, Decimal]] = {}

    def prepare(self, ns) -> None:
        """Sum H(n), the odd harmonic sum and the alternating sum once, in order."""
        want = sorted(set(ns) - set(self._sums))
        if not want:
            return
        with localcontext() as ctx:
            ctx.prec = self.digits
            h = odd = alt = Decimal(0)
            one = Decimal(1)
            k = 0
            for n in want:
                while k < n:
                    k += 1
                    h += one / k
                    odd += one / (2 * k - 1)
                    alt += one / k if k % 2 else -one / k
                self._sums[n] = (h, odd, alt)

    def sides(self, n: int) -> dict[str, tuple[Fraction, Fraction, Fraction]]:
        """(lower, target, upper) of every catalog bound at n, as exact fractions."""
        self.prepare((n,))
        h, odd, alt = self._sums[n]
        g, ln2 = self.gamma, self.ln2
        with localcontext() as ctx:
            ctx.prec = self.digits
            one = Decimal(1)
            half = Decimal("0.5")
            dn = Decimal(n)
            t1 = h - dn.ln() - g                      # H - ln n - g
            t2 = h - (dn + half).ln() - g             # H - ln(n + 1/2) - g
            ln_em1 = ((one / (n + 1)).exp() - 1).ln()  # ln(e^(1/(n+1)) - 1)
            third = one / 3
            toth_sharp_a = one / (one - g) - 2
            alt_tail_a = one / (one - ln2) - 2
            chen_a = one / (2 * (6 * (one - g - Decimal("1.5").ln())).sqrt()) - 1
            main_a = 2 * (7 - 12 * g) / (2 * g - 1)
            out = {
                "franel": (Decimal(4 * n - 1) / (8 * n * n), t1, one / (2 * n)),
                "klamkin": (half - g, t1, one - g),
                "odd": (Decimal(2 * n + 1).ln() / 2, odd, one + Decimal(2 * n - 1).ln() / 2),
                "young": (one / (2 * (n + 1)), t1, one / (2 * n)),
                "detemple": (one / (24 * (n + 1) ** 2), t2, one / (24 * n * n)),
                "toth": (one / (2 * n + Decimal("0.4")), t1, one / (2 * n + third)),
                "toth_sharp": (one / (2 * n + toth_sharp_a), t1, one / (2 * n + third)),
                "alt_tail": (one / (2 * n + alt_tail_a), abs(ln2 - alt), one / (2 * n + 1)),
                "batir": (one + (half.exp() - 1).ln() - ln_em1, h, g - ln_em1),
                "qi_guo_family": ((dn + half).ln() + g, h, (dn + (one - g).exp() - 1).ln() + g),
                "chen": (one / (24 * (dn + chen_a) ** 2), t2, one / (24 * (dn + half) ** 2)),
                "main": (-one / (12 * n * n + main_a), t1 - one / (2 * n),
                         -one / (12 * n * n + Decimal("1.2"))),
            }
        return {k: tuple(Fraction(x) for x in v) for k, v in out.items()}
