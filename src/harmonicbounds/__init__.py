"""Certified enclosures and mechanical verification of harmonic-number bounds.

The package is organised in layers:

- ball: midpoint-radius dyadic interval arithmetic (the certainty carrier)
- elementary: ln / exp / sqrt kernels with directed rounding
- specfun: Bernoulli numbers, exact harmonic sums, Euler--Maclaurin
  evaluation of H(n), the Euler--Mascheroni constant, digamma, trigamma,
  log-gamma and Stirling remainders
- bounds: a catalog of two-sided harmonic-number inequalities with sharp
  constants and declared equality cases
- verify: sharpness, positivity and refinement checks over integer sweeps
- cli: eval / bounds / verify / compare commands

Everything user-facing returns balls that *contain* the true value; a
verdict of pass or fail is only ever emitted when the enclosures decide
the comparison, otherwise the verdict is undecided.
"""

from fractions import Fraction as Rational

from .ball import (
    Ball,
    DomainError,
    EnclosureError,
    Order,
    Precision,
    RangeError,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "DomainError",
    "EnclosureError",
    "Order",
    "Precision",
    "RangeError",
    "Rational",
    "__version__",
]
