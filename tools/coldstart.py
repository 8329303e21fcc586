"""Import cost of the package, and first-call cost of each process-wide table.

Usage: python3 tools/coldstart.py

Every harmonic-bounds invocation starts in a fresh interpreter, so the
import and the tables that specfun builds once per process are paid
again by every run.  The first line is the time a fresh interpreter
takes to import bounds, report and verify and build the catalog: the
benchmark's setup_s without the interpreter's own start-up, timed, as
the benchmark times it, after the package is byte-compiled.  Then the
script times the first call of each table in a fresh interpreter of its
own (after the import, which is not timed) and prints one line per item,
in milliseconds.  It imports the package from the src/ next to it and
needs nothing beyond the standard library.
"""

from __future__ import annotations

import compileall
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _ln(p: int) -> str:
    # ln(3) reads ln 2 and every ln(1 + 2^-j) that ln divides out, which
    # elementary builds once per working precision
    return f"s.elementary.ln(s.Ball.from_int(3), {p})"


def _exp(p: int) -> str:
    # exp(1/2) reads the same table, from the ln 2 end
    return f"s.elementary.exp(s.Ball(1, -1), {p})"


def _sums(w: int) -> str:
    # every series kind summed at the shift threshold of working precision
    # w: the Bernoulli table and each kind's coefficient table grow to there
    return f"[k.at(s._shift_threshold({w}), 0, {w}) for k in s._SERIES.values()]"


def _digamma_long(p: int) -> str:
    # digamma at 364/3 rounded to p bits: the series at an endpoint with a
    # p-bit fraction, whose fixed-point sum carries the coefficients' length
    return f"s.digamma(s.Ball.from_fraction(s.Fraction(364, 3), {p}), {p})"


# (label, statement run once with `s` bound to harmonicbounds.specfun)
ITEMS = (
    ("Bernoulli table, every kind's first sum at the 144-bit threshold", _sums(144)),
    ("Bernoulli table, every kind's first sum at the 1040-bit threshold", _sums(1040)),
    ("Bernoulli table, every kind's first sum at the 4128-bit threshold", _sums(4128)),
    ("ln(3) at 128 bits, with its table of ln 2 and ln(1 + 2^-j)", _ln(128)),
    ("ln(3) at 1024 bits, with its table of ln 2 and ln(1 + 2^-j)", _ln(1024)),
    ("ln(3) at 4096 bits, with its table of ln 2 and ln(1 + 2^-j)", _ln(4096)),
    ("exp(1/2) at 128 bits, with its table of ln 2 and ln(1 + 2^-j)", _exp(128)),
    ("exp(1/2) at 1024 bits, with its table of ln 2 and ln(1 + 2^-j)", _exp(1024)),
    ("exp(1/2) at 4096 bits, with its table of ln 2 and ln(1 + 2^-j)", _exp(4096)),
    ("pi_ball(1024)", "s.pi_ball(1024)"),
    ("pi_ball(4096)", "s.pi_ball(4096)"),
    ("euler_gamma(128)", "s.euler_gamma(128)"),
    ("euler_gamma(1024)", "s.euler_gamma(1024)"),
    # expm1's term count at x = 2 and 4120 bits scans to k = 564 and
    # builds _lower's bound for every k on the way
    ("expm1 term count at x = 2, target 4120 bits", "s._SERIES['expm1'].terms(1.0, 4120)"),
    ("digamma at 364/3 rounded to 1024 bits, 1024 bits", _digamma_long(1024)),
    ("digamma at 364/3 rounded to 4096 bits, 4096 bits", _digamma_long(4096)),
)

IMPORT_LABEL = "import bounds, report and verify, and build the catalog"

_IMPORT = """\
import time
t = time.perf_counter()
from harmonicbounds import bounds, report, verify
bounds.catalog()
print(time.perf_counter() - t)
"""

_CHILD = """\
import time
from harmonicbounds import specfun as s
t = time.perf_counter()
{stmt}
print(time.perf_counter() - t)
"""


def fresh(code: str) -> str:
    """What `code` prints, run in a fresh interpreter with src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return proc.stdout


def import_time() -> float:
    """Seconds a fresh interpreter takes to import the package and build the catalog."""
    return float(fresh(_IMPORT).strip().splitlines()[-1])


def first_call(stmt: str) -> float:
    """Seconds taken by `stmt` as the first call in a fresh interpreter."""
    return float(fresh(_CHILD.format(stmt=stmt)).strip().splitlines()[-1])


def main() -> None:
    # byte-compiled first, as the benchmark does, so that the import line
    # does not time the compiler where bytecode is not written back
    compileall.compile_dir(str(SRC / "harmonicbounds"), quiet=1)
    print(f"{1000 * import_time():9.1f} ms  {IMPORT_LABEL}", flush=True)
    for label, stmt in ITEMS:
        print(f"{1000 * first_call(stmt):9.1f} ms  {label}", flush=True)


if __name__ == "__main__":
    main()
