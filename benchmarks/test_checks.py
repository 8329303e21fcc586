"""Self-test of the benchmark's output checks.

Each check must pass on the program's real output and fail once a
reference value or the output is planted wrong: a perturbed digit of
gamma, a flipped verdict, a missing record.  Sizes are small so the
file runs in a few seconds under the tier-1 pytest command.
"""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

import checks
import reference
from reference import BOUND_IDS, Reference
from workloads import WORKLOADS

from harmonicbounds.bounds import check_bound
from harmonicbounds.verify import verify_all

MAX_N = 4


@pytest.fixture(scope="module")
def report():
    return json.loads(verify_all(MAX_N, 128).to_json())


def _index(w):
    """The smallest index of the workload's range, and the twelve checks there."""
    n = w.n_range[0]
    return n, [check_bound(b, n, w.bits) for b in BOUND_IDS]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_planted_gamma_digit_fails_each_workload(name, report):
    w = WORKLOADS[name]
    n, results = _index(w)
    records = checks.records_by_key(report) if n <= MAX_N else None
    ref = Reference(w.bits)
    assert checks.check_index(results, n, w.bits, ref, records) == []
    # one digit far below the 50 published ones, far above the ball radii
    ref.gamma += Decimal(10) ** (50 - ref.digits)
    assert checks.check_index(results, n, w.bits, ref, records)


def test_report_checks_pass_then_catch_flips_and_gaps(report):
    want = checks.expected_keys(MAX_N)
    assert checks.check_records(report, want) == []

    flipped = json.loads(json.dumps(report))
    flipped["records"][5]["verdict"] = "fail"
    assert any("wrong verdicts" in f for f in checks.check_records(flipped, want))

    equality = json.loads(json.dumps(report))
    rec = next(r for r in equality["records"] if r["verdict"] == "equality")
    rec["verdict"] = "pass"
    assert checks.check_records(equality, want)

    dropped = json.loads(json.dumps(report))
    del dropped["records"][-1]
    assert any("missing" in f for f in checks.check_records(dropped, want))


def test_planted_margin_fails(report):
    records = checks.records_by_key(report)
    rec = json.loads(json.dumps(records[checks.key("bound", id="main", n=3)]))
    sides = Reference(128).sides(3)["main"]
    assert checks.check_margin(rec, sides, Fraction(0)) == []
    # move the 34th of the 36 printed digits by 5
    mantissa, _, exponent = rec["margin_mid"].partition("e")
    digit = mantissa[-3]
    mantissa = mantissa[:-3] + str((int(digit) + 5) % 10) + mantissa[-2:]
    rec["margin_mid"] = mantissa + ("e" + exponent if exponent else "")
    assert checks.check_margin(rec, sides, Fraction(0))


def test_published_digits_guard_the_reference(monkeypatch):
    digits = reference.GAMMA_DIGITS
    monkeypatch.setattr(reference, "GAMMA_DIGITS", digits[:20] + "9" + digits[21:])
    with pytest.raises(AssertionError):
        Reference(128)
