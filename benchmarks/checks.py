"""Output checks that do not trust the program.

The expected record keys and verdicts are derived here from max_n alone,
following the published check list; enclosures and report margins are
compared with `reference.Reference`, which shares no code with the
package.  Every function returns a list of failure messages, empty when
the output is right.
"""

from __future__ import annotations

import json
from fractions import Fraction

from reference import BOUND_IDS, EQUALITY_SIDES

STAGES = ("bounds", "sharpness", "g_positivity", "epsilon", "refinement", "alt_tail", "cm", "equality")
G_GRID = ("3", "4", "5", "10", "50", "100")
GAP_SAMPLES = (1, 2, 3, 10, 100, 1000)
REFINED_IDS = ("chen", "toth_sharp", "detemple", "franel", "young")
EQUALITY_IDS = frozenset(bound_id for bound_id, _side in EQUALITY_SIDES)


def key(check: str, **params) -> tuple[str, str]:
    return check, json.dumps(params, sort_keys=True)


def expected_keys(max_n: int) -> list[tuple[str, str]]:
    """Every (check, params) a full verify_all(max_n) report must hold."""
    k = key
    ns = range(1, max_n + 1)
    keys = [k("bound", id=b, n=n) for b in BOUND_IDS for n in ns]
    keys += [k(c, n=n) for n in (1, 2, 3) for c in ("f_value", "f_digits")]
    keys += [k("f_below_limit", n=n) for n in ns]
    keys += [k("f_monotone", n=n) for n in range(1, max_n)]
    samples = [n for n in GAP_SAMPLES if n <= max_n]
    keys += [k("f_gap_decreasing", n=a, next=b) for a, b in zip(samples, samples[1:])]
    if max_n >= 1000:
        keys.append(k("f_limit_close", n=1000))
    keys.append(k("g_shifted_identity", constant=58679))
    keys += [k(c, x=x) for x in G_GRID
             for c in ("g_polynomial", "g_direct", "psi_envelope", "psi1_envelope", "gap_envelope")]
    keys.append(k("epsilon_anchor", n=1))
    keys += [k("epsilon", n=n) for n in ns]
    keys += [k("refinement", n=n, outer=o) for n in range(2, max_n + 1) for o in REFINED_IDS]
    keys.append(k("x_anchor", n=1))
    keys += [k("x_decreasing", n=n) for n in range(1, max_n)]
    keys.append(k("x_above_limit", n=max_n))
    keys += [k("cm_sign", kind=kind, order=order, depth=d) for kind, order in (("F", 2), ("G", 1))
             for d in range(5)]
    keys += [k("identity", bound=b) for b in sorted(EQUALITY_IDS)]
    keys += [k("equality_numeric", bound=b, side=s, n=1) for b, s in sorted(EQUALITY_SIDES)]
    return keys


def expected_verdict(check: str, params: dict) -> str:
    """'equality' for the eight declared equality records, 'pass' for the rest."""
    if check == "bound" and params["n"] == 1 and params["id"] in EQUALITY_IDS:
        return "equality"
    return "pass"


def records_by_key(obj: dict) -> dict[tuple[str, str], dict]:
    return {key(r["check"], **r["params"]): r for r in obj["records"]}


def check_records(obj: dict, want_keys) -> list[str]:
    """Key set, one record per key, verdicts and summary of a parsed report."""
    out = []
    records = obj["records"]
    have = records_by_key(obj)
    if len(have) != len(records):
        out.append(f"{len(records) - len(have)} duplicate record keys")
    want = set(want_keys)
    missing, extra = want - set(have), set(have) - want
    if missing:
        out.append(f"{len(missing)} records missing, e.g. {sorted(missing)[0]}")
    if extra:
        out.append(f"{len(extra)} unexpected records, e.g. {sorted(extra)[0]}")
    counts = {"pass": 0, "equality": 0, "fail": 0, "undecided": 0}
    wrong = []
    for r in records:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
        if r["verdict"] != expected_verdict(r["check"], r["params"]):
            wrong.append(r)
    if wrong:
        r = wrong[0]
        out.append(f"{len(wrong)} wrong verdicts, e.g. {r['check']} {r['params']} -> {r['verdict']}")
    if obj["summary"] != counts:
        out.append(f"summary {obj['summary']} does not match the records {counts}")
    return out


def _contains(mid: Fraction, rad: Fraction, value: Fraction, slack: Fraction) -> bool:
    return abs(mid - value) <= rad + slack


def _ball(b) -> tuple[Fraction, Fraction]:
    """Exact midpoint and radius of a ball, read from its dyadic fields."""
    mid = Fraction(b.man) * Fraction(2) ** b.exp
    rad = Fraction(b.rman) * Fraction(2) ** b.rexp
    return mid, rad


def check_margin(record: dict, sides, tol: Fraction) -> list[str]:
    """The printed margin of a bound record encloses the reference margin.

    The program reports whichever of target - lower and upper - target has
    the smaller midpoint; when the two reference margins are closer than
    the enclosure width either may be chosen.
    """
    lo, t, hi = sides
    m_lo, m_hi = t - lo, hi - t
    mid = Fraction(record["margin_mid"])
    # the midpoint is printed to 36 significant digits, half-even
    slack = abs(mid) / 10**35 + tol
    rad = Fraction(record["margin_rad"])
    first, other = sorted((m_lo, m_hi))
    if _contains(mid, rad, first, slack):
        return []
    if other - first <= 2 * (rad + slack) and _contains(mid, rad, other, slack):
        return []
    return [f"margin of {record['params']} = {record['margin_mid']} +/- {record['margin_rad']} "
            f"does not enclose the reference {float(first):.6e}"]


def check_bound_result(chk, n: int, bits: int, sides, tol: Fraction) -> list[str]:
    """One check_bound result against the reference sides at n.

    The lower, target and upper enclosures must contain the reference
    values, have a radius within 2^(16 - bits) of their scale, and the
    reference values must satisfy lower < target < upper, with equality
    exactly where the catalog declares it.
    """
    out = []
    bound_id = chk.bound_id
    where = f"{bound_id} at n={n}"
    for name, ball, value in zip(("lower", "target", "upper"), (chk.lower, chk.target, chk.upper), sides):
        mid, rad = _ball(ball)
        if not _contains(mid, rad, value, tol):
            out.append(f"{name} enclosure of {where} misses the reference by {float(abs(mid - value)):.3e}")
        if rad > max(Fraction(1), abs(mid)) / 2 ** (bits - 16):
            out.append(f"{name} radius of {where} is {float(rad):.3e}, too wide for {bits} bits")
    lo, t, hi = sides
    for side, gap in (("lower", t - lo), ("upper", hi - t)):
        if n == 1 and (bound_id, side) in EQUALITY_SIDES:
            if abs(gap) > tol:
                out.append(f"declared {side} equality of {bound_id} is off by {float(gap):.3e}")
        elif gap <= tol:
            out.append(f"reference {side} side of {where} does not hold: gap {float(gap):.3e}")
    equal_sides = [s for s in ("lower", "upper") if n == 1 and (bound_id, s) in EQUALITY_SIDES]
    want = "equality" if equal_sides else "pass"
    if chk.verdict.value != want:
        out.append(f"{where} verdict {chk.verdict.value}, expected {want}")
    elif equal_sides and chk.equality_side != ",".join(equal_sides):
        out.append(f"{where} equality side {chk.equality_side!r}, expected {','.join(equal_sides)}")
    return out


def check_index(checks, n: int, bits: int, ref, records: dict | None) -> list[str]:
    """All twelve bounds at one index: enclosures and, when given, report margins."""
    out = []
    sides = ref.sides(n)
    for chk in checks:
        out += check_bound_result(chk, n, bits, sides[chk.bound_id], ref.tol)
        if records is not None:
            record = records.get(key("bound", id=chk.bound_id, n=n))
            if record is None:
                out.append(f"no report record for {chk.bound_id} at n={n}")
            else:
                out += check_margin(record, sides[chk.bound_id], ref.tol)
    return out
