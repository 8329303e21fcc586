"""Tests for verdict bookkeeping and deterministic report serialisation."""

from __future__ import annotations

import io
import json
from enum import Enum, IntEnum

import pytest

from harmonicbounds.ball import Ball
from harmonicbounds.report import (
    CheckRecord,
    MID_DIGITS,
    VerificationReport,
    Verdict,
    ball_mid_str,
    ball_rad_str,
    render_table,
)


def _rec(check: str, verdict: Verdict, margin: Ball | None = Ball(1, -4)) -> CheckRecord:
    return CheckRecord(
        check=check,
        params=(("n", 3), ("side", "lower")),
        verdict=verdict,
        margin=margin,
        precision_bits=128,
    )


def test_verdict_values_are_the_wire_strings():
    assert [v.value for v in Verdict] == ["pass", "equality", "fail", "undecided"]
    assert Verdict.PASS == "pass"  # str-enum comparison


def test_ball_string_helpers():
    assert ball_mid_str(None) == "" and ball_rad_str(None) == ""
    assert ball_mid_str(Ball.from_int(1), 6) == "1.00000"
    assert ball_rad_str(Ball.from_int(1)) == "0"
    assert len(ball_mid_str(Ball.from_int(1)).replace(".", "").lstrip("0")) <= MID_DIGITS


def test_record_serialisation_roundtrip():
    r = _rec("bound", Verdict.PASS)
    obj = r.to_json_obj()
    assert obj["check"] == "bound"
    assert obj["params"] == {"n": 3, "side": "lower"}
    assert obj["verdict"] == "pass"
    assert obj["precision_bits"] == 128
    assert r.params_dict() == {"n": 3, "side": "lower"}


def test_summary_counts_and_ok_flag():
    rep = VerificationReport()
    rep.extend([_rec("a", Verdict.PASS), _rec("b", Verdict.EQUALITY), _rec("c", Verdict.PASS)])
    assert rep.summary() == {"pass": 2, "equality": 1, "fail": 0, "undecided": 0}
    assert rep.ok
    rep.append(_rec("d", Verdict.FAIL))
    assert not rep.ok
    assert [r.check for r in rep.verdicts(Verdict.FAIL)] == ["d"]


def test_exit_codes_prioritise_fail_over_undecided():
    rep = VerificationReport([_rec("a", Verdict.PASS)])
    assert rep.exit_code() == 0
    rep.append(_rec("b", Verdict.UNDECIDED))
    assert rep.exit_code() == 3
    rep.append(_rec("c", Verdict.FAIL))
    assert rep.exit_code() == 1


def test_json_shape_and_determinism():
    rep = VerificationReport([_rec("a", Verdict.PASS), _rec("b", Verdict.EQUALITY, None)])
    text = rep.to_json()
    assert text == rep.to_json()  # byte-identical re-render
    obj = json.loads(text)
    assert set(obj) == {"summary", "records"}
    assert obj["summary"]["pass"] == 1
    assert obj["records"][1]["margin_mid"] == ""
    assert obj["records"][1]["margin_rad"] == ""


def test_csv_rows_shape():
    rep = VerificationReport([_rec("a", Verdict.PASS)])
    rows = rep.to_csv_rows()
    assert rows[0] == ["check", "params", "verdict", "margin_mid", "margin_rad", "precision_bits"]
    assert rows[1][0] == "a"
    assert json.loads(rows[1][1]) == {"n": 3, "side": "lower"}
    assert rows[1][2] == "pass"
    assert rows[1][5] == "128"


def test_render_table_alignment():
    rows = [["col", "x"], ["value", "y"]]
    out = render_table(rows)
    lines = out.split("\n")
    assert lines[0].startswith("col")
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].startswith("value")
    assert render_table([]) == ""


def _dumps(rep: VerificationReport) -> str:
    """The report as json itself writes it: the reference for to_json."""
    obj = {"summary": rep.summary(), "records": [r.to_json_obj() for r in rep.records]}
    return json.dumps(obj, indent=2)


class _Kind(IntEnum):
    ONE = 1


_ODD_PARAMS = [
    (("s", 'say "hi"'),),
    (("s", "back\\slash"),),
    (("s", "tab\tbell\x07"),),
    (("s", "γ ≈ 0.577 😀"),),
    (('key "quoted"\\', 1),),
    (("flag", True),),
    (("x", 0.5),),
    (("x", None),),
    (("x", [1, [2, "three"]]),),
    ((7, "int key"),),
    (("kind", _Kind.ONE),),
    (("n", 1), ("n", 2), ("id", "dup")),
    (),
]


@pytest.mark.parametrize("params", _ODD_PARAMS)
def test_to_json_matches_json_dumps_on_odd_params(params):
    odd = CheckRecord("odd", params, Verdict.PASS, Ball(3, -2, 1, -9), 128)
    rep = VerificationReport([_rec("a", Verdict.PASS), odd, _rec("b", Verdict.FAIL, None)])
    assert rep.to_json() == _dumps(rep)


def test_to_json_matches_json_dumps_on_every_check_and_on_edge_reports():
    from harmonicbounds.verify import verify_all

    full = verify_all(20, 128)  # every stage, all 21 check families
    assert len({r.check for r in full.records}) == 21
    # so every record takes the template, not the fallback
    assert all(type(v) in (int, str) for r in full.records for _, v in r.params)
    empty_params = CheckRecord("bare", (), Verdict.UNDECIDED, None, 64)
    # a check name that is a str subclass and a bool precision take the fallback
    odd_fields = CheckRecord(Verdict.PASS, (("n", 1),), Verdict.PASS, None, True)
    for rep in (full, VerificationReport(), VerificationReport([empty_params, odd_fields])):
        assert rep.to_json() == _dumps(rep)


def test_write_json_writes_to_json_record_by_record():
    from harmonicbounds.verify import verify_all

    fallback = CheckRecord("odd", (("x", 0.5),), Verdict.PASS, Ball(3, -2, 1, -9), 128)
    large = verify_all(200, 128)
    fanned_out = verify_all(40, 128, jobs=2)  # with job-made texts, where it fans out
    for rep in (
        VerificationReport(),
        VerificationReport([_rec("a", Verdict.PASS)]),
        VerificationReport([fallback]),
        VerificationReport([_rec("a", Verdict.PASS), fallback, _rec("b", Verdict.FAIL, None)]),
        large,
        fanned_out,
    ):
        stream = io.StringIO()
        rep.write_json(stream)
        assert stream.getvalue() == rep.to_json() == _dumps(rep)


class _OtherVerdict(Enum):
    """A verdict that is not a `Verdict` but has the same wire value."""

    PASS = "pass"


def test_to_json_head_and_tail_ride_on_the_first_and_last_record():
    template = _rec("a", Verdict.PASS)
    fallback = CheckRecord("odd", (("x", 0.5),), Verdict.PASS, Ball(3, -2, 1, -9), 128)
    foreign = CheckRecord("alien", (("n", 1),), _OtherVerdict.PASS, None, 64)
    for records in (
        [template],  # one record, through the template
        [fallback],  # one record, through json.dumps
        [foreign],  # one record, through json.dumps: its verdict is not a Verdict
        [fallback, template, _rec("b", Verdict.FAIL, None)],  # the first takes the fallback
    ):
        rep = VerificationReport(records)
        assert rep.to_json() == _dumps(rep)
