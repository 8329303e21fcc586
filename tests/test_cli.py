"""End-to-end tests of the command-line interface.

Most cases drive main() in-process and capture stdout; a couple of
subprocess tests confirm the declared entry points and exit codes. They
run the package imported here, so no installation is needed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmonicbounds
from harmonicbounds.cli import BOUNDS_CSV_HEADER, EXACT_MAX_N, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_exact_fraction(capsys):
    code, out, _ = run_cli(capsys, "eval", "10", "--exact")
    assert code == 0
    assert out.strip() == "7381/2520"


def test_eval_exact_whole_number(capsys):
    code, out, _ = run_cli(capsys, "eval", "1", "--exact")
    assert code == 0
    assert out.strip() == "1"


def test_eval_exact_past_the_int_to_str_digit_limit(capsys):
    # from n = 9871 on, H(n) has more digits than CPython's default
    # int-to-str limit of 4300
    from decimal import Decimal

    from harmonicbounds.specfun import harmonic_exact

    code, out, _ = run_cli(capsys, "eval", "9871", "--exact")
    assert code == 0
    num, den = (int(Decimal(part)) for part in out.strip().split("/"))
    h = harmonic_exact(9871)
    assert (num, den) == (h.numerator, h.denominator)


def test_eval_exact_refuses_n_above_its_limit(capsys):
    code, out, err = run_cli(capsys, "eval", str(EXACT_MAX_N + 1), "--exact")
    assert code == 2
    assert out == ""
    assert f"n <= {EXACT_MAX_N}" in err
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    assert f"n at most {EXACT_MAX_N}" in capsys.readouterr().out
    # the decimal enclosure has no such limit
    code, out, _ = run_cli(capsys, "eval", str(EXACT_MAX_N + 1))
    assert code == 0 and "+/-" in out


def test_eval_decimal_enclosure(capsys):
    code, out, _ = run_cli(capsys, "eval", "100")
    assert code == 0
    assert out.startswith("5.18737751763962")
    assert "+/-" in out


def test_eval_higher_precision_narrows_radius(capsys):
    _, out128, _ = run_cli(capsys, "eval", "7", "--precision", "128")
    _, out512, _ = run_cli(capsys, "eval", "7", "--precision", "512")
    assert out128.split("+/-")[0].strip()[:20] == out512.split("+/-")[0].strip()[:20]


def test_eval_huge_n_encloses_the_harmonic_number(capsys):
    import mpmath as mp
    from fractions import Fraction

    code, out, _ = run_cli(capsys, "eval", "1000000000000")
    assert code == 0
    mid, rad = (Fraction(part.strip()) for part in out.split("+/-"))
    assert 0 < rad < Fraction(1, 10**30)
    with mp.workdps(60):
        want = Fraction(mp.nstr(mp.harmonic(10**12), 55))
    # the midpoint is printed to 36 significant digits, so allow half a
    # unit in its last place on top of the radius
    assert abs(want - mid) <= rad + abs(mid) / 10**35 + Fraction(1, 10**50)


def test_eval_rejects_bad_n():
    for bad in ("0", "-3", "2.5", "ten"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", bad])
        assert exc.value.code == 2


# CPython's limit on the digits int() reads from a string
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not INT_DIGITS, reason="no int digit limit")


@needs_digit_limit
def test_bounds_takes_n_with_as_many_digits_as_the_limit(capsys):
    code, _, err = run_cli(capsys, "bounds", "1" + "0" * (INT_DIGITS - 1))
    assert code != 2, err


@needs_digit_limit
@pytest.mark.parametrize("command", ["bounds", "eval"])
def test_n_past_the_digit_limit_is_refused_without_echoing_it(capsys, command):
    code, _, err = run_cli(capsys, command, "1" + "0" * INT_DIGITS)
    assert code == 2
    assert f"has more than {INT_DIGITS} digits" in err
    assert "0" * 100 not in err


@pytest.mark.parametrize("command", ["bounds", "eval"])
def test_a_long_non_numeral_is_refused_without_echoing_it(capsys, command):
    # a 1, an underscore and 5000 zeros is no plain numeral: the error
    # shows its first characters and its length, not the whole text
    text = "1_" + "0" * 5000
    code, _, err = run_cli(capsys, command, text)
    assert code == 2
    assert "not an integer: '1_000" in err and "(5002 characters)" in err
    assert "0" * 100 not in err and len(err) < 1000


def test_a_short_non_numeral_is_echoed_whole(capsys):
    code, _, err = run_cli(capsys, "bounds", "abc")
    assert code == 2
    assert "not an integer: 'abc'" in err


def test_eval_rejects_out_of_range_precision():
    for bad in ("52", "4097", "-1", "big"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "5", "--precision", bad])
        assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_table_shows_equality_verdict(capsys):
    code, out, _ = run_cli(capsys, "bounds", "1", "--bound", "main")
    assert code == 0
    assert "equality(lower)" in out
    assert out.splitlines()[0].startswith("bound")


def test_bounds_table_all_twelve(capsys):
    code, out, _ = run_cli(capsys, "bounds", "2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 2 + 12  # header, separator, one row per bound
    assert all("pass" in ln or "bound" in ln or "-" in ln for ln in lines)


def test_bounds_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "bounds", "2", "--bound", "main", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == BOUNDS_CSV_HEADER
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert row["bound_id"] == "main" and row["n"] == "2"
    assert row["verdict"] == "pass"
    # all three enclosures present with nonempty mids
    assert row["lower_mid"] and row["target_mid"] and row["upper_mid"]
    assert float(row["lower_mid"]) < float(row["target_mid"]) < float(row["upper_mid"])


def test_bounds_csv_rational_endpoints(capsys):
    code, out, _ = run_cli(capsys, "bounds", "1", "--bound", "toth", "--format", "csv")
    assert code == 0
    row = dict(zip(*list(csv.reader(io.StringIO(out)))))
    assert row["lower_mid"].startswith("0.41666666")
    assert row["upper_mid"].startswith("0.42857142")


def test_bounds_json_reuses_report_schema(capsys):
    code, out, _ = run_cli(capsys, "bounds", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"summary", "records"}
    assert obj["summary"]["pass"] == 12
    assert {r["check"] for r in obj["records"]} == {"bound"}
    assert [r["params"]["id"] for r in obj["records"]][:3] == ["franel", "klamkin", "odd"]
    assert out == json.dumps(obj, indent=2) + "\n"


def test_bounds_unknown_bound_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "1", "--bound", "euler"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_table_summary_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5", "--checks", "bounds,equality")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("summary: pass=")
    assert "fail=0" in first and "undecided=0" in first


def test_verify_sharpness_check_only(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "5", "--checks", "sharpness", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    checks = {r["check"] for r in obj["records"]}
    assert checks == {"f_value", "f_digits", "f_below_limit", "f_monotone", "f_gap_decreasing"}
    assert obj["summary"]["fail"] == 0 and obj["summary"]["undecided"] == 0


def test_verify_json_is_the_reports_to_json_and_a_newline_with_either_job_count(capsys, monkeypatch):
    from harmonicbounds.verify import verify_all

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    expected = verify_all(20, 128).to_json() + "\n"
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "20", "--format", "json", "--jobs", jobs)
        assert (code, out) == (0, expected)


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "4", "--checks", "epsilon", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "params", "verdict", "margin_mid", "margin_rad", "precision_bits"]
    assert all(r[2] == "pass" for r in rows[1:])


def test_verify_rejects_unknown_checks(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "bogus", "--max-n", "5")
    assert code == 2
    assert "unknown checks" in err


def test_verify_rejects_small_max_n(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 2
    assert "max-n" in err


def test_verify_rejects_empty_checks(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", " , ", "--max-n", "5")
    assert code == 2


def test_verify_output_is_identical_across_jobs(capsys):
    args = ("verify", "--max-n", "12", "--checks", "bounds", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *args, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_reports_refinement_records(capsys):
    code, out, _ = run_cli(capsys, "compare", "--max-n", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert {r["check"] for r in obj["records"]} == {"refinement"}
    assert len(obj["records"]) == 4 * 5


def test_compare_rejects_small_max_n(capsys):
    code, _, err = run_cli(capsys, "compare", "--max-n", "1")
    assert code == 2
    assert "max-n" in err


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    """This environment, with the package under test first on the path."""
    src = str(Path(harmonicbounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_child(*argv: str) -> subprocess.CompletedProcess:
    """Run argv under this interpreter, importing the package under test."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=_child_env()
    )


def test_module_entry_point():
    proc = _run_child("-m", "harmonicbounds", "eval", "10", "--exact")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7381/2520"


def test_console_script_usage_error_exit_code():
    # Run the console script declared in pyproject.toml the way the
    # generated wrapper does, so no installed script on PATH is needed.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["harmonic-bounds"]
    module, attr = target.split(":")
    proc = _run_child(
        "-c",
        f"import sys; from {module} import {attr}; sys.exit({attr}())",
        "eval",
        "0",
    )
    assert proc.returncode == 2
    assert "must be >= 1" in proc.stderr


def test_a_reader_that_closes_stdout_early_gets_no_traceback_and_status_141():
    # the json report at max-n 200 is about a megabyte, more than a pipe
    # holds, so the CLI is still writing when the reader closes its end
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "harmonicbounds", "verify", "--max-n", "200", "--format", "json", "--jobs", "2"],
        stdout=write_end, stderr=subprocess.PIPE, text=True, env=_child_env(),
    )
    os.close(write_end)
    try:
        assert os.read(read_end, 16)
    finally:
        os.close(read_end)
    _, err = proc.communicate(timeout=300)
    assert "Traceback" not in err
    assert (proc.returncode, err) == (141, "")
