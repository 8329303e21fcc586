"""Tests of tools/reportsha.py, the report fingerprint printer, and the
fingerprints it prints for the current code."""

from __future__ import annotations

import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from harmonicbounds.verify import verify_all

_PATH = Path(__file__).resolve().parents[1] / "tools" / "reportsha.py"


def test_fingerprints_one_configuration_in_a_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, str(_PATH), "5", "128"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    head, keys, js, *families = proc.stdout.splitlines()
    rep = verify_all(5, 128)
    assert head.startswith(f"verify_all(5, 128): {len(rep.records)} records ")
    assert re.fullmatch(r"  keys  [0-9a-f]{64}", keys)
    assert js == "  json  " + hashlib.sha256(rep.to_json().encode("utf-8")).hexdigest()
    names = [line.split()[0] for line in families]
    assert names == sorted({r.check for r in rep.records})
    assert all(re.fullmatch(r"  \S+ +[0-9a-f]{64}", line) for line in families)


def _tool():
    spec = importlib.util.spec_from_file_location("reportsha", _PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fingerprints_with_two_jobs_are_the_one_job_lines():
    # 40 fans out to two jobs where there are two cores; a report does not
    # depend on the job count, so neither do its lines
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--jobs", "2", "40", "128"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert proc.stdout.splitlines() == _tool().fingerprint(40, 128)
    for argv in (
        ["40", "128", "--jobs", "2"], ["--jobs"], ["--jobs", "2", "40"],
        ["20", "abc"], ["--jobs", "x", "40", "128"],
        # in range for int() but not for verify_all
        ["2", "128"], ["--jobs", "0", "5", "128"], ["5", "32"],
    ):
        with pytest.raises(SystemExit, match="usage"):
            _tool().main(argv)


# Report fingerprints of the current code.  A change that moves a verdict, a
# record or a report byte must update these and say why.
PINNED = {
    (500, 128): (
        "620791a783fd1b4d3384cf9c16f013db10d8ab1842892c6177fd54eb5bef342b",
        "8f8428110c67a54b498caad8c4f0e187d7938660e3be3978593a664f6a1c4631",
    ),
    (25, 1024): (
        "cc80eafc8ddfa7aa7123604fb49f61bea79609b667f1882f97b4889029354c75",
        "c847164cf94b27c1461627d990391c1a67ee084076704f842fec8aec09cc7e71",
    ),
}


@pytest.mark.parametrize("max_n, bits", sorted(PINNED))
def test_report_fingerprints_are_pinned(max_n, bits):
    _, keys, js, *_ = _tool().fingerprint(max_n, bits)
    assert (keys.split()[-1], js.split()[-1]) == PINNED[max_n, bits]
