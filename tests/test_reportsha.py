"""Smoke test of tools/reportsha.py, the report fingerprint printer."""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
from pathlib import Path

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
