"""Smoke test of tools/coldstart.py, the first-call timer for specfun's tables."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "coldstart.py"
_spec = importlib.util.spec_from_file_location("coldstart", _PATH)
coldstart = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coldstart)


def test_first_call_times_one_item_in_a_fresh_interpreter():
    labels = [label for label, _ in coldstart.ITEMS]
    assert len(set(labels)) == len(labels)
    stmt = dict(coldstart.ITEMS)["euler_gamma(128)"]
    assert 0 < coldstart.first_call(stmt) < 60
