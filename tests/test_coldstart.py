"""Smoke test of tools/coldstart.py, the import and first-call timer, and
of what importing the package loads."""

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


def test_the_first_line_is_the_import_time(monkeypatch, capsys):
    monkeypatch.setattr(coldstart, "ITEMS", ())
    coldstart.main()
    (line,) = capsys.readouterr().out.splitlines()
    ms, label = line.split(" ms  ")
    assert 0 < float(ms) < 60_000
    assert label == coldstart.IMPORT_LABEL


# the modules that every run would pay for at start-up and none needs:
# dataclasses pulls in inspect, and multiprocessing serves only the fan-out
_UNNEEDED = ("dataclasses", "inspect", "multiprocessing")

_STARTUP = f"""\
import sys
before = set(sys.modules)
import harmonicbounds
from harmonicbounds import bounds, cli, report, verify
bounds.catalog()
print(" ".join(sorted(set({_UNNEEDED!r}) & (set(sys.modules) - before))))
"""


def test_importing_the_package_loads_no_dataclasses_inspect_or_multiprocessing():
    # modules loaded before the import (by site, say) do not count
    assert coldstart.fresh(_STARTUP).split() == []
