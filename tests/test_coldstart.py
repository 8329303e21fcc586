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
# dataclasses pulls in inspect, and nothing uses multiprocessing: the fan-out
# forks its children with os.fork
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


_TABLES = """\
from harmonicbounds import specfun, verify
verify.verify_all(25, 1024)
print(len(specfun._BERNOULLI))
print(max(len(ints) for s in specfun._SERIES.values() for ints in s._fixed.values()))
"""


def test_a_fresh_1024_bit_certification_builds_short_tables():
    # at the shift threshold of 1040 working bits each kind needs 131-135
    # terms, about half the 269-273 it needs at half that threshold, and the
    # longest table is expm1's at x = 2 (140 terms): the Bernoulli table
    # stops at B_282, where at half the threshold it reaches B_548
    bernoulli, longest = map(int, coldstart.fresh(_TABLES).split())
    assert bernoulli <= 300
    assert longest <= 150
