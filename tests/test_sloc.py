"""Test of tools/sloc.py, the code-line counter for src/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

FIXTURE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string that is not a docstring
        spans two lines"""
        return (x +
                1)


def g():
    pass
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, def f, s = (2 lines), return (2 lines), def g, pass
    assert sloc.code_lines(FIXTURE) == 9
    assert sloc.code_lines("") == 0
    assert sloc.code_lines('"""only a docstring"""\n# and a comment\n\n') == 0
