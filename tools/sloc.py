"""Count code lines: lines that hold code, not docstrings, comments or blanks.

Usage: python3 tools/sloc.py

Counts every .py file under the repository's src/, wherever it is run
from, and prints one count per file and the total.  Standard library
only: ast finds the docstrings, tokenize finds the comments and blank
lines.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source that hold a token of code outside a docstring."""
    docs = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> None:
    total = 0
    for f in sorted(SRC.rglob("*.py")):
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:7d}  {f.relative_to(SRC.parent)}")
    print(f"{total:7d}  total")


if __name__ == "__main__":
    main()
