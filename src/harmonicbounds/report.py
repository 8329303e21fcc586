"""Verdicts, check records and deterministic report serialisation.

All rendering goes through the exact dyadic-to-decimal conversion in the
ball module, so a report is byte-identical across runs and across job
counts: no floats, no locale, no dict-ordering surprises.

A `CheckRecord` is an immutable named tuple: it is iterable, indexable
and has a `len`, and it equals a plain tuple of the same fields.  A
`VerificationReport` is a plain class whose `records` list grows in place.

The JSON report is exactly the bytes of `json.dumps(obj, indent=2)`, but
not written through it: with `indent` set, CPython's `json` runs its
pure-Python encoder, which cost more than certifying the report.  Each
record is one f-string in the fixed key order, with `indent=2`'s
whitespace, every string escaped by `json.encoder.encode_basestring_ascii`
and every exact int formatted as `int.__repr__` writes it, as `json` does.
The margins' decimal strings hold only digits, '.', '-', '+' and 'e',
which `json` does not escape, so they are quoted as they are.  A record
whose check is not exactly a `str`, whose verdict is not a `Verdict`,
whose precision is not exactly an `int`, or whose params hold a key that
is not exactly a `str` or a value that is not exactly an `int` or a `str`
(a bool, a float, None, an `IntEnum`, a list) is written by
`json.dumps(record.to_json_obj(), indent=2)` instead, indented to its
place, so its bytes are `json`'s by construction.

`VerificationReport.write_json` writes it to a stream record by record,
so neither all the texts nor the whole document need be in memory at
once; `to_json` is the join of what it writes.  `_json_text` is the one
writer of a record's text, but it need not run where the report is
written: a fanned-out `verify_all` has its jobs render each record where
it is made, and hands the texts to the report it returns as one list
aligned with `records`.  A job-made text is used only while the record at
its index is the very object it was rendered from; a record replaced,
inserted, removed or moved since is rendered again when it is written.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii as _str
from typing import NamedTuple

from .ball import Ball, dyadic_decimal, radius_decimal

__all__ = [
    "Verdict",
    "CheckRecord",
    "VerificationReport",
    "MID_DIGITS",
    "ball_mid_str",
    "ball_rad_str",
    "render_table",
]

# significant digits used for midpoint columns in all output formats
MID_DIGITS = 36


class Verdict(str, Enum):
    PASS = "pass"
    EQUALITY = "equality"
    FAIL = "fail"
    UNDECIDED = "undecided"


def ball_mid_str(b: Ball | None, digits: int = MID_DIGITS) -> str:
    if b is None:
        return ""
    return dyadic_decimal(b.man, b.exp, digits)


def ball_rad_str(b: Ball | None) -> str:
    if b is None:
        return ""
    return radius_decimal(b.r, b.exp)


# each verdict's value as `json` writes it, read once per record by _json_text
_VERDICT_JSON = {v: _str(v.value) for v in Verdict}


class CheckRecord(NamedTuple):
    """Outcome of one verification step."""

    check: str
    params: tuple[tuple[str, object], ...]
    verdict: Verdict
    margin: Ball | None
    precision_bits: int

    def params_dict(self) -> dict:
        return dict(self.params)

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "params": self.params_dict(),
            "verdict": self.verdict.value,
            "margin_mid": ball_mid_str(self.margin),
            "margin_rad": ball_rad_str(self.margin),
            "precision_bits": self.precision_bits,
        }

    def _json_text(self) -> str:
        """This record as an element of the report's "records" list: the
        bytes `json.dumps(self.to_json_obj(), indent=2)` writes there."""
        params, m, verdict = self.params_dict(), self.margin, _VERDICT_JSON.get(self.verdict)
        items = [
            f"        {_str(k)}: {_str(v) if type(v) is str else v}"
            for k, v in params.items() if type(k) is str and type(v) in (int, str)
        ]
        if (len(items) < len(params) or verdict is None
                or not (type(self.check) is str and type(self.precision_bits) is int)):
            return "    " + json.dumps(self.to_json_obj(), indent=2).replace("\n", "\n    ")
        items = "{\n" + ",\n".join(items) + "\n      }" if items else "{}"
        return (
            f'    {{\n      "check": {_str(self.check)},\n      "params": {items},\n'
            f'      "verdict": {verdict},\n'
            f'      "margin_mid": "{ball_mid_str(m)}",\n      "margin_rad": "{ball_rad_str(m)}",\n'
            f'      "precision_bits": {self.precision_bits}\n    }}'
        )


class VerificationReport:
    """Ordered collection of check records with verdict bookkeeping."""

    def __init__(self, records: list[CheckRecord] | None = None) -> None:
        self.records = [] if records is None else records
        # job-made texts: _texts[i] is _texts_of[i]._json_text()
        self._texts: list[str] = []
        self._texts_of: list[CheckRecord] = []

    def _with_texts(self, texts: list[str]) -> VerificationReport:
        """This report, which writes texts[i] for records[i] while records[i]
        is the record it is now; texts[i] must be its _json_text()."""
        self._texts, self._texts_of = texts, self.records[:len(texts)]
        return self

    def __eq__(self, other):
        return self.records == other.records if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"VerificationReport(records={self.records!r})"

    def append(self, record: CheckRecord) -> None:
        self.records.append(record)

    def extend(self, records) -> None:
        self.records.extend(records)

    def summary(self) -> dict[str, int]:
        out = {v.value: 0 for v in Verdict}
        for r in self.records:
            out[r.verdict.value] += 1
        return out

    @property
    def ok(self) -> bool:
        s = self.summary()
        return s["fail"] == 0 and s["undecided"] == 0

    def verdicts(self, verdict: Verdict) -> list[CheckRecord]:
        return [r for r in self.records if r.verdict is verdict]

    def exit_code(self) -> int:
        s = self.summary()
        if s["fail"]:
            return 1
        if s["undecided"]:
            return 3
        return 0

    def write_json(self, stream) -> None:
        """Write `json.dumps({"summary": ..., "records": [...]}, indent=2)` to
        stream, a text stream, record by record: each record's job-made text
        while the record is the one it was made from, else its
        `CheckRecord._json_text`."""
        write = stream.write
        summary = ",\n".join(f"    {_str(k)}: {v}" for k, v in self.summary().items())
        write(f'{{\n  "summary": {{\n{summary}\n  }},\n  "records": ')
        if not self.records:
            write("[]\n}")
            return
        texts, texts_of = self._texts, self._texts_of
        made, sep = len(texts_of), "[\n"
        for i, r in enumerate(self.records):
            write(sep)
            write(texts[i] if i < made and texts_of[i] is r else r._json_text())
            sep = ",\n"
        write("\n  ]\n}")

    def to_json(self) -> str:
        """What write_json writes, as one string."""
        pieces = _Pieces()
        self.write_json(pieces)
        return "".join(pieces)

    def to_csv_rows(self) -> list[list[str]]:
        head = ["check", "params", "verdict", "margin_mid", "margin_rad", "precision_bits"]
        rows = [head]
        for r in self.records:
            rows.append(
                [
                    r.check,
                    json.dumps(r.params_dict(), separators=(",", ":")),
                    r.verdict.value,
                    ball_mid_str(r.margin),
                    ball_rad_str(r.margin),
                    str(r.precision_bits),
                ]
            )
        return rows


class _Pieces(list):
    """A list that write_json can write to: each write appends a piece."""

    write = list.append


def render_table(rows: list[list[str]]) -> str:
    """Left-aligned plain-text table; first row is the header."""
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for idx, r in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
