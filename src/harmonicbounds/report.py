"""Verdicts, check records and deterministic report serialisation.

All rendering goes through the exact dyadic-to-decimal conversion in the
ball module, so a report is byte-identical across runs and across job
counts: no floats, no locale, no dict-ordering surprises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(frozen=True)
class CheckRecord:
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


@dataclass
class VerificationReport:
    """Ordered collection of check records with verdict bookkeeping."""

    records: list[CheckRecord] = field(default_factory=list)

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

    def to_json(self) -> str:
        obj = {
            "summary": self.summary(),
            "records": [r.to_json_obj() for r in self.records],
        }
        return json.dumps(obj, indent=2)

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
