"""Fingerprints of verify_all reports, for comparing two versions of the code.

Usage: python3 tools/reportsha.py [--jobs J] [MAX_N BITS ...]

For each (MAX_N, BITS) pair (default: 500 128, 25 1024 and 10000 128) it
runs verify_all(MAX_N, BITS, jobs=J), J = 1 unless given, and prints:

  - the record count and the verdict summary
  - keys: the SHA-256 of the sorted (check, params, verdict) triples, which
    moves only when a verdict or the set of records moves
  - json: the SHA-256 of the report's to_json() bytes
  - one SHA-256 per check family (the records sharing a `check` name),
    which shows where the bytes moved

A report does not depend on J, so neither do the lines: the same
arguments with --jobs 2 must print what they print with one job, which
checks the fan-out's records and bytes.  It imports the package from the
src/ next to it and needs nothing beyond the standard library.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harmonicbounds.ball import bits_of  # noqa: E402
from harmonicbounds.specfun import check_index  # noqa: E402
from harmonicbounds.verify import verify_all  # noqa: E402

DEFAULT_PAIRS = ((500, 128), (25, 1024), (10000, 128))
USAGE = "usage: reportsha.py [--jobs J] [MAX_N BITS ...]"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(max_n: int, bits: int, jobs: int = 1) -> list[str]:
    """The printed lines for verify_all(max_n, bits, jobs=jobs)."""
    rep = verify_all(max_n, bits, jobs=jobs)
    keys = sorted(
        json.dumps([r.check, r.params_dict(), r.verdict.value], separators=(",", ":"))
        for r in rep.records
    )
    families: dict[str, list[dict]] = {}
    for r in rep.records:
        families.setdefault(r.check, []).append(r.to_json_obj())
    lines = [
        f"verify_all({max_n}, {bits}): {len(rep.records)} records "
        + json.dumps(rep.summary(), separators=(",", ":")),
        f"  keys  {_sha(chr(10).join(keys))}",
        f"  json  {_sha(rep.to_json())}",
    ]
    for check in sorted(families):
        lines.append(f"  {check:<20s} {_sha(json.dumps(families[check]))}")
    return lines


def main(argv: list[str]) -> None:
    jobs = 1
    try:
        if argv[:1] == ["--jobs"] and len(argv) > 1:
            jobs, argv = int(argv[1]), argv[2:]
        nums = [int(a) for a in argv]  # a stray --jobs, too, is no int
        if len(nums) % 2:
            raise SystemExit(USAGE)
        pairs = list(zip(nums[::2], nums[1::2])) or DEFAULT_PAIRS
        # verify_all's own range checks, for every pair before the first runs
        check_index(jobs, 1, "jobs")
        for max_n, bits in pairs:
            check_index(max_n, 3, "max_n")
            bits_of(bits)
    except ValueError:
        raise SystemExit(USAGE) from None
    for max_n, bits in pairs:
        print("\n".join(fingerprint(max_n, bits, jobs)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
