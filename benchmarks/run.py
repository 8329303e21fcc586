"""Benchmark of the harmonicbounds certifier, end to end and layer by layer.

    python3 benchmarks/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; it imports the package from ./src and
needs nothing beyond the standard library.  Every round runs in a fresh
interpreter (worker.py), because every harmonic-bounds invocation starts
cold, and makes the same calls on the same inputs; rounds repeat until the
next one would end after --seconds (at least MIN_ROUNDS of them).  Each
call is timed between two timings of a fixed reference kernel and
reported in kernel times, as its median over the rounds.  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, and the
spans go to benchmarks/out/.  --workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from checks import STAGES  # noqa: E402
from spans import span_metrics  # noqa: E402
from workloads import MIN_ROUNDS, PER_ROUND, WORKLOADS, Workload  # noqa: E402

CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def spawn(cfg: dict) -> dict:
    """Run one worker in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cfg = dict(cfg, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{cfg['job']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _round(w: Workload, seed: int, trace: int = 0, check: bool = False) -> dict:
    return spawn({"job": "round", "workload": w.name, "seed": seed, "trace": trace, "check": check})


class Tally:
    """Operations attempted and failed in a run, with the first failure messages.

    A round's operations are its certification (verify workloads) and its
    index queries.  The first round is checked against the references;
    a later round's operation counts as failed when its digest differs from
    the checked round's or when the checked one failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.checked: list[tuple[str, bool]] = []

    def crashed(self, ops: int, exc: Exception) -> None:
        self.attempted += ops
        self.failed += ops
        self.messages.append(str(exc))

    def add(self, r: dict) -> None:
        self.attempted += len(r["digests"])
        if "failures" in r:
            self.checked = [(d, bool(f)) for d, f in zip(r["digests"], r["failures"])]
            self.messages += [m for f in r["failures"] for m in f]
        for i, d in enumerate(r["digests"]):
            want, bad = self.checked[i] if i < len(self.checked) else ("", True)
            if bad or d != want:
                self.failed += 1
                if not bad:
                    self.messages.append(f"operation {i} gave other results than in the checked round")

    def result(self, values: dict, metric_units: dict) -> dict:
        for line in self.messages[:10]:
            print(f"# FAILED {line}", flush=True)
        metrics = {n: {"value": values[n], "unit": u} for n, u in metric_units.items() if n in values}
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}", flush=True)
        return {
            "correct": self.failed == 0 and len(metrics) == len(metric_units),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _same_bytes(w: Workload, seed: int, rounds: list[dict], tally: Tally) -> None:
    """The report bytes equal those of `same_bytes_as` at the same inputs.

    Each round whose bytes differ counts its certification as failed.
    """
    want = _round(WORKLOADS[w.same_bytes_as], seed)["sha256"]
    for r in rounds:
        if r["sha256"] != want:
            tally.failed += 1
            tally.messages.append(f"report sha256 {r['sha256']} differs from {w.same_bytes_as}'s {want}")


def _per_op(rounds: list[dict], part: str, key: str = "wall_s", ref: bool = True) -> list[float]:
    """Each operation's median over the rounds of its time, in kernel times when `ref`."""
    cols = zip(*(
        [t / k for t, k in zip(r[part][key], r[part]["ref_s"])] if ref else r[part][key]
        for r in rounds
    ))
    return [statistics.median(col) for col in cols]


def measure(w: Workload, seed: int, seconds: int, metric_units: dict) -> dict:
    """Rounds until the next would end after `seconds`; each timing is the
    operation's median over the rounds in kernel times, set-up time the
    median in seconds."""
    tally = Tally()
    ops = PER_ROUND + (w.kind == "verify")
    setups, rounds = [], []
    start = time.monotonic()
    longest = 0.0
    tries = 0
    while tries < MIN_ROUNDS or time.monotonic() - start + longest <= seconds:
        tries += 1
        t = time.monotonic()
        setups.append(spawn({"job": "setup"})["setup_s"])
        check = not rounds
        try:
            r = _round(w, seed, check=check)
        except (ChildFailed, subprocess.TimeoutExpired, ValueError) as exc:
            tally.crashed(ops, exc)
            continue
        finally:
            if not check:  # the checked round is longer than the rest
                longest = max(longest, time.monotonic() - t)
        tally.add(r)
        rounds.append(r)
    if not rounds:
        return tally.result({}, metric_units)
    if w.same_bytes_as:
        _same_bytes(w, seed, rounds, tally)
    certify = sum(_per_op(rounds, "certify"))
    latencies = _per_op(rounds, "latency")
    values = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "certify_ref": certify,
        "records_per_ref": rounds[0]["records"] / certify,
        "query_p50_ref": percentile(latencies, 50),
        "query_p90_ref": percentile(latencies, 90),
        "peak_rss_mib": max(r["rss_mib"] for r in rounds),
        "cpu_ref": sum(_per_op(rounds, "certify", "cpu_s")),
    }
    kernel_ms = 1e3 * statistics.median(k for r in rounds for k in r["certify"]["ref_s"])
    wall_ms = [1e3 * t for t in _per_op(rounds, "latency", ref=False)]
    print(f"# {w.name}: {len(rounds)} rounds of {ops} operations; certify_s per round "
          + " ".join(f"{r['certify_s']:.3f}" for r in rounds), flush=True)
    print(f"# in seconds, for reading only: kernel {kernel_ms:.3f} ms, certify "
          f"{sum(_per_op(rounds, 'certify', ref=False)):.3f} s, query p50 {percentile(wall_ms, 50):.2f} ms, "
          f"p90 {percentile(wall_ms, 90):.2f} ms", flush=True)
    if w.kind == "verify":
        print(f"# report sha256 {rounds[0]['sha256']}", flush=True)
    return tally.result(values, metric_units)


def measure_traced(w: Workload, seed: int, metric_units: dict) -> dict:
    """Untraced and traced rounds of the same inputs, alternating, plus the layer timings.

    The first untraced round is the checked one; the fastest of each kind,
    in kernel times, gives the tracing overhead.
    """
    tally = Tally()
    plain, traced = [], []
    for _ in range(2):
        plain.append(_round(w, seed, check=not plain))
        traced.append(_round(w, seed, trace=1))
        tally.add(plain[-1])
        tally.add(traced[-1])
    micro = spawn({"job": "micro", "seed": seed})
    parts = {"round1": traced[0]["spans"], "round2": traced[1]["spans"], "micro": micro["spans"]}
    for bits in (144, 1040):
        parts[f"gamma{bits}"] = spawn({"job": "gamma", "bits": bits})["spans"]
    names = set(metric_units)
    values = {name: 0.0 for name in names if name.startswith("verify.stage_s.")}
    values.update(span_metrics([s for spans in parts.values() for s in spans], names))
    plain_ref = min(sum(_per_op([r], "certify")) for r in plain)
    first = traced[0]
    values.update({
        "verify.serial_s": sum(values[f"verify.stage_s.{c}"] for c in STAGES if c != "bounds"),
        "verify.records": first["records"],
        "verify.max_precision_bits": first["max_precision_bits"],
        "bounds.escalated": first["escalated"],
        "report.json_bytes": first["json_bytes"],
        "trace.overhead_pct": 100 * (min(sum(_per_op([r], "certify")) for r in traced) - plain_ref) / plain_ref,
        "trace.span_cost_ns": micro["span_cost_ns"],
        "trace.spans": len(first["spans"]),
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{w.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": w.name, "seed": seed, "spans": parts, "metrics": values}))
    print(f"# {w.name}: spans written to {path.relative_to(ROOT)}", flush=True)
    return tally.result(values, metric_units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "harmonicbounds" / "__init__.py").is_file():
        print(f"no harmonicbounds package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    metric_units = {m["name"]: m["unit"] for m in spec[kind]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # compile once so that no round's set-up time includes byte-compiling
    compileall.compile_dir(str(SRC / "harmonicbounds"), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        w = WORKLOADS[name]
        if args.trace:
            res = measure_traced(w, args.seed, metric_units)
        else:
            res = measure(w, args.seed, seconds, metric_units)
        if len(names) > 1:
            print(f"{name} {json.dumps(res)}", flush=True)
        results.append(res)
    if len(names) > 1:
        res = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
