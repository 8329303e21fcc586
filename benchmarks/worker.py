"""One benchmark process: start cold, set the package up, do one job, print one JSON line.

Run by run.py as `python3 benchmarks/worker.py '<config json>'` with the
checkout's src/ on PYTHONPATH.  The config names the job ("setup",
"round", "micro" or "gamma"), the workload and seed, whether to trace and
to check, and `spawned`, the CLOCK_MONOTONIC time at which the parent
started this interpreter.  The benchmark's own modules are imported only
after the package, so set-up time covers the package alone.
"""

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

KERNEL_TERMS = 400


def main() -> None:
    cfg = json.loads(sys.argv[1])
    from harmonicbounds import bounds, report, verify

    bounds.catalog()
    setup_s = time.monotonic() - cfg["spawned"]
    if cfg["job"] == "setup":
        out = {}
    elif cfg["job"] == "micro":
        import micro

        out = micro.run(cfg["seed"])
    elif cfg["job"] == "gamma":
        import micro

        out = micro.first_gamma(cfg["bits"])
    else:
        out = run_round(cfg, bounds, report, verify)
    out["setup_s"] = setup_s
    print(json.dumps(out))


def _cpu_s() -> float:
    """CPU time of this process (fine-grained) and of its reaped pool workers."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def kernel_s() -> float:
    """Wall time of the reference kernel, the exact sum 1 + 1/2 + ... + 1/400.

    The kernel does the work the program spends its time on (Python-level
    Fraction and big-integer arithmetic, several hundred bits wide), so a
    slower host slows it and the program alike.  Operations are timed
    against it (see Timed) and reported in kernel times ("ref").
    """
    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, KERNEL_TERMS + 1):
        s += Fraction(1, i)
    return time.perf_counter() - t


class Timed:
    """Wall, CPU and reference-kernel time of a sequence of operations.

    Each operation runs between two runs of `repeats` kernels, and an
    operation longer than SAMPLE_S is interrupted every SAMPLE_S by
    SIGALRM to run one more kernel, whose time is taken off the
    operation's.  An operation's `ref_s` is the median of the kernels run
    during it or within WINDOW_S of it, so a long call is measured against
    the host's speed while it ran and one kernel's jitter does not set a
    short call's figure.
    """

    SAMPLE_S = 0.1
    WINDOW_S = 0.05

    def __init__(self, repeats: int = 1) -> None:
        self.repeats = repeats
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.kernels: list[tuple[float, float]] = []  # (end time, duration)
        self._inside = 0.0

    def _kernel(self, *_signal) -> None:
        d = kernel_s()
        self.kernels.append((time.perf_counter(), d))
        self._inside += d

    def __call__(self, fn, *args):
        for _ in range(self.repeats):
            self._kernel()
        signal.signal(signal.SIGALRM, self._kernel)
        self._inside = 0.0
        cpu0, t0 = _cpu_s(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1, cpu1, inside = time.perf_counter(), _cpu_s(), self._inside
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.wall_s.append(t1 - t0 - inside)
        self.cpu_s.append(cpu1 - cpu0 - inside)
        self.spans.append((t0, t1))
        for _ in range(self.repeats):
            self._kernel()
        return out

    def ref_s(self) -> list[float]:
        out = []
        for t0, t1 in self.spans:
            near = [d for end, d in self.kernels if t0 - self.WINDOW_S <= end - d / 2 <= t1 + self.WINDOW_S]
            out.append(statistics.median(near))
        return out

    def as_dict(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "ref_s": self.ref_s()}


def _peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024


def _certify(w, verify, report, tracer) -> str:
    """verify_all plus to_json, as `verify --format json` does.

    Traced, the same report is built stage by stage through the public
    `checks=` argument, in CHECK_NAMES order, with a span per stage.
    """
    if tracer is None:
        return verify.verify_all(w.max_n, w.bits, jobs=w.jobs).to_json()
    records = []
    with tracer.span("verify.verify_all"):
        for check in verify.CHECK_NAMES:
            with tracer.span(f"verify.stage_s.{check}"):
                records += verify.verify_all(w.max_n, w.bits, checks=(check,), jobs=w.jobs).records
        with tracer.span("report.to_json_s"):
            return report.VerificationReport(records).to_json()


def _query(n, bits, bounds, report, span):
    """All twelve bounds at n, then the JSON report `bounds N --format json` prints."""
    from reference import BOUND_IDS

    results = []
    for b in BOUND_IDS:
        with span("bounds.check_bound"):
            results.append(bounds.check_bound(b, n, bits))
    rep = report.VerificationReport()
    for r in results:
        rep.append(report.CheckRecord(
            check="bound", params=(("id", r.bound_id), ("n", r.n)),
            verdict=r.verdict, margin=r.margin, precision_bits=r.precision_bits,
        ))
    with span("report.to_json_s"):
        return results, rep.to_json()


def _digest(results, text: str = "") -> str:
    """Fingerprint of twelve check_bound results (and a report), for comparing rounds."""
    parts = [text]
    for r in results:
        parts.append(repr((r.bound_id, r.n, r.verdict.value, r.precision_bits, r.equality_side)))
        for b in (r.lower, r.target, r.upper, r.margin):
            parts.append(repr((b.man, b.exp, b.rman, b.rexp)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def run_round(cfg, bounds, report, verify) -> dict:
    """One round of a workload, timed; with cfg["check"], checked against the references.

    Every round of a run does the same operations on the same inputs, so
    the parent can take each operation's median time over the rounds and
    check later rounds by comparing their digests with the checked one's.
    """
    from reference import BOUND_IDS
    from spans import Tracer
    from workloads import WORKLOADS, indices

    w = WORKLOADS[cfg["workload"]]
    tracer = Tracer() if cfg["trace"] else None
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    ns = indices(w, cfg["seed"])
    results = []
    texts = []
    # the certification calls: one verify_all + to_json, or the indices
    certify = Timed(repeats=3 if w.kind == "verify" else 1)

    def query(n):
        with span("query.index"):
            return _query(n, w.bits, bounds, report, span)

    if w.kind == "verify":
        texts.append(certify(_certify, w, verify, report, tracer))
        latencies = Timed()
    else:
        for n in ns:
            res, text = certify(query, n)
            results.append(res)
            texts.append(text)
        latencies = certify
    rss_mib = _peak_rss_mib()

    if w.kind == "verify":
        # the twelve-bound query a library user makes, at sampled indices
        # of the sweep, timed apart from the certification
        for n in ns:
            results.append(latencies(lambda: [bounds.check_bound(b, n, w.bits) for b in BOUND_IDS]))
        digests = [hashlib.sha256(texts[0].encode()).hexdigest()]
        digests += [_digest(r) for r in results]
    else:
        digests = [_digest(r, t) for r, t in zip(results, texts)]

    parsed = [json.loads(t) for t in texts]
    all_records = [r for obj in parsed for r in obj["records"]]
    out = {
        "certify_s": sum(certify.wall_s),
        "certify": certify.as_dict(),
        "latency": {"wall_s": latencies.wall_s, "ref_s": latencies.ref_s()},
        "rss_mib": rss_mib,
        "records": len(all_records),
        "json_bytes": sum(len(t.encode()) for t in texts),
        "max_precision_bits": max(r["precision_bits"] for r in all_records),
        "escalated": sum(r["check"] == "bound" and r["precision_bits"] > w.bits for r in all_records),
        "sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
        "digests": digests,
    }
    if cfg["check"]:
        out["failures"] = _check(w, ns, texts, results, verify)
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def _check(w, ns, texts, results, verify) -> list[list[str]]:
    """Failure messages per operation, in the order of the round's digests."""
    import checks
    from reference import BOUND_IDS, Reference

    ref = Reference(w.bits)
    ref.prepare(ns)
    parsed = [json.loads(t) for t in texts]
    per_op = []
    if w.kind == "verify":
        found = checks.check_records(parsed[0], checks.expected_keys(w.max_n))
        if tuple(verify.CHECK_NAMES) != checks.STAGES:
            found.append(f"CHECK_NAMES is {verify.CHECK_NAMES}, the benchmark expects {checks.STAGES}")
        per_op.append(found)
        records = checks.records_by_key(parsed[0])
        for n, res in zip(ns, results):
            per_op.append(checks.check_index(res, n, w.bits, ref, records if n <= w.max_n else None))
    else:
        for n, res, obj in zip(ns, results, parsed):
            found = checks.check_records(obj, [checks.key("bound", id=b, n=n) for b in BOUND_IDS])
            records = checks.records_by_key(obj)
            per_op.append(found + checks.check_index(res, n, w.bits, ref, records))
    return per_op


if __name__ == "__main__":
    main()
