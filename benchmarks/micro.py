"""Per-layer timings for the traced run.

Each measurement is a span named after its metric around a batch of calls
into one layer, on inputs drawn from the seed; spans.span_metrics turns
the spans into per-call medians.  The order matters where a cache would
hide the cost being measured: every jump moves a stream that sits
elsewhere.  euler_gamma's metric is its first call in a process, so
`first_gamma` runs alone in a fresh interpreter per precision.
"""

from __future__ import annotations

import random
from fractions import Fraction

from spans import Tracer, span_cost_ns
from workloads import WORKLOADS, indices

REPEATS = 5


def _batches(tracer, name, fn, args):
    """REPEATS spans, each calling fn on its share of the prepared args."""
    calls = len(args) // REPEATS
    for r in range(REPEATS):
        with tracer.span(name, calls=calls):
            for a in args[r * calls:(r + 1) * calls]:
                fn(*a)


def first_gamma(bits: int) -> dict:
    from harmonicbounds import specfun

    tracer = Tracer()
    with tracer.span(f"specfun.euler_gamma_ms.{bits}"):
        specfun.euler_gamma(bits)
    return {"spans": tracer.spans}


def run(seed: int) -> dict:
    from harmonicbounds import ball, bounds, elementary, specfun
    from harmonicbounds.ball import Ball

    rng = random.Random(seed)
    tracer = Tracer()

    def rand_ball(bits):
        return Ball.from_fraction(Fraction(rng.randrange(1, 10**6), rng.randrange(1, 997)), bits)

    for bits in (128, 1024):
        pairs = [(rand_ball(bits), rand_ball(bits)) for _ in range(400)]
        fracs = [(Fraction(rng.randrange(1, 10**12), rng.randrange(3, 10**9, 2)), bits) for _ in range(400)]
        with_bits = [(a, b, bits) for a, b in pairs]
        _batches(tracer, f"ball.add_ns.{bits}", ball.add, with_bits * 25)
        _batches(tracer, f"ball.mul_ns.{bits}", ball.mul, with_bits * 25)
        _batches(tracer, f"ball.recip_ns.{bits}", ball.recip, [(a, bits) for a, _b in pairs] * 10)
        _batches(tracer, f"ball.from_fraction_ns.{bits}", Ball.from_fraction, fracs * 10)
        _batches(tracer, f"ball.compare_ns.{bits}", ball.compare, pairs * 25)

    for bits, calls in ((128, 40), (512, 20), (4096, 2)):
        args = [(rand_ball(bits), bits) for _ in range(calls * REPEATS)]
        elementary.ln(args[0][0], bits)  # ln 2 at this precision is cached after one call
        _batches(tracer, f"elementary.ln_us.{bits}", elementary.ln, args)
        small = [(Ball.from_fraction(Fraction(rng.randrange(-2000, 2000), 100), bits), bits)
                 for _ in range(calls * REPEATS)]
        _batches(tracer, f"elementary.exp_us.{bits}", elementary.exp, small)

    for bits, small_calls, large_calls in ((128, 10, 20), (1024, 2, 10)):
        # the shift threshold is below 20 at 128 bits and above 100 at 1024
        top = 16 if bits == 128 else 100
        specfun.psi_gap(3, bits)
        small = [(rng.randrange(1, top), bits) for _ in range(small_calls * REPEATS)]
        large = [(rng.randrange(10**3, 10**6), bits) for _ in range(large_calls * REPEATS)]
        _batches(tracer, f"specfun.psi_gap_us.small_n.{bits}", specfun.psi_gap, small)
        _batches(tracer, f"specfun.psi_gap_us.large_n.{bits}", specfun.psi_gap, large)

    for name, fn in (("digamma", specfun.digamma), ("trigamma", specfun.trigamma)):
        args = [(Fraction(rng.randrange(10, 1000), rng.randrange(1, 10)), 1024) for _ in range(REPEATS)]
        fn(*args[0])
        for a in args:
            with tracer.span(f"specfun.{name}_us.1024"):
                fn(*a)

    start = rng.randrange(1, 1000)
    specfun.harmonic_exact(start)
    _batches(tracer, "specfun.harmonic_step_us", specfun.harmonic_exact,
             [(n,) for n in range(start + 1, start + 1 + 200 * REPEATS)])

    query = WORKLOADS["query"]
    far = indices(query, seed)
    for name, fn in (
        ("harmonic", specfun.harmonic_exact),
        ("odd_harmonic", specfun.odd_harmonic_exact),
        ("alternating_tail", lambda n: specfun.alternating_tail(n, 128)),
    ):
        for n in far[:REPEATS]:
            with tracer.span(f"specfun.{name}_jump_ms"):
                fn(n)

    ids = bounds.bound_ids()
    for n in range(1, 201):  # the sweep's inputs: every index, in order
        for b in ids:
            with tracer.span(f"bounds.check_us.{b}.sweep"):
                bounds.check_bound(b, n, 128)
    for n in far[REPEATS:REPEATS + 8]:  # the query's inputs: random indices
        for b in ids:
            with tracer.span(f"bounds.check_us.{b}.query"):
                bounds.check_bound(b, n, 128)

    targets = sorted(bounds.TARGETS)
    for n in range(201, 401):  # fresh indices, so no target comes from the cache
        for t in targets:
            with tracer.span("bounds.target_us"):
                bounds.target_value(t, n, 128)
        for b in ids:
            with tracer.span("bounds.sides_us"):
                bounds.evaluate_bound(b, n, 128)

    return {"spans": tracer.spans, "span_cost_ns": span_cost_ns()}
