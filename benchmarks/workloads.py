"""The benchmark's workloads and the seeded choice of their indices."""

from __future__ import annotations

import random
from dataclasses import dataclass

PER_ROUND = 100  # indices queried per round: enough for ten beyond the p90
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    kind "verify" runs verify_all(max_n, bits, jobs) plus to_json() and then
    queries PER_ROUND sampled indices in n_range; kind "query" runs
    check_bound for all twelve ids at PER_ROUND indices in n_range and
    turns each index into a JSON report, as `bounds N --format json` does.
    A run repeats this round, in fresh interpreters, at least MIN_ROUNDS
    times.
    """

    name: str
    kind: str
    bits: int
    n_range: tuple[int, int]
    max_n: int = 0
    jobs: int = 1
    same_bytes_as: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "verify", 128, (1, 500), max_n=500),
        Workload("sweep_2jobs", "verify", 128, (1, 500), max_n=500, jobs=2, same_bytes_as="sweep"),
        Workload("query", "query", 128, (1000, 5000)),
        # queried past max_n, so most queries evaluate targets at 1024 bits
        # instead of reading the ones the sweep left in the bounds cache
        Workload("highprec", "verify", 1024, (1, 100), max_n=25),
    )
}


# specfun's exact-sum streams add terms one by one when asked for an index
# at most 64 above the last one (128 for the stream at n // 2)
SMALL_STEP = 129


def indices(w: Workload, seed: int) -> list[int]:
    """One index from each of PER_ROUND equal strata of n_range, in random order.

    Stratifying keeps the spread of index sizes, and hence of costs, the
    same from seed to seed.  The order is a shuffle, reordered so that an
    index lies within SMALL_STEP above the one before it only where no
    other index is left: otherwise the exact-sum streams would serve some
    queries by small steps, and how many depended on the seed (17 to 27
    of `sweep`'s 100).  Where every step is small (`highprec`'s n <= 100)
    the exact sums are too short to matter.  Workloads with the same range
    draw the same indices for the same seed.
    """
    rng = random.Random(seed)
    lo, hi = w.n_range
    width = (hi - lo + 1) / PER_ROUND
    ns = [lo + int(width * (i + rng.random())) for i in range(PER_ROUND)]
    rng.shuffle(ns)
    order = []
    while ns:
        far = (i for i, n in enumerate(ns) if not order or not 0 < n - order[-1] <= SMALL_STEP)
        order.append(ns.pop(next(far, 0)))
    return order
