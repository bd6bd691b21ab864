#!/usr/bin/env python3
"""Cost of a full-cache reserve against the cache's capacity.

Drives a `VertexCache` the way a worker round does: fill the cache,
then repeat rounds of reserve (one pull set per task: new ids plus ids
the previous round used), fill the new slots, touch, unpin.  Every
reserve has to evict.  Prints microseconds per reserve and cache entries
visited per reserve for each capacity; both should stay flat as the
capacity grows.

    python3 benchmarks/bench_cache.py --repeat 3
"""

import argparse
import random
import sys
import time
from collections import OrderedDict

from submine.graph import Vertex
from submine.store import VertexCache

CAPACITIES = (1_000, 10_000, 100_000)
ROUNDS = 20
TASKS = 10  # reserves per round
PULL = 8  # ids per reserve
REUSE = 2  # of which taken from the previous round


class _CountingDict(OrderedDict):
    """OrderedDict that counts the entries its iterators hand out."""

    visited = 0

    def _count(self, it):
        for x in it:
            self.visited += 1
            yield x

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


def _run(cap, seed, count_visits):
    """(seconds in reserve, reserves, entries visited, evictions)."""
    rng = random.Random(seed)
    cache = VertexCache(cap)
    ids = range(cap)
    cache.reserve(ids)
    for vid in ids:
        cache.insert_pulled(Vertex(vid, None, []))
    cache.unpin_batch(ids)
    if count_visits:
        cache._entries = _CountingDict(cache._entries)
    next_id = cap
    recent = list(range(cap - PULL, cap))
    reserve_s = 0.0
    reserves = visited = 0
    evicted = cache.evictions
    for _round in range(ROUNDS):
        batch = []
        for _task in range(TASKS):
            new = range(next_id, next_id + PULL - REUSE)
            next_id += len(new)
            need = set(new) | set(rng.sample(recent, REUSE))
            if count_visits:
                cache._entries.visited = 0
            t0 = time.perf_counter()
            got = cache.reserve(need)
            reserve_s += time.perf_counter() - t0
            if got is None:
                raise SystemExit(f"reserve rejected at capacity {cap}")
            if count_visits:
                visited += cache._entries.visited
            reserves += 1
            batch.append(need)
        for need in batch:
            for vid in need:
                cache.insert_pulled(Vertex(vid, None, []))
        recent = []
        for need in batch:
            for vid in need:
                cache.get(vid)
            cache.unpin_batch(need)
            recent.extend(need)
    cache.assert_quiescent()
    return reserve_s, reserves, visited, cache.evictions - evicted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions; best of N is reported")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rows = []
    for cap in CAPACITIES:
        best = min(_run(cap, args.seed, False)[0] for _ in range(args.repeat))
        _s, reserves, visited, evictions = _run(cap, args.seed, True)
        rows.append((cap, reserves, f"{best / reserves * 1e6:.1f}",
                     f"{visited / reserves:.1f}",
                     f"{evictions / reserves:.1f}"))

    header = ("capacity", "reserves", "us_per_reserve",
              "visited_per_reserve", "evicted_per_reserve")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(f).ljust(w) for f, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
