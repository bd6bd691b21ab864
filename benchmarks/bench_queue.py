#!/usr/bin/env python3
"""Task-queue traffic under FIFO keys and under MinHash keys.

Drives `TaskQueue` the way a worker does: a bulk load of seed tasks,
then fetches that each requeue 0-2 records (drawn from a fixed stream)
until every record has been enqueued, then a drain.  `stream` records
are keyed `TaskKey((), seq)`, as the engine keys a stream queue's tasks;
`lsh` records are keyed by the MinHash signature of a random pull set.
A third line, `buffered`, bulk-loads every FIFO record into an input
buffer that holds them all, so no file is written, and drains it.
Checks that every record comes back once and that FIFO keys come back
in enqueue order, and prints one JSON line per case: median seconds of
N runs, file reads and file writes.

    python3 benchmarks/bench_queue.py --repeat 5
"""

import argparse
import json
import random
import statistics
import sys
import tempfile
import time

from submine.minhash import TaskKey, derive_seeds, minhash_signature
from submine.taskqueue import TaskQueue, TaskRecord

SEEDS, TOTAL = 5_000, 40_000
BUFFER, FILE = 1000, 100
UNIVERSE, PULLS, ELL = 50_000, 8, 4


def make_records(kind):
    rng = random.Random(7)
    seeds = derive_seeds(1, ELL)
    out = []
    for seq in range(TOTAL):
        pulls = frozenset(rng.sample(range(UNIVERSE), PULLS))
        payload = b"%d:" % seq + b"".join(p.to_bytes(8, "little") for p in pulls)
        sigs = minhash_signature(pulls, seeds) if kind == "lsh" else ()
        out.append(TaskRecord(TaskKey(sigs, seq), payload))
    return out


def run(kind, records, dirpath):
    """One pass of the workload; returns (seconds, file reads, file
    writes, the records in fetch order)."""
    rng = random.Random(11)
    t0 = time.perf_counter()
    q = TaskQueue(dirpath, file_capacity=FILE, buffer_capacity=BUFFER)
    q.seed_bulk(records[:SEEDS])
    nxt = SEEDS
    fetched = []
    while (rec := q.fetch()) is not None:
        fetched.append(rec)
        for _ in range(rng.randint(0, 2)):
            if nxt < TOTAL:
                q.enqueue(records[nxt])
                nxt += 1
    elapsed = time.perf_counter() - t0
    reads, writes = q.io_counters()
    if nxt != TOTAL or len(q) != 0:
        sys.exit(f"{kind}: {nxt} of {TOTAL} records enqueued, {len(q)} left")
    return elapsed, reads, writes, fetched


def run_buffered(records, dirpath):
    """Bulk-load every record into a buffer above their count, then
    drain; returns what `run` returns."""
    t0 = time.perf_counter()
    q = TaskQueue(dirpath, file_capacity=FILE, buffer_capacity=len(records) + 1)
    q.seed_bulk(records)
    fetched = []
    while (rec := q.fetch()) is not None:
        fetched.append(rec)
    elapsed = time.perf_counter() - t0
    reads, writes = q.io_counters()
    return elapsed, reads, writes, fetched


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions; the median is reported")
    args = ap.parse_args(argv)

    for kind in ("stream", "lsh", "buffered"):
        records = make_records(kind)
        times, io = [], set()
        for _ in range(args.repeat):
            with tempfile.TemporaryDirectory(prefix="bench-queue-") as d:
                if kind == "buffered":
                    s, reads, writes, fetched = run_buffered(records, d)
                else:
                    s, reads, writes, fetched = run(kind, records, d)
            times.append(s)
            io.add((reads, writes))
            if sorted(r.payload for r in fetched) != sorted(
                    r.payload for r in records):
                sys.exit(f"{kind}: fetched records differ from enqueued ones")
            if kind != "lsh" and fetched != records:
                sys.exit(f"{kind}: FIFO keys did not come back in enqueue order")
        if len(io) != 1:
            sys.exit(f"{kind}: file traffic differs between runs: {io}")
        (reads, writes), = io
        print(json.dumps({"kind": kind, "median_s": round(statistics.median(times), 4),
                          "file_reads": reads, "file_writes": writes,
                          "records": TOTAL}))


if __name__ == "__main__":
    main()
