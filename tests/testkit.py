"""Shared verification harness.

Tests (and the acceptance suite) drive the engine with collect_trace on
and then *replay* the per-worker event streams here: request dedup and
the cache-residency bound are judged from the trace alone, so they check
what actually happened rather than re-asking the cache what it thinks.
A counting filesystem shim slots in under the task queues to verify the
random-IO tallies the queues report.
"""

import random

from submine import gen
from submine.minhash import TaskKey, minhash_signature
from submine.taskqueue import QueueStorage, TaskRecord


class TraceViolation(AssertionError):
    pass


def _parse_field(tok):
    if tok.endswith(","):
        return tuple(int(x) for x in tok[:-1].split(",") if x)
    if tok.lstrip("-").isdigit():
        return int(tok)
    return tok


def parse_trace(text):
    """The events of a trace file (the form `submine run --trace` writes):
    one event per line, space-separated fields, tuples comma-terminated."""
    events = []
    for line in text.splitlines():
        if line.strip():
            name, *fields = line.split()
            events.append((name, *map(_parse_field, fields)))
    return events


def assert_dedup(trace):
    """No vertex id may appear in two pull-request events of the same
    worker round.  Raises TraceViolation naming worker, round, and id."""
    seen = {}
    for ev in trace:
        if ev[0] != "request":
            continue
        _, wid, rnd, _dst, ids = ev
        key = (wid, rnd)
        bucket = seen.setdefault(key, set())
        for vid in ids:
            if vid in bucket:
                raise TraceViolation(
                    f"worker {wid} round {rnd}: vertex {vid} requested twice"
                )
            bucket.add(vid)
    return True


def assert_cache_bound(trace, capacity):
    """Replay slot/evict events and check residency stays within the
    declared capacity (plus the declared extra inside overflow
    episodes).  Raises TraceViolation with the offending event index."""
    resident = 0
    limit = capacity
    in_overflow = False
    for i, ev in enumerate(trace):
        name = ev[0]
        if name == "cache_slot":
            resident += 1
        elif name == "cache_evict":
            resident -= 1
        elif name == "overflow_enter":
            in_overflow = True
            limit = capacity + ev[1]
        elif name == "overflow_exit":
            in_overflow = False
            limit = capacity
            continue  # eviction back under capacity happens in this event
        if resident > limit:
            kind = "overflow limit" if in_overflow else "capacity"
            raise TraceViolation(
                f"event {i} ({name}): residency {resident} exceeds {kind} {limit}"
            )
    return True


def replay_residency(trace):
    """Final and peak residency from a trace, for cross-checking the
    cache's own counters."""
    resident = 0
    peak = 0
    for ev in trace:
        if ev[0] == "cache_slot":
            resident += 1
            peak = max(peak, resident)
        elif ev[0] == "cache_evict":
            resident -= 1
    return resident, peak


class CountingStorage(QueueStorage):
    """Filesystem shim: tallies physical file operations independently
    of the queue's own io_counters, so tests can prove the queue neither
    bypasses storage nor reports IO it never performed."""

    def __init__(self, dirpath):
        super().__init__(dirpath)
        self.phys_reads = 0
        self.phys_writes = 0
        self.phys_deletes = 0

    def write(self, name, data):
        self.phys_writes += 1
        return super().write(name, data)

    def read(self, name, count=True):
        self.phys_reads += 1
        return super().read(name, count=count)

    def delete(self, name):
        self.phys_deletes += 1
        return super().delete(name)


# -- workload generators -------------------------------------------------


def model_graphs():
    """A small graph from every submine.gen model, labeled ones included."""
    return [gen.complete_graph(6), gen.gnp_graph(40, 0.2, seed=3),
            gen.gnp_graph(40, 0.2, seed=4, labels=True),
            gen.labeled_gnp_graph(30, 0.3, seed=5), gen.star_graph(12),
            gen.path_graph(9, start_id=1000),
            gen.hub_cluster_graph(3, 8, 2, seed=6), gen.fig4_data_graph()]


def gen_pull_sets(seed, count, universe, lo=1, hi=12):
    """Random sorted pull sets; adjacent sets overlap sometimes, which
    is what gives MinHash keys something to group."""
    rng = random.Random(seed)
    out = []
    prev = None
    for _ in range(count):
        size = rng.randint(lo, hi)
        if prev and rng.random() < 0.5:
            keep = rng.sample(prev, k=min(len(prev), max(1, size // 2)))
            fresh = rng.sample(range(universe), k=size)
            ids = sorted(set(keep) | set(fresh))[:size]
        else:
            ids = sorted(rng.sample(range(universe), k=size))
        out.append(tuple(ids))
        prev = ids
    return out


def minhash_key(pull_ids, ell, seeds, tiebreak=0) -> TaskKey:
    """Build a TaskKey; validates that `seeds` matches `ell`."""
    if len(seeds) != ell:
        raise ValueError(f"expected {ell} seeds, got {len(seeds)}")
    return TaskKey(minhash_signature(pull_ids, seeds), tiebreak)


def make_records(pull_sets, ell, seeds, payload_tag=b"t"):
    """TaskRecords with real MinHash keys and small dummy payloads."""
    records = []
    for i, ids in enumerate(pull_sets):
        key = minhash_key(ids, ell, seeds, tiebreak=i)
        payload = payload_tag + repr(ids).encode()
        records.append(TaskRecord(key, payload))
    return records


def gen_queue_ops(seed, n_ops, enqueue_bias=0.6):
    """A random enqueue/fetch schedule: ("enqueue", i) and ("fetch",)
    steps, always ending with enough fetches to drain."""
    rng = random.Random(seed)
    ops = []
    pending = 0
    enqueued = 0
    for _ in range(n_ops):
        if pending == 0 or rng.random() < enqueue_bias:
            ops.append(("enqueue", enqueued))
            enqueued += 1
            pending += 1
        else:
            ops.append(("fetch",))
            pending -= 1
    ops.extend([("fetch",)] * pending)
    return ops
