"""Disk-spilling queues: conservation, ordering, file-size invariants, IO
accounting.  Random workloads come from the tests/testkit.py generators so the
acceptance suite and these tests speak the same language."""

import os
import random
from collections import Counter

import pytest

from submine.minhash import TaskKey, derive_seeds
from submine.taskqueue import QueueInvariantError, TaskQueue, TaskRecord
from submine.serialize import CorruptData, decode_file

from testkit import (
    CountingStorage,
    gen_pull_sets,
    gen_queue_ops,
    make_records,
    minhash_key,
)

SEEDS = derive_seeds(1, 4)


def _records(seed, count, universe=300):
    return make_records(gen_pull_sets(seed, count, universe), 4, SEEDS)


def _fifo_records(count, start=0, step=1):
    """Records keyed the way the engine keys a stream queue's tasks: no
    signature, only the sequence number."""
    return [TaskRecord(TaskKey((), i), b"t%d" % i)
            for i in range(start, start + count * step, step)]


# The two key shapes the engine makes (`Worker._key_for`), named by the
# queue kind that makes them: `stream` keys hold only the sequence number,
# so key order is enqueue order; `lsh` keys lead with a MinHash signature.
KEY_SHAPES = pytest.mark.parametrize("shape", ["stream", "lsh"])


def _shaped(shape, seed, count):
    return _fifo_records(count) if shape == "stream" else _records(seed, count)


def _drain(q):
    out = []
    while True:
        rec = q.fetch()
        if rec is None:
            return out
        out.append(rec)


# -- construction ------------------------------------------------------------


def test_queue_rejects_bad_capacities(tmp_path):
    # the queue takes no kind; RunConfig rejects an unknown one
    # (tests/test_engine.py::test_config_validation)
    with pytest.raises(ValueError, match="file_capacity"):
        TaskQueue(tmp_path / "d", file_capacity=1)
    with pytest.raises(ValueError, match="buffer_capacity"):
        TaskQueue(tmp_path / "e", buffer_capacity=0)
    TaskQueue(tmp_path / "f", file_capacity=2, buffer_capacity=1)


def test_queue_takes_the_widest_values_a_spill_file_holds(tmp_path):
    # a spill file stores its capacity as a u32 and each key's signature
    # count as a u16: one more is rejected up front, and the widest
    # values spill and read back in key order
    with pytest.raises(ValueError, match="^file_capacity must be <= 4294967295$"):
        TaskQueue(tmp_path / "d", file_capacity=2**32)
    q = TaskQueue(tmp_path / "e", file_capacity=2**32 - 1, buffer_capacity=1)
    recs = [TaskRecord(TaskKey((i,) * 0xFFFF, i), b"t%d" % i) for i in (2, 0, 1)]
    for rec in recs:
        q.enqueue(rec)
    assert _drain(q) == sorted(recs, key=lambda r: r.key)
    assert q.metrics()["queue_file_writes"] > 0


@KEY_SHAPES
def test_single_task_round_trip(tmp_path, shape):
    q = TaskQueue(tmp_path / shape)
    rec = _shaped(shape, 1, 1)[0]
    q.enqueue(rec)
    assert len(q) == 1
    assert q.fetch() == rec
    assert q.fetch() is None
    assert q.io_counters() == (0, 0)  # never touched disk


@KEY_SHAPES
def test_multiset_conservation(tmp_path, shape):
    recs = _shaped(shape, 7, 1000)
    q = TaskQueue(tmp_path / shape, file_capacity=8, buffer_capacity=20)
    for r in recs:
        q.enqueue(r)
    out = _drain(q)
    assert Counter(out) == Counter(recs)
    if shape == "stream":
        assert out == recs
    assert q.enqueued_total == q.fetched_total == 1000
    q.check_invariants(deep=True)


@KEY_SHAPES
def test_interleaved_workload_conserves(tmp_path, shape):
    recs = _shaped(shape, 13, 4000)
    ops = gen_queue_ops(99, 4000)
    q = TaskQueue(tmp_path / shape, file_capacity=16, buffer_capacity=50)
    fetched = []
    it = iter(recs)
    for op in ops:
        if op[0] == "enqueue":
            q.enqueue(next(it))
        else:
            rec = q.fetch()
            if rec is not None:
                fetched.append(rec)
    fetched.extend(_drain(q))
    enqueued = recs[: sum(1 for o in ops if o[0] == "enqueue")]
    assert Counter(fetched) == Counter(enqueued)
    if shape == "stream":
        assert fetched == enqueued
    q.check_invariants(deep=True)


class _Payload:
    """A queued object that is not bytes, as the engine queues a Task."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n


class _RecordCountingStorage(CountingStorage):
    def __init__(self, dirpath):
        super().__init__(dirpath)
        self.records_written = 0

    def write(self, name, data):
        self.records_written += len(decode_file(data)[2])
        return super().write(name, data)


def test_object_payloads_are_encoded_once_when_they_first_spill(tmp_path):
    # a payload stays the queued object until it spills; a record read
    # back from a file keeps its bytes, so a merge rewrites it as it is
    encoded = Counter()

    def encode(p):
        encoded[p.n] += 1
        return b"t%d" % p.n

    keys = [r.key for r in _records(13, 4000)]
    recs = [TaskRecord(k, _Payload(i)) for i, k in enumerate(keys)]
    ops = gen_queue_ops(99, 4000)
    storage = _RecordCountingStorage(str(tmp_path / "q"))
    q = TaskQueue(None, file_capacity=16, buffer_capacity=50, storage=storage,
                  encode=encode)
    fetched = []
    it = iter(recs)
    for op in ops:
        if op[0] == "enqueue":
            q.enqueue(next(it))
        elif (rec := q.fetch()) is not None:
            fetched.append(rec)
    q.check_invariants(deep=True)
    fetched.extend(_drain(q))
    enqueued = sum(1 for o in ops if o[0] == "enqueue")
    as_bytes = [int(r.payload[1:]) for r in fetched if isinstance(r.payload, bytes)]
    as_objects = [r.payload.n for r in fetched if isinstance(r.payload, _Payload)]
    assert sorted(as_bytes + as_objects) == list(range(enqueued))
    assert as_bytes and as_objects
    assert set(encoded) == set(as_bytes) and set(encoded.values()) == {1}
    assert storage.records_written > len(encoded)  # merges rewrote records


# -- FIFO keys ---------------------------------------------------------------


def test_stream_is_fifo_across_spills(tmp_path):
    # sequence-only keys sort in enqueue order, so the key-ordered queue
    # serves them FIFO across spills, with B below, at and above C
    for c, b in ((10, 4), (10, 10), (10, 25)):
        rng = random.Random(c * 100 + b)
        q = TaskQueue(tmp_path / f"s{b}", file_capacity=c, buffer_capacity=b)
        recs = _fifo_records(200)
        out = []
        for rec in recs:
            q.enqueue(rec)
            q.check_invariants(deep=True)
            for _ in range(rng.choice((0, 0, 1, 2))):
                got = q.fetch()
                q.check_invariants(deep=True)
                if got is not None:
                    out.append(got)
        while (got := q.fetch()) is not None:
            out.append(got)
            q.check_invariants(deep=True)
        assert out == recs
        assert q.io_counters()[1] > 0  # the chain was used


def test_buffer_below_file_capacity_stays_bounded(tmp_path):
    # a spill merges whatever the buffer holds, so B < C is accepted
    # under both key shapes and the buffer never grows past B
    for shape in ("stream", "lsh"):
        recs = _shaped(shape, 9, 40)
        q = TaskQueue(tmp_path / shape, file_capacity=16, buffer_capacity=4)
        for r in recs:
            q.enqueue(r)
            q.check_invariants()
        assert q.io_counters()[1] > 0
        out = _drain(q)
        assert [r.key for r in out] == sorted(r.key for r in recs)
        assert Counter(out) == Counter(recs)


def test_spill_above_the_chain_appends_without_reading(tmp_path):
    q = TaskQueue(tmp_path / "s", file_capacity=10, buffer_capacity=5)
    for r in _fifo_records(20, step=2):  # keys 0, 2, .., 38: four spills
        q.enqueue(r)
    assert q.io_counters() == (0, 4)
    for r in _fifo_records(5, start=41):  # all above the chain: appended
        q.enqueue(r)
    assert q.io_counters() == (0, 5)
    assert [m.count for m in q.index] == [5] * 5
    for r in _fifo_records(5, start=1, step=2):  # keys 1..9 land in file 1
        q.enqueue(r)
    assert q.io_counters() == (1, 6)
    q.check_invariants(deep=True)
    # fewer than ceil(C/2) keys above the chain merge into its last file
    for r in _fifo_records(2, start=50):
        q.enqueue(r)
    q.merge_spill()
    assert q.io_counters() == (2, 7)
    q.check_invariants(deep=True)
    assert [r.key.tiebreak for r in _drain(q)] == sorted(
        list(range(0, 39, 2)) + list(range(1, 10, 2)) + list(range(41, 46))
        + [50, 51])
    # a lone underfull file takes the batch in rather than staying
    # underfull at the head of a longer chain
    q = TaskQueue(tmp_path / "u", file_capacity=10, buffer_capacity=5)
    for r in _fifo_records(2):
        q.enqueue(r)
    q.merge_spill()
    for r in _fifo_records(5, start=2):
        q.enqueue(r)
    assert q.io_counters() == (1, 2)
    q.check_invariants(deep=True)


# -- input buffer --------------------------------------------------------------


class _CountingKey(TaskKey):
    """A TaskKey that counts its `<` calls; sorting keys and heap-ordering
    records both compare through it."""

    __slots__ = ()
    calls = 0

    def __lt__(self, other):
        _CountingKey.calls += 1
        return TaskKey.__lt__(self, other)


def _drain_comparisons(path, shape, n, interleaved):
    """Key comparisons made draining n records from the input buffer (B
    above every count, so no file is written).  Interleaved, each fetch
    also enqueues 0-2 of n more records."""
    recs = [TaskRecord(_CountingKey(*r.key), r.payload)
            for r in _shaped(shape, 3, 2 * n)]
    if not interleaved:
        recs = recs[:n]
    q = TaskQueue(path, file_capacity=10, buffer_capacity=4 * n)
    rng = random.Random(n)
    _CountingKey.calls = 0
    for r in recs[:n]:
        q.enqueue(r)
    nxt = n
    out = []
    while (rec := q.fetch()) is not None:
        out.append(rec)
        for _ in range(rng.randint(0, 2)):
            if nxt < len(recs):
                q.enqueue(recs[nxt])
                nxt += 1
    calls = _CountingKey.calls
    assert q.io_counters() == (0, 0)
    assert Counter(out) == Counter(recs)
    if shape == "stream":
        assert out == recs
    return calls


@KEY_SHAPES
@pytest.mark.parametrize("interleaved", [False, True],
                         ids=["drain", "interleaved"])
def test_buffered_drain_is_n_log_n(tmp_path, shape, interleaved):
    # a refill that sorts the whole buffer again costs O(n^2 / C) over a
    # drain, so doubling n would about quadruple the comparisons
    small = _drain_comparisons(tmp_path / "n", shape, 1000, interleaved)
    large = _drain_comparisons(tmp_path / "2n", shape, 2000, interleaved)
    assert large < 3 * small, (small, large)


def test_key_enqueued_between_refills_waits_for_the_next(tmp_path):
    # a refill takes the C lowest keys at once, so a lower key enqueued
    # meanwhile is served after them, as it would be behind a file
    q = TaskQueue(tmp_path / "q", file_capacity=4, buffer_capacity=100)
    for r in _fifo_records(8, start=10):
        q.enqueue(r)
    assert q.fetch().key.tiebreak == 10  # the refill took 10..13
    q.enqueue(_fifo_records(1)[0])
    assert [r.key.tiebreak for r in _drain(q)] == [11, 12, 13, 0, 14, 15, 16, 17]


# -- lsh specifics ------------------------------------------------------------


def test_lsh_drains_sorted_when_fully_spilled(tmp_path):
    recs = _records(21, 600)
    q = TaskQueue(tmp_path / "l", file_capacity=8, buffer_capacity=40)
    for r in recs:
        q.enqueue(r)
    q.merge_spill()  # push the residue out so everything lives in files
    out = _drain(q)
    keys = [r.key for r in out]
    assert keys == sorted(keys)
    assert Counter(out) == Counter(recs)


def test_lsh_seed_bulk_small_stays_in_memory(tmp_path):
    recs = _records(8, 30)
    q = TaskQueue(tmp_path / "l", file_capacity=8, buffer_capacity=100)
    q.seed_bulk(recs)
    assert q.io_counters() == (0, 0)
    out = _drain(q)
    assert [r.key for r in out] == sorted(r.key for r in recs)


def test_lsh_seed_bulk_large_builds_chain(tmp_path):
    recs = _records(9, 500)
    q = TaskQueue(tmp_path / "l", file_capacity=16, buffer_capacity=100)
    q.seed_bulk(recs)
    assert q.io_counters()[1] > 0
    q.check_invariants(deep=True)
    half = -(-16 // 2)
    for m in q.index:
        assert half <= m.count <= 16
    out = _drain(q)
    assert [r.key for r in out] == sorted(r.key for r in recs)


def test_lsh_equal_keys_drain_adjacently(tmp_path):
    seeds = SEEDS
    same = [TaskRecord(minhash_key((5, 6, 7), 4, seeds, tiebreak=i), b"s%d" % i)
            for i in range(20)]
    other = _records(33, 300)
    q = TaskQueue(tmp_path / "l", file_capacity=8, buffer_capacity=30)
    rng = random.Random(0)
    mixed = same + other
    rng.shuffle(mixed)
    for r in mixed:
        q.enqueue(r)
    q.merge_spill()
    out = _drain(q)
    pos = [i for i, r in enumerate(out) if r.payload.startswith(b"s")]
    assert pos == list(range(pos[0], pos[0] + len(same)))
    # tiebreak keeps equal-signature records in enqueue order
    assert [out[i].payload for i in pos] == [r.payload for r in same]


def test_lsh_invariants_after_every_merge(tmp_path):
    """Structural scan after each merge_spill on a moderate workload."""
    recs = _records(17, 2000)
    q = TaskQueue(tmp_path / "l", file_capacity=8, buffer_capacity=25)

    real_merge = q.merge_spill
    merges = [0]

    def checked_merge():
        real_merge()
        q.check_invariants(deep=True)
        merges[0] += 1

    q.merge_spill = checked_merge
    fetch_gap = 0
    for i, r in enumerate(recs):
        q.enqueue(r)
        if i % 7 == 0:
            rec = q.fetch()
            if rec is not None:
                fetch_gap += 1
    drained = _drain(q)
    assert merges[0] > 10
    assert len(drained) + fetch_gap == len(recs)
    q.check_invariants(deep=True)


def test_lsh_single_underfull_tail_allowed(tmp_path):
    # fewer than ceil(C/2) tasks in total: one small file is legal
    recs = _records(2, 3)
    q = TaskQueue(tmp_path / "l", file_capacity=10, buffer_capacity=3)
    for r in recs:
        q.enqueue(r)  # third enqueue trips merge_spill at capacity 3
    q.check_invariants(deep=True)
    assert len(q.index) == 1
    assert q.index[0].count == 3


def test_lsh_range_disjointness_violation_detected(tmp_path):
    q = TaskQueue(tmp_path / "l", file_capacity=4, buffer_capacity=10)
    q.seed_bulk(_records(4, 40))
    # sabotage the in-memory index: swap two files out of order
    assert len(q._files) >= 2
    q._files[0], q._files[1] = q._files[1], q._files[0]
    with pytest.raises(QueueInvariantError, match="overlaps|inverted"):
        q.check_invariants()


# -- io accounting -------------------------------------------------------------


def test_fresh_queue_counters_zero(tmp_path):
    q = TaskQueue(tmp_path / "l")
    assert q.io_counters() == (0, 0)
    m = q.metrics()
    assert m["queue_file_reads"] == 0 and m["queue_file_writes"] == 0


def test_one_spill_one_load(tmp_path):
    q = TaskQueue(tmp_path / "s", file_capacity=4, buffer_capacity=4)
    for r in _records(6, 4):
        q.enqueue(r)  # 4th enqueue spills one full file
    assert q.io_counters() == (0, 1)
    q.fetch()
    assert q.io_counters() == (1, 1)


@KEY_SHAPES
def test_counters_match_filesystem_shim(tmp_path, shape):
    store = CountingStorage(str(tmp_path / shape))
    q = TaskQueue(tmp_path / shape, file_capacity=8, buffer_capacity=20,
                  storage=store)
    recs = _shaped(shape, 55, 800)
    it = iter(recs)
    fetched = []
    for op in gen_queue_ops(5, 800, enqueue_bias=0.7):
        if op[0] == "enqueue":
            try:
                q.enqueue(next(it))
            except StopIteration:
                break
        elif (rec := q.fetch()) is not None:
            fetched.append(rec)
    fetched.extend(_drain(q))
    if shape == "stream":
        assert fetched == recs[:len(fetched)]
    reads, writes = q.io_counters()
    assert reads == store.phys_reads
    assert writes == store.phys_writes
    # drained queue leaves no spill files behind
    assert store.phys_deletes == store.phys_writes
    assert store.listdir() == []


def test_deep_scan_reads_not_counted(tmp_path):
    q = TaskQueue(tmp_path / "l", file_capacity=4, buffer_capacity=8)
    for r in _records(2, 50):
        q.enqueue(r)
    before = q.io_counters()
    q.check_invariants(deep=True)
    assert q.io_counters() == before


@KEY_SHAPES
def test_flipped_payload_byte_names_the_spill_file(tmp_path, shape):
    q = TaskQueue(tmp_path / shape, file_capacity=4, buffer_capacity=4)
    for r in _shaped(shape, 8, 4):
        q.enqueue(r)
    (meta,) = q.index
    path = os.path.join(q.storage.dir, meta.name)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] ^= 0x10  # inside the last record's payload: lengths still agree
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(CorruptData, match=f"{meta.name}.*CRC"):
        q.fetch()
