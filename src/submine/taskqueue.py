"""The disk-spilling task queue.

Every task carries a TaskKey, and the queue serves low keys first:

* enqueue pushes onto an in-memory input heap of up to `buffer_capacity`
  (B) tasks; when it fills, `merge_spill` sorts it and merges it into a
  chain of spill files, so disk traffic happens in file units rather than
  per task.  Files hold between ceil(C/2) and C (`file_capacity`) tasks
  over disjoint, ascending key ranges.  A merge reads, merges and
  rewrites only the files whose range absorbs incoming keys, split into
  balanced chunks on overflow, b-tree style; a batch of at least
  ceil(C/2) tasks whose keys all sort above the chain is written as new
  files after it, and no file is read;
* fetch serves from an output buffer of at most C tasks, refilled from
  the first file of the chain if there is one, else by popping the C
  lowest keys off the input heap, so draining n buffered tasks costs
  O(n log n); consumed files are deleted.

A record's payload stays whatever the caller queued -- the engine
queues the Task object itself -- until the record spills: only
`_write_chain` encodes a payload, through the `encode` hook the queue
was built with, and a payload that is bytes already (one read back from
a file, or one queued as bytes) is written as it is.  A record read back
from a file keeps its bytes payload; decoding it is the caller's job.
So a task that never spills costs no encode and no decode.

The queue takes no kind: the engine's key rule (`Worker._key_for`) makes
the order.  `lsh` keys lead with the MinHash signature of a task's pull
set, so tasks that pull similar sets are served together.  `stream` keys
hold only the enqueue sequence number, so key order is enqueue order:
the queue is FIFO, and a spill of at least ceil(C/2) tasks is an append.

io counters track file-granularity reads and writes and always match
what an external filesystem observer sees.
"""

import heapq
import os
from bisect import bisect_right
from collections import deque
from typing import NamedTuple

from .minhash import TaskKey
from .serialize import CorruptData, TaskRecord, decode_file, encode_file


class QueueInvariantError(RuntimeError):
    pass


class FileMeta(NamedTuple):
    name: str
    count: int
    key_lo: TaskKey
    key_hi: TaskKey


class QueueStorage:
    """File IO for spill files, counting file-granularity reads/writes.

    Diagnostic reads (invariant scans) pass count=False so the counters
    keep matching the real consume/spill traffic.
    """

    def __init__(self, dirpath):
        self.dir = dirpath
        os.makedirs(dirpath, exist_ok=True)
        self.files_read = 0
        self.files_written = 0

    def write(self, name, data):
        with open(os.path.join(self.dir, name), "wb") as fh:
            fh.write(data)
        self.files_written += 1

    def read(self, name, count=True):
        with open(os.path.join(self.dir, name), "rb") as fh:
            data = fh.read()
        if count:
            self.files_read += 1
        return data

    def delete(self, name):
        os.unlink(os.path.join(self.dir, name))

    def listdir(self):
        return sorted(os.listdir(self.dir))


def _rkey(rec):
    return rec.key


def check_queue_capacities(file_capacity, buffer_capacity):
    """A spill file holds at least two tasks; the buffer at least one."""
    if file_capacity < 2:
        raise ValueError("file_capacity must be >= 2")
    if buffer_capacity < 1:
        raise ValueError("buffer_capacity must be >= 1")


class TaskQueue:
    """Key-ordered task queue with a b-tree-ish chain of spill files."""

    def __init__(self, dirpath, file_capacity=100, buffer_capacity=1000,
                 storage=None, encode=None):
        check_queue_capacities(file_capacity, buffer_capacity)
        self.file_capacity = file_capacity
        self.buffer_capacity = buffer_capacity
        self.storage = storage or QueueStorage(dirpath)
        self._encode = encode  # payload -> bytes, for payloads not bytes yet
        self.enqueued_total = 0
        self.fetched_total = 0
        self.spill_count = 0
        self._file_seq = 0
        # Input buffer, a heap of at most B tasks.  Keys are unique per
        # queue (the engine's sequence number ends each), so the heap
        # orders records by key alone and never compares payloads.
        self._in = []
        self._out = deque()    # output buffer, at most C tasks
        self._files = []       # FileMeta of the spill chain, in key order

    def __len__(self):
        return (
            len(self._in)
            + len(self._out)
            + sum(m.count for m in self._files)
        )

    @property
    def index(self):
        return list(self._files)

    def enqueue(self, rec: TaskRecord):
        heapq.heappush(self._in, rec)
        self.enqueued_total += 1
        if len(self._in) >= self.buffer_capacity:
            self.merge_spill()

    def seed_bulk(self, records):
        """Bulk-load a window of seed tasks: a window that leaves the
        input buffer within B stays in memory and never touches disk; a
        larger one spills in one merge."""
        self._in.extend(records)
        self.enqueued_total += len(records)
        if len(self._in) > self.buffer_capacity:
            self.merge_spill()
        else:
            heapq.heapify(self._in)

    def fetch(self):
        if not self._out:
            if self._files:
                self._out.extend(self._load(self._files.pop(0)))
            else:
                # Refill by C, not one pop per fetch: a key enqueued
                # meanwhile waits for the next refill, as from a file.
                take = min(self.file_capacity, len(self._in))
                self._out.extend(heapq.heappop(self._in) for _ in range(take))
        if not self._out:
            return None
        self.fetched_total += 1
        return self._out.popleft()

    def merge_spill(self):
        """Sort the input buffer and bulk-merge it into the file chain."""
        batch = sorted(self._in, key=_rkey)
        self._in = []
        if not batch:
            return
        self.spill_count += 1
        files = self._files
        half = -(-self.file_capacity // 2)
        if not files or (len(batch) >= half and files[-1].count >= half
                         and batch[0].key > files[-1].key_hi):
            # Into an empty chain, or after it when every key sorts
            # above it: append, reading no file.  A lone underfull file
            # takes the batch in instead, so it never ends up inside a
            # longer chain.
            files.extend(self._write_chain(batch))
            return
        los = [m.key_lo for m in files]
        groups = {}
        for rec in batch:
            i = bisect_right(los, rec.key) - 1
            if i < 0:
                i = 0
            groups.setdefault(i, []).append(rec)
        new_files = []
        prev = 0
        for i in sorted(groups):
            new_files.extend(files[prev:i])
            existing = self._load(files[i])
            merged = list(heapq.merge(existing, groups[i], key=_rkey))
            new_files.extend(self._write_chain(merged))
            prev = i + 1
        new_files.extend(files[prev:])
        self._files = new_files

    def discard(self):
        """Delete every spill file in the queue's directory, one whose
        load failed after it left the chain included, and forget the
        chain."""
        for name in self.storage.listdir():
            if name.endswith(".tasks"):
                self.storage.delete(name)
        self._files = []

    def io_counters(self):
        return (self.storage.files_read, self.storage.files_written)

    def _write_chain(self, records):
        """Write sorted records as balanced files of at most C tasks,
        encoding each payload that is not bytes yet.

        With k = ceil(n / C) files the balanced sizes stay >= ceil(C/2)
        whenever k > 1, so splits never create underfull files; a single
        file may be underfull only when the records themselves number
        fewer than ceil(C/2).
        """
        n = len(records)
        k = -(-n // self.file_capacity)
        metas = []
        base, extra = divmod(n, k)
        off = 0
        encode = self._encode
        for j in range(k):
            size = base + (1 if j < extra else 0)
            chunk = records[off:off + size]
            self._file_seq += 1
            name = f"f{self._file_seq:08d}.tasks"
            wire = [(key, p if p.__class__ is bytes else encode(p))
                    for key, p in chunk]
            self.storage.write(name, encode_file(self.file_capacity, wire))
            metas.append(FileMeta(name, size, chunk[0].key, chunk[-1].key))
            off += size
        return metas

    def _load(self, meta, count=True, delete=True):
        data = self.storage.read(meta.name, count=count)
        try:
            _, _, records = decode_file(data)
        except CorruptData as e:
            path = os.path.join(self.storage.dir, meta.name)
            raise CorruptData(f"spill file {path}: {e}") from e
        if len(records) != meta.count:
            raise QueueInvariantError(
                f"{meta.name}: holds {len(records)} records, index says {meta.count}"
            )
        if delete:
            self.storage.delete(meta.name)
        return records

    def check_invariants(self, deep=False):
        """Buffer bounds, each file's size and key range (and with `deep`
        its on-disk records, read without counting), and task
        conservation."""
        c = self.file_capacity
        if len(self._in) > self.buffer_capacity:
            raise QueueInvariantError("input buffer over capacity")
        if len(self._out) > c:
            raise QueueInvariantError("output buffer over capacity")
        for pos, m in enumerate(self._files):
            if m.count > c:
                raise QueueInvariantError(f"{m.name}: overfull ({m.count})")
            if m.count < -(-c // 2) and len(self._files) > 1:
                raise QueueInvariantError(f"{m.name}: underfull ({m.count})")
            if m.key_lo > m.key_hi:
                raise QueueInvariantError(f"{m.name}: inverted key range")
            if pos > 0 and self._files[pos - 1].key_hi > m.key_lo:
                raise QueueInvariantError(f"{m.name}: range overlaps previous file")
        if deep:
            for m in self._files:
                keys = [r.key for r in self._load(m, count=False, delete=False)]
                if keys != sorted(keys):
                    raise QueueInvariantError(f"{m.name}: records unsorted")
                if keys[0] != m.key_lo or keys[-1] != m.key_hi:
                    raise QueueInvariantError(f"{m.name}: stale key range")
        if self.enqueued_total != self.fetched_total + len(self):
            raise QueueInvariantError("conservation violated")
        return True

    def metrics(self):
        r, w = self.io_counters()
        return {
            "queue_enqueued": self.enqueued_total,
            "queue_fetched": self.fetched_total,
            "queue_spills": self.spill_count,
            "queue_file_reads": r,
            "queue_file_writes": w,
        }


# The engine's queue kinds, read only by the benchmark harness
# (`perfbench/job.py:install_spans`) and its tests; the queue takes no kind.
QUEUE_KINDS = {"stream": TaskQueue, "lsh": TaskQueue}
