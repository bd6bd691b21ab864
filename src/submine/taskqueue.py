"""Disk-spilling task queues.

Both queue kinds share one buffering path, owned by the base class:

* enqueue appends to an in-memory input buffer of up to `buffer_capacity`
  (B) tasks; when it fills, `merge_spill` moves it into a chain of spill
  files of at most `file_capacity` (C) tasks, so disk traffic happens in
  C-task units rather than per task;
* fetch serves from an output buffer of at most C tasks, refilled from
  the first file of the chain if there is one, else with up to C tasks
  taken from the input buffer; consumed files are deleted.

The kinds differ in two decisions only:

* how a full input buffer joins the chain.  StreamTaskQueue (plain FIFO)
  appends the buffer's oldest tasks as files of exactly C and keeps the
  remainder.  LshTaskQueue keeps the chain sorted by minhash TaskKey:
  files hold between ceil(C/2) and C tasks over disjoint, ascending key
  ranges, and the sorted buffer is bulk-merged into it b-tree style,
  reading, merging and rewriting only the files whose range absorbs
  incoming keys, split into balanced chunks on overflow;
* which buffered task is served first.  Stream takes the oldest; LSH
  sorts the input buffer first and takes the lowest keys.

io counters track file-granularity reads and writes for both kinds and
always match what an external filesystem observer sees.
"""

import heapq
import os
from bisect import bisect_right
from collections import deque
from typing import NamedTuple

from .minhash import TaskKey
from .serialize import CorruptData, decode_file, encode_file


class QueueInvariantError(RuntimeError):
    pass


class TaskRecord(NamedTuple):
    key: TaskKey
    payload: bytes


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


class _TaskQueueBase:
    """The shared buffering path; subclasses supply `merge_spill` and the
    per-file checks, and may reorder the input buffer before a take."""

    kind = "?"

    def __init__(self, dirpath, file_capacity=100, buffer_capacity=1000,
                 storage=None):
        check_queue_capacities(file_capacity, buffer_capacity)
        self.file_capacity = file_capacity
        self.buffer_capacity = buffer_capacity
        self.storage = storage or QueueStorage(dirpath)
        self.enqueued_total = 0
        self.fetched_total = 0
        self.spill_count = 0
        self._file_seq = 0
        self._in = []          # input buffer, at most B tasks
        self._out = deque()    # output buffer, at most C tasks
        self._files = []       # FileMeta of the spill chain, in fetch order

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
        self._in.append(rec)
        self.enqueued_total += 1
        if len(self._in) >= self.buffer_capacity:
            self.merge_spill()

    def seed_bulk(self, records):
        """Initial seeding: plain appends in the given order."""
        for rec in records:
            self.enqueue(rec)

    def fetch(self):
        if not self._out:
            if self._files:
                self._out.extend(self._load(self._files.pop(0)))
            elif self._in:
                self._order_input()
                self._out.extend(self._in[:self.file_capacity])
                del self._in[:self.file_capacity]
        if not self._out:
            return None
        self.fetched_total += 1
        return self._out.popleft()

    def _order_input(self):
        """Put the input buffer in serving order; FIFO keeps enqueue order."""

    def io_counters(self):
        return (self.storage.files_read, self.storage.files_written)

    def _next_name(self):
        self._file_seq += 1
        return f"f{self._file_seq:08d}.tasks"

    def _write_records(self, records):
        name = self._next_name()
        self.storage.write(name, encode_file(self.file_capacity, records))
        return FileMeta(name, len(records), records[0].key, records[-1].key)

    def _load(self, meta, count=True, delete=True):
        data = self.storage.read(meta.name, count=count)
        try:
            _, _, raw = decode_file(data)
        except CorruptData as e:
            path = os.path.join(self.storage.dir, meta.name)
            raise CorruptData(f"spill file {path}: {e}") from e
        if len(raw) != meta.count:
            raise QueueInvariantError(
                f"{meta.name}: holds {len(raw)} records, index says {meta.count}"
            )
        if delete:
            self.storage.delete(meta.name)
        return [TaskRecord(k, p) for k, p in raw]

    def check_invariants(self, deep=False):
        """Buffer bounds, each file's shape (and with `deep` its on-disk
        records, read without counting), and task conservation."""
        if len(self._in) > self.buffer_capacity:
            raise QueueInvariantError("input buffer over capacity")
        if len(self._out) > self.file_capacity:
            raise QueueInvariantError("output buffer over capacity")
        for pos, m in enumerate(self._files):
            self._check_file(pos, m)
        if deep:
            for m in self._files:
                self._check_records(m, self._load(m, count=False, delete=False))
        if self.enqueued_total != self.fetched_total + len(self):
            raise QueueInvariantError("conservation violated")
        return True

    def _check_records(self, meta, records):
        """Kind-specific checks of one file's records (count is checked
        by _load)."""

    def metrics(self):
        r, w = self.io_counters()
        return {
            "queue_enqueued": self.enqueued_total,
            "queue_fetched": self.fetched_total,
            "queue_spills": self.spill_count,
            "queue_file_reads": r,
            "queue_file_writes": w,
        }


def check_stream_capacities(file_capacity, buffer_capacity):
    """Only whole C-task files spill, so B < C would overfill the buffer."""
    if buffer_capacity < file_capacity:
        raise ValueError(f"stream queue: buffer_capacity {buffer_capacity}"
                         f" < file_capacity {file_capacity}")


class StreamTaskQueue(_TaskQueueBase):
    """FIFO task queue: head reads, tail appends, files of exactly C."""

    kind = "stream"

    def __init__(self, dirpath, file_capacity=100, buffer_capacity=1000,
                 storage=None):
        check_stream_capacities(file_capacity, buffer_capacity)
        super().__init__(dirpath, file_capacity, buffer_capacity, storage)

    def merge_spill(self):
        """Append the input buffer's oldest tasks as full C-task files."""
        c = self.file_capacity
        n = len(self._in) - len(self._in) % c
        for off in range(0, n, c):
            self._files.append(self._write_records(self._in[off:off + c]))
            self.spill_count += 1
        del self._in[:n]

    def _check_file(self, pos, meta):
        if meta.count != self.file_capacity:
            raise QueueInvariantError(f"{meta.name}: stream file not full")


class LshTaskQueue(_TaskQueueBase):
    """Key-sorted task queue with a b-tree-ish file chain."""

    kind = "lsh"

    def seed_bulk(self, records):
        """Bulk-load seed tasks: sort once, then either keep them in the
        input buffer (small jobs never touch disk) or write them directly
        as the initial file chain."""
        records = sorted(records, key=_rkey)
        self.enqueued_total += len(records)
        if len(records) <= self.buffer_capacity:
            self._in.extend(records)
        else:
            self._files = self._write_chain(records)
            self.spill_count += 1

    def _order_input(self):
        self._in.sort(key=_rkey)

    def merge_spill(self):
        """Sort the input buffer and bulk-merge it into the file chain."""
        batch = sorted(self._in, key=_rkey)
        self._in = []
        if not batch:
            return
        self.spill_count += 1
        if not self._files:
            self._files = self._write_chain(batch)
            return
        los = [m.key_lo for m in self._files]
        groups = {}
        for rec in batch:
            i = bisect_right(los, rec.key) - 1
            if i < 0:
                i = 0
            groups.setdefault(i, []).append(rec)
        new_files = []
        prev = 0
        for i in sorted(groups):
            new_files.extend(self._files[prev:i])
            existing = self._load(self._files[i])
            merged = list(heapq.merge(existing, groups[i], key=_rkey))
            new_files.extend(self._write_chain(merged))
            prev = i + 1
        new_files.extend(self._files[prev:])
        self._files = new_files

    def _write_chain(self, records):
        """Write sorted records as balanced files of at most C tasks.

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
        for j in range(k):
            size = base + (1 if j < extra else 0)
            metas.append(self._write_records(records[off:off + size]))
            off += size
        return metas

    def _check_file(self, pos, meta):
        if meta.count > self.file_capacity:
            raise QueueInvariantError(f"{meta.name}: overfull ({meta.count})")
        if meta.count < -(-self.file_capacity // 2) and len(self._files) > 1:
            raise QueueInvariantError(f"{meta.name}: underfull ({meta.count})")
        if meta.key_lo > meta.key_hi:
            raise QueueInvariantError(f"{meta.name}: inverted key range")
        if pos > 0 and self._files[pos - 1].key_hi > meta.key_lo:
            raise QueueInvariantError(f"{meta.name}: range overlaps previous file")

    def _check_records(self, meta, records):
        keys = [r.key for r in records]
        if keys != sorted(keys):
            raise QueueInvariantError(f"{meta.name}: records unsorted")
        if keys[0] != meta.key_lo or keys[-1] != meta.key_hi:
            raise QueueInvariantError(f"{meta.name}: stale key range")


QUEUE_KINDS = {"stream": StreamTaskQueue, "lsh": LshTaskQueue}


def make_queue(kind, dirpath, file_capacity=100, buffer_capacity=1000,
               storage=None):
    try:
        cls = QUEUE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown queue kind {kind!r}") from None
    return cls(dirpath, file_capacity=file_capacity,
               buffer_capacity=buffer_capacity, storage=storage)
