"""The worker runtime.

Each worker owns a partition of the vertex table, a disk-spilling task
queue, and a bounded cache of remote vertices.  A task that lacks no
vertex -- every id it pulls is local, or already filled in the cache --
runs at once and never enters the queue; only a task that still needs a
remote vertex is keyed and queued.  One method (`Worker._place`) decides
this for a seed, for a child spawned by add_task, and for a task's next
iteration.  A queued task stays a Python object; the queue encodes it
only if it spills to a file, and only a task read back from a file is
decoded.

Seeding is lazy, as in G-thinker: a cursor walks the local vertices in
id order, and `seed_all` spawns seeds from it until the queue holds
`buffer_capacity` (B) tasks or the cursor ends.  Ready seeds compute on
the spot, together with their ready children (a worklist, not
recursion); everything else, including what those tasks spawn or
requeue, goes to the queue as one window.  So an `lsh` queue orders
seeds by MinHash key within each window of B seeds, not across the
whole seed load.  Then the worker repeats three-step rounds until the
cursor has ended and its queue drains:

1. task fetching -- first, if the queue holds fewer than B tasks and
   the cursor has not ended, spawn the next window of seeds.  Then pop
   tasks from the queue into the round batch until the batch buffer is
   full or the cache cannot reserve a task's pull set.  Reservation is
   all-or-nothing per task: the task that does not fit waits for the
   next round.  A task that alone exceeds the whole cache is reserved
   over capacity as a round's first task and runs as a singleton batch
   (an overflow episode); the round's unpin trims the cache back to
   capacity.
2. vertex pulling -- one request per destination worker carrying the
   deduplicated id list of everything the batch needs but does not have;
   responses are decoded into the cache.  Within a round no vertex id is
   ever requested twice.
3. task computing -- each task's compute runs repeatedly (its frontier is
   the vertices it pulled in the previous iteration, in pull-call order)
   until it either finishes or pulls a vertex that is neither local nor
   cached; in that case it is re-keyed by its new pull set and requeued.
   New tasks spawned by compute stay on this worker: ready ones run in
   the same round, the rest are queued.

A worker whose tasks are all ready (every single-worker job whose apps
pull only graph vertices) finishes inside its first seeding window and
runs no round.

Workers exchange vertices only.  Each `Worker` runs two threads: the
compute loop (`run`) and a responder (`serve`) that answers pull
requests from the worker's own table, optionally through the app's
respond hook (which may send a pruned copy), so computation never blocks
remote requesters.  Aggregation is per-worker with an optional periodic
sync that publishes local values and a merged global snapshot; each
worker also publishes once when its seed cursor ends, and a final merge
always runs at job end.  There is no global round barrier; a job ends
when every worker's seed cursor has ended, its queue is empty and it
carries no task into a next round, which the coordinating thread
observes by joining the compute threads.

One failure rule covers both threads of every worker: the first error
any thread raises stops the job, and `run_job` raises the first error,
in the order the errors happened, that is not a `JobAborted` echo of
another.  An app hook's exception becomes a `ComputeError` naming the
app, the hook, the worker and the seed (or the vertex and the requesting
worker); an `EngineError` raised inside a hook passes through as it is.
A worker checks the job's stop flag between tasks, so a peer's failure
ends even a long seeding window within a task.
"""

import operator
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import filterfalse
from typing import Callable, Optional

from .graph import (
    Graph,
    Subgraph,
    check_undirected,
    partition_graph,
    partition_owner,
)
from .minhash import TaskKey, check_ell, derive_seeds, minhash_signature
from .serialize import TaskWire, decode_task, encode_task, encode_vertex, vertex_from_bytes
from .store import CacheError, VertexCache, VertexStore, check_cache_capacity
from .taskqueue import TaskQueue, TaskRecord, check_queue_capacities
from .transport import SHUTDOWN, InProcTransport, PullResponse


class EngineError(RuntimeError):
    pass


class ProtocolError(EngineError):
    pass


class ComputeError(EngineError):
    """An app hook raised: seed, compute, respond, encode_context or
    decode_context.  The message names the app, the hook and the worker,
    then the seed (and the task's iteration) or, for respond, the vertex
    and the worker that requested it."""


class JobAborted(EngineError):
    """Secondary failure after another worker already stopped the job."""


@dataclass
class RunConfig:
    """How `run_job` runs one job; fields are checked on construction.

    workers: number of workers (threads), each owning the partition of
        vertices whose id hashes to it; at least 1.
    buffer_capacity: B, the tasks a worker's queue holds in memory
        before it spills to files.  It is also the batch size: a round
        fetches at most B tasks, and a seeding window stops once the
        queue holds B tasks.
    file_capacity: C, the most tasks one spill file holds; files hold
        between ceil(C/2) and C, and a fetch refills up to C at a time.
        At least 2.
    cache_capacity: how many remote vertices a worker's cache holds,
        counted in vertices, not bytes; at least 1.  Only a task whose
        pull set alone exceeds it goes over it, for its own round.
    queue_kind: "lsh" serves tasks by the MinHash key of their pull
        sets, so tasks that pull similar vertices run together;
        "stream" serves them in enqueue order.
    ell: signatures per MinHash key (1..65535); "stream" ignores it.
    run_seed: derives the MinHash seeds, so it can change the order in
        which "lsh" tasks run, never the results.
    sync_every_rounds: publish the worker's aggregator value and
        refresh the global snapshot every this many rounds; None or 0
        turns this period off.
    sync_every_ms: also publish when at least this many milliseconds
        have passed since the last sync; None turns it off.  It is
        checked only at a round's end, so a worker that runs no round
        publishes only when its seeding ends and at job end.
    workdir: directory for the workers' spill files; it is kept after
        the job.  None means a temporary directory that is removed
        however the job ends.
    collect_trace: record each worker's event list in
        `JobResult.traces`.
    """

    workers: int = 8
    buffer_capacity: int = 1000
    file_capacity: int = 100
    cache_capacity: int = 1_000_000
    queue_kind: str = "lsh"
    ell: int = 4
    run_seed: int = 1
    sync_every_rounds: Optional[int] = 1
    sync_every_ms: Optional[float] = None
    workdir: Optional[str] = None
    collect_trace: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_kind not in ("stream", "lsh"):
            raise ValueError(f"unknown queue kind {self.queue_kind!r}")
        check_ell(self.ell)
        check_queue_capacities(self.file_capacity, self.buffer_capacity)
        check_cache_capacity(self.cache_capacity)
        # None turns either sync period off, and so do 0 rounds;
        # `not >= 0` rejects NaN too.
        for name in ("sync_every_rounds", "sync_every_ms"):
            if not (getattr(self, name) or 0) >= 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class AggregatorSpec:
    """Commutative, associative merge with an identity.

    Values flow task -> worker-local -> global; periodic sync republishes
    worker locals, so mid-run snapshots are only meaningful for monotone
    merges (max-style).  The final merge at job end is always exact.
    """

    zero: Callable
    merge: Callable


# The aggregator of every app whose value is a count.
SUM_AGGREGATOR = AggregatorSpec(zero=int, merge=operator.add)


class SharedAggregator:
    def __init__(self, spec: AggregatorSpec, num_workers):
        self.spec = spec
        self._slots = [spec.zero() for _ in range(num_workers)]
        self._lock = threading.Lock()
        self._snapshot = spec.zero()

    def publish(self, wid, value):
        with self._lock:
            self._slots[wid] = value
            snap = self.spec.zero()
            for s in self._slots:
                snap = self.spec.merge(snap, s)
            self._snapshot = snap

    def snapshot(self):
        return self._snapshot


def encode_no_context(_ctx):
    """encode_context for apps whose tasks carry no context."""
    return b""


def decode_no_context(_data):
    return None


@dataclass
class AppSpec:
    """A mining application: seeding, compute, and serialization hooks."""

    name: str
    seed: Callable                 # (Vertex) -> iterable of Task
    compute: Callable              # (Task, frontier: list[Vertex]) -> bool
    encode_context: Callable = encode_no_context   # (ctx) -> bytes
    decode_context: Callable = decode_no_context   # (bytes) -> ctx
    respond: Optional[Callable] = None   # (Vertex) -> Vertex | None
    aggregator: Optional[AggregatorSpec] = None


class Task:
    """One unit of mining work, anchored at the vertex that seeded it.

    Inside compute, `frontier` holds the vertices pulled in the previous
    iteration in pull-call order; frontier references are only valid for
    the duration of the call (copy what must be kept into the task's own
    subgraph).  pull() requests a vertex for the next iteration (local
    ids resolve without messaging; an id pulled twice arrives once, at
    its first place); add_task() spawns a child task that inherits this
    task's seed attribution unless given its own.  A queued task is kept
    as this object, not copied, until its queue spills it, so a child
    must not share mutable state that its parent changes later.
    """

    __slots__ = (
        "seed_id", "context", "subgraph", "requested", "pending",
        "iteration", "_worker", "_pull_order", "_children",
    )

    def __init__(self, seed_id, context=None, subgraph=None, pulls=()):
        self.seed_id = seed_id
        self.context = context
        self.subgraph = subgraph if subgraph is not None else Subgraph()
        self.requested = tuple(pulls)  # Worker._place sets `pending` if queued
        self.iteration = 0
        self._worker = None
        self._pull_order = None
        self._children = []

    def pull(self, vid):
        self._pull_order.append(vid)

    def add_task(self, child):
        self._children.append(child)

    def emit(self, line):
        self._worker._emit(self.seed_id, line)

    def aggregate(self, value):
        self._worker._aggregate(value)

    def best(self):
        """Merged view of the worker-local value and the last published
        global snapshot (the pruning bound for branch-and-bound apps)."""
        return self._worker._best()

    def _begin(self, worker):
        self._worker = worker
        self._pull_order = []
        self._children = []

    def _end(self):
        self._worker = None


# tasks_local counts the seeded and spawned tasks that ran at once,
# without a queue entry; every other created task, and every requeue, is
# one queue entry.
_METRIC_KEYS = (
    "rounds", "tasks_seeded", "tasks_spawned", "tasks_completed",
    "tasks_local", "tasks_requeued", "compute_calls", "requests_sent",
    "responses_served", "vertices_requested", "vertices_served", "overflow_episodes",
)


class Worker:
    """One worker: a partition's table, cache and task queue, the compute
    loop over them (`run`) and the responder that serves the table to
    the other workers (`serve`), each on its own thread.  Each emitted
    line is held once, in `lines`, with its task's seed id at the same
    index of `line_seeds`."""

    def __init__(self, wid, cfg, app, table, transport, agg, stop, seeds,
                 workdir):
        self.wid = wid
        self.cfg = cfg
        self.app = app
        self.table = table
        self.transport = transport
        self.agg = agg
        self.stop = stop
        self.trace = [] if cfg.collect_trace else None
        trace_cb = self.trace.append if cfg.collect_trace else None
        self.cache = VertexCache(
            cfg.cache_capacity, is_local=table.__contains__, trace=trace_cb
        )
        self.store = VertexStore(table, self.cache)
        self.queue = TaskQueue(
            os.path.join(workdir, f"w{wid}", "queue"),
            file_capacity=cfg.file_capacity,
            buffer_capacity=cfg.buffer_capacity,
            encode=self._encode,
        )
        # The queue takes no kind; the kind is only the key rule in
        # `_place`: a stream key carries no signature, just the
        # sequence number, so the queue serves it in enqueue order (and
        # its spill files say ell 0).
        self.minhash_seeds = seeds if cfg.queue_kind == "lsh" else None
        self.local_value = app.aggregator.zero() if app.aggregator else None
        self.lines = []
        self.line_seeds = []
        self.round_no = 0
        self.metrics = {k: 0 for k in _METRIC_KEYS}
        self._seq = 0
        # The local ids not seeded yet, in id order; None once it ends.
        self._cursor = iter(sorted(table))
        self._carry = None
        self._last_sync = time.monotonic()

    def _hook_error(self, hook, e, where):
        """The error an app hook's exception `e` becomes: an EngineError
        (say a ProtocolError) as it is, anything else a ComputeError
        naming the app, the hook, this worker and `where`."""
        if isinstance(e, EngineError):
            return e
        err = ComputeError(f"app {self.app.name!r} {hook} failed: "
                           f"worker {self.wid}, {where}: {e}")
        err.__cause__ = e
        return err

    # -- task plumbing -----------------------------------------------------

    def _place(self, task, enqueue) -> bool:
        """Decide whether `task` runs now or is queued, after dropping its
        repeated pulls (first-pull order kept).  True when it lacks no
        vertex -- every id it pulls is local or filled in the cache -- so
        it can compute now; its cached pulls count as hits and refresh
        recency.  Otherwise its pending set is the ids it pulls that are
        not local; the task is keyed by that set and its record passed
        to `enqueue`."""
        task.requested = requested = tuple(dict.fromkeys(task.requested))
        pending = frozenset(filterfalse(self.table.__contains__, requested))
        cache = self.cache
        if all(map(cache.has_data, pending)):
            for vid in pending:
                cache.get(vid)  # recency + hit accounting
            return True
        task.pending = pending
        seeds = self.minhash_seeds
        sigs = () if seeds is None else minhash_signature(pending, seeds)
        enqueue(TaskRecord(TaskKey(sigs, self._seq), task))
        self._seq += 1
        return False

    def _encode(self, task) -> bytes:
        """The queue's encode hook: a task's spill-file payload."""
        try:
            context = self.app.encode_context(task.context)
        except Exception as e:
            raise self._hook_error("encode_context", e, f"seed {task.seed_id}, "
                                   f"iteration {task.iteration}")
        return encode_task(TaskWire(
            task.seed_id, task.iteration, task.requested, context, task.subgraph,
        ))

    def _decode(self, payload: bytes) -> Task:
        """Rebuild a task read back from a spill file.  Its pulls were
        deduplicated before it was encoded, so only its pending set is
        derived again, from this worker's table, which encoded it."""
        w = decode_task(payload)
        try:
            context = self.app.decode_context(w.context)
        except Exception as e:
            raise self._hook_error("decode_context", e, f"seed {w.seed_id}, "
                                   f"iteration {w.iteration}")
        t = Task(w.seed_id, context, w.subgraph, pulls=w.requested)
        t.iteration = w.iteration
        t.pending = frozenset(filterfalse(self.table.__contains__, t.requested))
        return t

    def _emit(self, seed_id, line):
        self.lines.append(line)
        self.line_seeds.append(seed_id)

    def _aggregate(self, value):
        if self.app.aggregator is None:
            raise EngineError(f"app {self.app.name!r} has no aggregator")
        self.local_value = self.app.aggregator.merge(self.local_value, value)

    def _best(self):
        if self.agg is None:
            return self.local_value  # None: the app has no aggregator
        return self.app.aggregator.merge(self.local_value, self.agg.snapshot())

    # -- the round loop ----------------------------------------------------

    def seed_all(self):
        """Spawn one window of seeds from the cursor, in id order: until
        the window holds the room the queue has left below B, or the
        cursor ends.  Ready tasks compute at once; the rest, with
        whatever those tasks spawn or requeue, go to the queue in one
        bulk load.  When the cursor ends, publish and trace the seeding."""
        room = self.cfg.buffer_capacity - len(self.queue)
        records = []
        enqueue = records.append
        for vid in self._cursor:
            # Listed inside the try, so a generator seed's error is the
            # hook's too; placing and running the tasks is not.
            try:
                tasks = list(self.app.seed(self.table[vid]) or ())
            except Exception as e:
                raise self._hook_error("seed", e, f"seed {vid}")
            for t in tasks:
                self.metrics["tasks_seeded"] += 1
                if self._place(t, enqueue):
                    self.metrics["tasks_local"] += 1
                    self._run_tasks([t], enqueue)
            if len(records) >= room:
                break
        else:
            self._cursor = None
        self.queue.seed_bulk(records)
        if self._cursor is None:
            if self.agg is not None:
                self.agg.publish(self.wid, self.local_value)
            if self.trace is not None:
                self.trace.append(("seeded", self.metrics["tasks_seeded"]))

    def run(self):
        """The compute loop: seed windows and rounds until the cursor has
        ended and the queue drains, or the job stops."""
        b = self.cfg.buffer_capacity
        while not self.stop.is_set():
            if self._cursor is not None and len(self.queue) < b:
                self.seed_all()
            if not self.run_round():
                break
        if self.agg is not None:
            self.agg.publish(self.wid, self.local_value)

    def serve(self):
        """The responder: answer pull requests from this worker's table
        until SHUTDOWN, which _run_workers always sends.  It touches only
        the read-only table, the app's respond hook and its own two
        metrics, which the compute loop never writes."""
        table, respond, metrics = self.table, self.app.respond, self.metrics
        while True:
            req = self.transport.next_request(self.wid)
            if req is SHUTDOWN:
                return
            blobs = []
            for vid in req.ids:
                v = table.get(vid)
                if v is None:
                    raise ProtocolError(
                        f"worker {req.src} requested vertex {vid}, "
                        f"which worker {self.wid} does not own"
                    )
                if respond is not None:
                    try:
                        pruned = respond(v)
                    except Exception as e:
                        raise self._hook_error("respond", e, f"vertex {vid} "
                                               f"requested by worker {req.src}")
                    if pruned is not None:
                        v = pruned
                blobs.append(encode_vertex(v))
            self.transport.send_response(req.src, PullResponse(self.wid, blobs))
            metrics["responses_served"] += 1
            metrics["vertices_served"] += len(blobs)

    def run_round(self):
        cache = self.cache
        batch = []
        pinned = []  # the pull set each batched task pinned, if any
        to_request = set()

        # Step 1: fetch tasks while the batch buffer and the cache have room.
        while len(batch) < self.cfg.buffer_capacity:
            if self._carry is not None:
                task, self._carry = self._carry, None
            else:
                rec = self.queue.fetch()
                if rec is None:
                    break
                task = rec.payload
                if task.__class__ is bytes:  # read back from a spill file
                    task = self._decode(task)
            need = task.pending
            if need:
                # A pull set bigger than the whole cache is reserved over
                # capacity, but only as the first task of a batch.
                fresh = cache.reserve(need, overflow=not batch)
                if fresh is None:
                    self._carry = task
                    break
                # Ids that already had a slot are filled or requested already.
                to_request.update(fresh)
                pinned.append(need)
            batch.append(task)
            if cache.resident > cache.capacity:
                # That task runs alone; unpin_batch trims the cache back.
                self.metrics["overflow_episodes"] += 1
                break

        if not batch:
            return False

        self.round_no += 1
        self.metrics["rounds"] += 1
        if self.trace is not None:
            self.trace.append(("round", self.round_no, len(batch)))

        # Step 2: one deduplicated pull request per destination worker.
        by_owner = {}
        for vid in sorted(to_request):
            by_owner.setdefault(partition_owner(vid, self.cfg.workers), []).append(vid)
        outstanding = 0
        for dst in sorted(by_owner):
            ids = by_owner[dst]
            self.transport.send_request(self.wid, dst, ids)
            outstanding += 1
            self.metrics["requests_sent"] += 1
            self.metrics["vertices_requested"] += len(ids)
            if self.trace is not None:
                self.trace.append(("request", self.wid, self.round_no, dst, tuple(ids)))
        while outstanding:
            resp = self.transport.next_response(self.wid)
            if resp is None:
                if self.stop.is_set():
                    raise JobAborted(
                        f"worker {self.wid} aborted awaiting pull responses"
                    )
                continue
            cache.insert_pulled(list(map(vertex_from_bytes, resp.blobs)))
            outstanding -= 1
            if self.trace is not None:
                self.trace.append(("response", self.wid, resp.src, len(resp.blobs)))

        # Step 3: compute every batched task to completion or requeue.
        batch.reverse()
        self._run_tasks(batch, self.queue.enqueue)

        if pinned:
            cache.unpin_batch(pinned)
        self._maybe_sync()
        return True

    def _run_tasks(self, work, enqueue):
        """Run the tasks on the worklist `work`, last first.  Ready
        children join the list as their parents spawn them; what lacks a
        vertex is keyed and passed to `enqueue`."""
        while work:
            if self.stop.is_set():
                raise JobAborted(f"worker {self.wid} stopped by another failure")
            self._run_task(work.pop(), work, enqueue)

    def _run_task(self, task, work, enqueue):
        """Iterate one task to completion or until its next iteration
        lacks a vertex.  Its ready children go on top of `work`, to run
        next in spawn order once it stops."""
        while True:
            try:
                frontier = self.store.resolve(task.requested)
            except CacheError as e:
                raise EngineError(
                    f"worker {self.wid}, seed {task.seed_id}, iteration "
                    f"{task.iteration}: {e}"
                ) from e
            task._begin(self)
            try:
                cont = self.app.compute(task, frontier)
            except Exception as e:
                task._end()
                raise self._hook_error("compute", e, f"seed {task.seed_id}, "
                                       f"iteration {task.iteration}")
            children = task._children
            task._children = []
            task._end()
            task.iteration += 1
            self.metrics["compute_calls"] += 1
            ready = []
            for child in children:
                self.metrics["tasks_spawned"] += 1
                if self._place(child, enqueue):
                    self.metrics["tasks_local"] += 1
                    ready.append(child)
            work.extend(reversed(ready))
            if not cont:
                self.metrics["tasks_completed"] += 1
                if self.trace is not None:
                    self.trace.append(("complete", task.seed_id, task.iteration))
                return
            task.requested = task._pull_order
            if not self._place(task, enqueue):
                # Re-keyed by the new pull set and handed back to the queue.
                self.metrics["tasks_requeued"] += 1
                if self.trace is not None:
                    self.trace.append(
                        ("requeue", task.seed_id, task.iteration, len(task.pending))
                    )
                return
            # Every pull is resident: iterate again at once.

    def _maybe_sync(self):
        if self.agg is None:
            return
        due = False
        if self.cfg.sync_every_rounds:
            due = self.round_no % self.cfg.sync_every_rounds == 0
        if not due and self.cfg.sync_every_ms is not None:
            now = time.monotonic()
            if (now - self._last_sync) * 1000.0 >= self.cfg.sync_every_ms:
                due = True
        if due:
            self.agg.publish(self.wid, self.local_value)
            self._last_sync = time.monotonic()
            if self.trace is not None:
                self.trace.append(("sync", self.round_no))

    # -- end-of-job checks ---------------------------------------------------

    def assert_drained(self):
        if len(self.queue) != 0:
            raise EngineError(f"worker {self.wid} queue not drained")
        if self._carry is not None:
            raise EngineError(f"worker {self.wid} carried task not drained")
        self.cache.assert_quiescent()

    def collect_metrics(self):
        m = dict(self.metrics)
        m.update(self.cache.metrics())
        m.update(self.queue.metrics())
        return m


@dataclass
class JobResult:
    """A finished job.  `lines` and `line_seeds` are the workers' own
    lists, not copies; `emitted` and `result_lines()` derive from them."""
    aggregate: object
    lines: list            # per worker: its emitted lines, in emit order
    line_seeds: list       # per worker: the seed id of each of its lines
    metrics: dict          # summed over workers
    per_worker: list       # one metrics dict per worker
    traces: Optional[list] # per-worker event lists when collect_trace
    elapsed: float
    config: RunConfig

    @property
    def emitted(self):
        """Every line as a (worker, seed_id, line) triple, in emit order."""
        return [(wid, seed, line) for wid, seeds in enumerate(self.line_seeds)
                for seed, line in zip(seeds, self.lines[wid])]

    def result_lines(self):
        return [line for lines in self.lines for line in lines]

    def cache_hit_rate(self):
        h = self.metrics["cache_hits"]
        m = self.metrics["cache_misses"]
        return h / (h + m) if h + m else 1.0


def _run_workers(cfg, app, tables, seeds, agg, workdir):
    """Build the workers, run each one's compute loop and responder to
    the end, and return the workers; raises the first error any thread
    hit."""
    transport = InProcTransport(cfg.workers)
    stop = threading.Event()
    errors = []  # in the order they happened

    def fail(e):
        errors.append(e)
        stop.set()

    def thread(body, name):
        def target():
            try:
                body()
            except BaseException as e:
                fail(e)
        return threading.Thread(target=target, name=name, daemon=True)

    workers = [
        Worker(i, cfg, app, tables[i], transport, agg, stop, seeds, workdir)
        for i in range(cfg.workers)
    ]
    responders = [thread(w.serve, f"responder-{w.wid}") for w in workers]
    computes = [thread(w.run, f"worker-{w.wid}") for w in workers]
    try:
        for t in responders:
            t.start()
        for t in computes:
            t.start()
        for t in computes:
            t.join()
    finally:
        transport.shutdown_responders()
        for t in responders:
            t.join(timeout=5.0)

    if errors:
        # A failed job leaves no spill file, also in a kept workdir.
        for w in workers:
            w.queue.discard()
        raise next((e for e in errors if not isinstance(e, JobAborted)), errors[0])
    return workers


def run_job(cfg: RunConfig, app: AppSpec, graph: Graph) -> JobResult:
    """Run one mining job on `graph` to completion and return its results.

    Raises the first error a compute loop or responder hit, in the order
    the errors happened (with provenance for app hook failures), after
    stopping the job.  A temporary workdir is removed however the job
    ends.
    """
    t0 = time.perf_counter()
    check_undirected(graph)
    tables = partition_graph(graph, cfg.workers)
    seeds = derive_seeds(cfg.run_seed, cfg.ell)
    agg = SharedAggregator(app.aggregator, cfg.workers) if app.aggregator else None
    workdir = cfg.workdir or tempfile.mkdtemp(prefix="submine-run-")
    try:
        workers = _run_workers(cfg, app, tables, seeds, agg, workdir)
        for w in workers:
            w.assert_drained()
        per_worker = [w.collect_metrics() for w in workers]
        totals = {}
        for m in per_worker:
            for k, v in m.items():
                totals[k] = totals.get(k, 0) + v
        created = totals["tasks_seeded"] + totals["tasks_spawned"]
        if created != totals["tasks_completed"]:
            raise EngineError(
                f"exactly-once violated: {created} tasks created, "
                f"{totals['tasks_completed']} completed"
            )
        return JobResult(
            aggregate=agg.snapshot() if agg else None,
            lines=[w.lines for w in workers],
            line_seeds=[w.line_seeds for w in workers],
            metrics=totals,
            per_worker=per_worker,
            traces=[w.trace for w in workers] if cfg.collect_trace else None,
            elapsed=time.perf_counter() - t0,
            config=cfg,
        )
    finally:
        if cfg.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
