"""Worker runtime: rounds, pulls, dedup, overflow, children, errors,
aggregation, termination, determinism."""

import dataclasses
import gc
import hashlib
import os
import pickle
import re
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest

import submine.engine as E
import submine.graph as G
import submine.taskqueue as Q
from submine.engine import (
    AggregatorSpec,
    AppSpec,
    ComputeError,
    EngineError,
    ProtocolError,
    RunConfig,
    Task,
    run_job,
)
from submine.gen import (
    complete_graph,
    gnp_graph,
    hub_cluster_graph,
    labeled_gnp_graph,
    path_graph,
    star_graph,
)
from submine.graph import (
    AdjItem,
    Graph,
    GraphDataError,
    Vertex,
    larger_neighbor_ids,
    partition_owner,
    read_graph,
    write_graph,
)
from submine.apps import make_app
from submine.apps.gmatch import fig4_query
from submine.kernels import pure
from submine.serialize import decode_file
from submine.store import VertexCache

from testkit import assert_cache_bound, assert_dedup


def _spec(name, seed, compute, **kw):
    """Synthetic app with pickle-coded context."""
    return AppSpec(
        name=name,
        seed=seed,
        compute=compute,
        encode_context=pickle.dumps,
        decode_context=pickle.loads,
        **kw,
    )


_SUM = AggregatorSpec(zero=int, merge=lambda a, b: a + b)


# -- seeding and trivial jobs ---------------------------------------------------


def test_k3_seeds_exactly_one_task():
    res = run_job(RunConfig(workers=1), make_app("triangle"),
                  graph=complete_graph(3))
    assert res.aggregate == 1
    assert res.metrics["tasks_seeded"] == 1
    assert res.metrics["tasks_completed"] == 1


def test_empty_graph_terminates_with_zero():
    res = run_job(RunConfig(workers=2), make_app("triangle"), graph=Graph())
    assert res.aggregate == 0
    assert res.metrics["tasks_seeded"] == 0
    assert res.emitted == []


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_k4_all_worker_counts(workers):
    res = run_job(RunConfig(workers=workers), make_app("triangle"),
                  graph=complete_graph(4))
    assert res.aggregate == 4


def test_single_worker_never_sends_messages():
    res = run_job(RunConfig(workers=1), make_app("triangle"),
                  graph=gnp_graph(50, 0.2, seed=1))
    assert res.metrics["requests_sent"] == 0
    assert res.metrics["vertices_requested"] == 0


# -- task api: frontier, pulls, iterations ---------------------------------------


def test_frontier_preserves_pull_call_order():
    seen = []

    def seed(v):
        if v.id == 0:
            return [Task(0, context=(), pulls=(9, 2, 7))]
        return []

    def compute(task, frontier):
        seen.append([f.id for f in frontier])
        return False

    g = complete_graph(10, start_id=0)
    run_job(RunConfig(workers=1), _spec("order", seed, compute), graph=g)
    assert seen == [[9, 2, 7]]


def test_iterations_advance_by_one_and_stop_on_false():
    iters = []

    def seed(v):
        if v.id == 0:
            return [Task(0, pulls=(1,))]
        return []

    def compute(task, frontier):
        iters.append(task.iteration)
        if task.iteration < 2:
            task.pull(task.iteration + 2)  # 2 then 3
            return True
        return False

    g = complete_graph(6, start_id=0)
    res = run_job(RunConfig(workers=1), _spec("iters", seed, compute), graph=g)
    assert iters == [0, 1, 2]
    assert res.metrics["compute_calls"] == 3
    assert res.metrics["tasks_completed"] == 1


def test_pull_dedup_within_iteration():
    got = []

    def seed(v):
        if v.id == 0:
            return [Task(0, pulls=(1,))]
        return []

    def compute(task, frontier):
        if task.iteration == 0:
            task.pull(3)
            task.pull(4)
            task.pull(3)  # duplicate call collapses
            return True
        got.append([f.id for f in frontier])
        return False

    g = complete_graph(6, start_id=0)
    run_job(RunConfig(workers=1), _spec("dedup", seed, compute), graph=g)
    assert got == [[3, 4]]


def test_repeated_pulls_collapse_across_spill_files():
    # Each seed pulls a remote id twice; its next iteration repeats
    # another.  The stream queue holds two tasks in memory and two per
    # file, so the tasks come back from spill files, whose payloads carry
    # only the pull list: the worker derives what is remote again.
    g = complete_graph(12, start_id=0)
    owned = [[vid for vid in sorted(v.id for v in g)
              if partition_owner(vid, 2) == w] for w in (0, 1)]
    seen = {}

    def seed(v):
        r, r2 = owned[1 - partition_owner(v.id, 2)][:2]
        return [Task(v.id, context=(r, r2), pulls=(r, r, v.id))]

    def compute(task, frontier):
        seen[task.seed_id, task.iteration] = [f.id for f in frontier]
        if task.iteration == 0:
            r2 = task.context[1]
            for vid in (r2, task.seed_id, r2):
                task.pull(vid)
            return True
        return False

    res = run_job(RunConfig(workers=2, queue_kind="stream", buffer_capacity=2,
                            file_capacity=2),
                  _spec("repeats", seed, compute), graph=g)
    assert res.metrics["queue_file_reads"] > 0
    assert len(seen) == 2 * len(g)
    for v in g:
        r, r2 = owned[1 - partition_owner(v.id, 2)][:2]
        assert seen[v.id, 0] == [r, v.id]
        assert seen[v.id, 1] == [r2, v.id]


def test_multi_iteration_local_pulls_finish_in_one_round():
    # all pulls resolve locally on a single worker, so the task never
    # goes back to the queue
    def seed(v):
        if v.id == 0:
            return [Task(0, pulls=(1,))]
        return []

    def compute(task, frontier):
        if task.iteration == 0:
            task.pull(2)
            return True
        return False

    g = complete_graph(4, start_id=0)
    res = run_job(RunConfig(workers=1), _spec("local", seed, compute), graph=g)
    assert res.metrics["tasks_requeued"] == 0
    assert res.metrics["compute_calls"] == 2


def test_remote_pull_requeues_with_fresh_key():
    # two workers: the task's second iteration needs a vertex that is
    # remote and uncached, forcing a requeue
    def seed(v):
        if v.id == 0:
            return [Task(0, pulls=())]
        return []

    def compute(task, frontier):
        if task.iteration == 0:
            for vid in range(1, 6):
                task.pull(vid)
            return True
        task.aggregate(len(frontier))
        return False

    g = complete_graph(6, start_id=0)
    res = run_job(RunConfig(workers=2), _spec("requeue", seed, compute,
                                              aggregator=_SUM), graph=g)
    assert res.aggregate == 5
    assert res.metrics["tasks_requeued"] >= 1
    assert res.metrics["tasks_completed"] == 1


# -- children ---------------------------------------------------------------------


def test_add_task_children_run_and_count():
    def seed(v):
        if v.id == 0:
            return [Task(0, context="root")]
        return []

    def compute(task, frontier):
        if task.context == "root":
            for i in range(5):
                task.add_task(Task(0, context=("child", i)))
            task.aggregate(0)
            return False
        task.aggregate(1)
        task.emit(f"child {task.context[1]}")
        return False

    g = complete_graph(3, start_id=0)
    res = run_job(RunConfig(workers=2), _spec("kids", seed, compute,
                                              aggregator=_SUM), graph=g)
    assert res.aggregate == 5
    assert res.metrics["tasks_spawned"] == 5
    assert res.metrics["tasks_completed"] == 6
    assert sorted(res.result_lines()) == [f"child {i}" for i in range(5)]


def test_children_with_remote_pulls_follow_protocol():
    # each child pulls one remote vertex; result equals the direct sum of
    # degrees, i.e. decomposition does not change the answer
    def seed(v):
        if v.id == 0:
            return [Task(0, context="root")]
        return []

    def compute(task, frontier):
        if task.context == "root":
            for vid in (1, 2, 3, 4):
                task.add_task(Task(0, context="leaf", pulls=(vid,)))
            return False
        task.aggregate(frontier[0].degree)
        return False

    g = complete_graph(5, start_id=0)
    res = run_job(RunConfig(workers=3), _spec("ego", seed, compute,
                                              aggregator=_SUM), graph=g)
    assert res.aggregate == 16  # four vertices of degree 4


# -- dedup and overflow ------------------------------------------------------------


def test_shared_pulls_deduplicated_per_round():
    # many low-id members all pull the same hub block
    g = hub_cluster_graph(clusters=2, members=40, hubs=5, seed=3)
    res = run_job(RunConfig(workers=2, collect_trace=True,
                            buffer_capacity=200),
                  make_app("maxclique"), graph=g)
    for tr in res.traces:
        assert_dedup(tr)
    # stronger: count how often each hub id crossed the wire in requests
    per_round = {}
    for tr in res.traces:
        for ev in tr:
            if ev[0] == "request":
                _, wid, rnd, _dst, ids = ev
                for vid in ids:
                    key = (wid, rnd, vid)
                    per_round[key] = per_round.get(key, 0) + 1
    assert per_round and all(c == 1 for c in per_round.values())


def test_oversized_task_uses_overflow_episode():
    g = star_graph(30)  # seed 0 pulls its 29 smaller... actually larger spokes
    res = run_job(RunConfig(workers=2, cache_capacity=2, collect_trace=True),
                  make_app("maxclique"), graph=g)
    assert res.aggregate[0] == 2  # star: best clique is an edge
    assert res.metrics["overflow_episodes"] >= 1
    for tr in res.traces:
        assert_cache_bound(tr, 2)


def test_tiny_cache_still_exact():
    g = gnp_graph(40, 0.2, seed=5)
    want = run_job(RunConfig(workers=1), make_app("triangle"), graph=g).aggregate
    res = run_job(RunConfig(workers=4, cache_capacity=3, collect_trace=True),
                  make_app("triangle"), graph=g)
    assert res.aggregate == want
    for tr in res.traces:
        assert_cache_bound(tr, 3)
        assert_dedup(tr)


def test_eviction_sequence_is_unchanged():
    # Which entries the cache evicts decides its hits, misses and
    # evictions; these are the counts of the reference LRU order with
    # seeds spawned in windows of B.  A change that picks other victims
    # fails here.
    g = gnp_graph(120, 0.1, seed=1)
    cfg = RunConfig(workers=2, cache_capacity=20, buffer_capacity=4,
                    file_capacity=4, queue_kind="lsh")
    res = run_job(cfg, make_app("triangle"), graph=g)
    assert res.aggregate == 289
    m = res.metrics
    assert (m["cache_hits"], m["cache_misses"], m["cache_evictions"]) == (
        132, 162, 122)


def test_each_cache_is_used_only_by_its_workers_compute_thread(monkeypatch):
    # store.py's VertexCache takes its lock for map mutations but relies
    # on one thread, its worker's compute thread, for everything else:
    # a responder or a peer's thread touching it would break that.
    seen = {}
    lock = threading.Lock()

    def watch(name):
        real = getattr(VertexCache, name)

        def wrapper(self, *args, **kwargs):
            with lock:
                seen.setdefault(id(self), set()).add(
                    threading.current_thread().name)
            return real(self, *args, **kwargs)
        monkeypatch.setattr(VertexCache, name, wrapper)

    for name in ("reserve", "insert_pulled", "unpin_batch", "get",
                 "has_data", "enter_overflow", "exit_overflow"):
        watch(name)
    res = run_job(RunConfig(workers=3, cache_capacity=5),
                  make_app("triangle"), graph=gnp_graph(120, 0.1, seed=1))
    assert res.aggregate == 289
    assert res.metrics["cache_evictions"] > 0
    assert res.metrics["overflow_episodes"] > 0
    assert len(seen) == 3
    threads = [names.pop() for names in seen.values() if len(names) == 1]
    assert len(threads) == 3, seen
    assert sorted(threads) == ["worker-0", "worker-1", "worker-2"]


@pytest.mark.parametrize("queue_kind,ell", [("stream", 0), ("lsh", 4)])
def test_only_the_lsh_queue_computes_signatures(monkeypatch, queue_kind, ell):
    # FIFO order never reads keys, so stream keys skip the minhash and
    # their spill files say they carry no signatures
    sig_calls = 0
    real_sig = E.minhash_signature

    def counting_sig(*args):
        nonlocal sig_calls
        sig_calls += 1
        return real_sig(*args)

    headers = []
    real_encode_file = Q.encode_file

    def recording_encode_file(cap, records):
        blob = real_encode_file(cap, records)
        _cap, file_ell, _recs = decode_file(blob)
        headers.append((file_ell, {len(k.sigs) for k, _ in records}))
        return blob

    monkeypatch.setattr(E, "minhash_signature", counting_sig)
    monkeypatch.setattr(Q, "encode_file", recording_encode_file)
    cfg = RunConfig(workers=2, buffer_capacity=4, file_capacity=2,
                    queue_kind=queue_kind, ell=4)
    res = run_job(cfg, make_app("quasiclique", gamma="0.6", min_size=4),
                  graph=gnp_graph(30, 0.2, seed=4))
    assert res.metrics["queue_file_writes"] > 0
    assert headers and all(h == (ell, {ell}) for h in headers)
    # one signature per queue entry on lsh, none on stream
    assert sig_calls == (0 if queue_kind == "stream"
                         else res.metrics["queue_enqueued"])


def _lsh_job_fingerprint(monkeypatch, tmp_path):
    """Counters, aggregate and a sha256 over every spill file a 2-worker
    lsh quasiclique job writes, sorted by worker and file name.  Its
    requeued tasks spill, so the files hold keys of their own pull sets."""
    written = []
    real_write = Q.QueueStorage.write

    def recording_write(self, name, data):
        wdir = os.path.basename(os.path.dirname(self.dir))
        written.append((wdir, name, bytes(data)))
        return real_write(self, name, data)

    monkeypatch.setattr(Q.QueueStorage, "write", recording_write)
    cfg = RunConfig(workers=2, buffer_capacity=8, file_capacity=4,
                    cache_capacity=30, queue_kind="lsh", workdir=str(tmp_path))
    res = run_job(cfg, make_app("quasiclique", gamma="0.6", min_size=4),
                  graph=gnp_graph(200, 0.06, seed=3))
    digest = hashlib.sha256()
    for wdir, name, data in sorted(written):
        digest.update(f"{wdir}/{name}\0".encode() + data)
    return res.metrics, res.aggregate, len(written), digest.hexdigest()


def test_keys_and_owners_match_the_pure_hashes_end_to_end(monkeypatch,
                                                          tmp_path):
    # whichever backend is bound, signatures and owners are the pure
    # twins' bit for bit, so spill files and counters do not move
    bound = _lsh_job_fingerprint(monkeypatch, tmp_path / "bound")
    monkeypatch.setattr(E, "minhash_signature", pure.minhash_signature)
    monkeypatch.setattr(G, "mix64", pure.mix64)
    twins = _lsh_job_fingerprint(monkeypatch, tmp_path / "pure")
    metrics, _agg, files, _sha = bound
    assert files > 0 and metrics["cache_evictions"] > 0
    assert metrics["queue_file_reads"] > 0
    assert twins == bound


# -- tasks that lack no vertex skip the queue ----------------------------------------


def test_single_worker_triangle_job_never_queues_a_task():
    res = run_job(RunConfig(workers=1), make_app("triangle"),
                  graph=gnp_graph(50, 0.2, seed=1))
    m = res.metrics
    assert m["tasks_seeded"] > 0
    assert m["tasks_local"] == m["tasks_seeded"] == m["tasks_completed"]
    assert m["queue_enqueued"] == 0
    assert m["queue_file_writes"] == 0
    assert m["rounds"] == 0


def test_only_seeds_with_a_remote_pull_are_queued(monkeypatch):
    # the triangle seed rule, counted from the graph: a seed pulls its
    # larger neighbors but the largest
    g = gnp_graph(80, 0.12, seed=2)
    remote = local = 0
    for v in g:
        pulls = larger_neighbor_ids(v)[:-1]
        if len(pulls) < 1:
            continue
        if any(partition_owner(p, 2) != partition_owner(v.id, 2) for p in pulls):
            remote += 1
        else:
            local += 1
    assert remote and local
    sig_calls = 0
    real_sig = E.minhash_signature

    def counting_sig(*args):
        nonlocal sig_calls
        sig_calls += 1
        return real_sig(*args)

    # Seeds spawn lazily, so a seed whose remote pulls an earlier window
    # already filled in the cache is ready too.  Decide each seed when it
    # is spawned, from its worker's cache at that moment.
    workers = {}
    real_init = E.Worker.__init__

    def recording_init(self, wid, *args):
        real_init(self, wid, *args)
        workers[wid] = self

    waiting = []
    triangle = make_app("triangle")

    def judging_seed(v):
        cache = workers[partition_owner(v.id, 2)].cache
        tasks = triangle.seed(v)
        for t in tasks:
            waiting.append(any(partition_owner(p, 2) != partition_owner(v.id, 2)
                               and not cache.has_data(p) for p in t.requested))
        return tasks

    monkeypatch.setattr(E, "minhash_signature", counting_sig)
    monkeypatch.setattr(E.Worker, "__init__", recording_init)
    app = dataclasses.replace(triangle, seed=judging_seed)
    res = run_job(RunConfig(workers=2, buffer_capacity=4, file_capacity=2),
                  app, graph=g)
    m = res.metrics
    queued = sum(waiting)
    assert len(waiting) == m["tasks_seeded"] == remote + local
    assert 0 < queued < remote  # later windows find earlier pulls cached
    assert m["queue_enqueued"] == queued
    assert m["tasks_local"] == local + remote - queued
    assert sum(w["tasks_local"] for w in res.per_worker) == m["tasks_local"]
    assert sig_calls == queued
    assert res.aggregate == run_job(RunConfig(workers=1), make_app("triangle"),
                                    graph=g).aggregate


def test_children_that_pull_only_local_vertices_skip_the_queue():
    # the root spawns one child per vertex; a child that pulls a vertex of
    # the root's worker runs at once and its own grandchild too, in spawn
    # order, and only the children that pull a remote vertex are queued
    g = complete_graph(12, start_id=0)
    home = partition_owner(0, 2)
    local = [vid for vid in range(1, 12) if partition_owner(vid, 2) == home]
    remote = [vid for vid in range(1, 12) if partition_owner(vid, 2) != home]
    assert local and remote

    def seed(v):
        return [Task(0, context="root")] if v.id == 0 else []

    def compute(task, frontier):
        if task.context == "root":
            for vid in range(1, 12):
                task.add_task(Task(0, context="leaf", pulls=(vid,)))
            return False
        if task.context == "leaf" and frontier[0].id in local:
            task.add_task(Task(0, context="grandchild", pulls=(0,)))
        task.emit(f"{task.context} {frontier[0].id}")
        task.aggregate(1)
        return False

    res = run_job(RunConfig(workers=2), _spec("kids", seed, compute,
                                              aggregator=_SUM), graph=g)
    m = res.metrics
    assert res.aggregate == 11 + len(local)
    assert m["tasks_spawned"] == 11 + len(local)
    assert m["tasks_local"] == 1 + 2 * len(local)
    assert m["queue_enqueued"] == len(remote)
    # every created task that did not run at once is one queue entry
    assert m["queue_enqueued"] == (m["tasks_seeded"] + m["tasks_spawned"]
                                   - m["tasks_local"] + m["tasks_requeued"])
    ran_at_once = [line for _w, _s, line in res.emitted][:2 * len(local)]
    assert ran_at_once == [x for vid in local
                           for x in (f"leaf {vid}", "grandchild 0")]


def test_children_whose_remote_pulls_are_cached_skip_the_queue():
    # the root pulls every remote vertex once; once they are cached, the
    # children it spawns that pull them run without a queue entry
    g = complete_graph(10, start_id=0)
    home = partition_owner(0, 2)
    remote = [vid for vid in range(1, 10) if partition_owner(vid, 2) != home]
    assert len(remote) >= 2

    def seed(v):
        return [Task(0, context="root", pulls=remote)] if v.id == 0 else []

    def compute(task, frontier):
        if task.context == "root":
            for vid in remote:
                task.add_task(Task(0, context="leaf", pulls=(vid,)))
            return False
        task.aggregate(frontier[0].degree)
        return False

    res = run_job(RunConfig(workers=2), _spec("cached", seed, compute,
                                              aggregator=_SUM), graph=g)
    m = res.metrics
    assert res.aggregate == 9 * len(remote)
    assert m["queue_enqueued"] == 1          # the root, for its pulls
    assert m["tasks_local"] == len(remote)
    assert m["vertices_requested"] == len(remote)
    assert m["cache_hits"] == len(remote)    # each child's one cached pull


def test_failing_peer_stops_a_long_seed_phase():
    # every task is ready, so each worker computes them all while seeding;
    # the healthy worker must notice the failure within a task or two
    n = 400
    g = path_graph(n)
    bad = min(vid for vid in range(n) if partition_owner(vid, 2) == 0)
    healthy = sum(1 for vid in range(n) if partition_owner(vid, 2) == 1)
    raised = threading.Event()
    calls = []

    def compute(task, frontier):
        if task.seed_id == bad:
            raised.set()
            raise ValueError("boom")
        if partition_owner(task.seed_id, 2) == 1:
            calls.append(task.seed_id)
            if len(calls) == 1:
                raised.wait(5.0)
                time.sleep(0.05)  # the failing worker sets stop meanwhile
        return False

    with pytest.raises(ComputeError, match="boom"):
        run_job(RunConfig(workers=2),
                _spec("stop", lambda v: [Task(v.id)], compute), graph=g)
    assert _job_threads() == []
    assert healthy > 100
    assert len(calls) < 5


def test_seed_phase_publishes_the_aggregate_before_the_first_round():
    # worker 0 aggregates 7 in a task that runs while seeding; worker 1's
    # first round must already see it, while worker 0's own first round
    # is held until worker 1 has looked
    g = complete_graph(8, start_id=0)
    w0 = [vid for vid in range(8) if partition_owner(vid, 2) == 0]
    w1 = [vid for vid in range(8) if partition_owner(vid, 2) == 1]
    assert len(w0) >= 2 and w1
    looked = threading.Event()
    seen = []

    def seed(v):
        if v.id == w0[0]:
            return [Task(v.id, context="local")]
        if v.id == w0[1]:
            return [Task(v.id, context="hold", pulls=(w1[0],))]
        if v.id == w1[0]:
            return [Task(v.id, context="watch", pulls=(w0[0],))]
        return []

    def compute(task, frontier):
        if task.context == "local":
            task.aggregate(7)
        elif task.context == "hold":
            looked.wait(5.0)
        else:
            deadline = time.monotonic() + 2.0
            while task.best() != 7 and time.monotonic() < deadline:
                time.sleep(0.001)
            seen.append(task.best())
            looked.set()
        return False

    res = run_job(RunConfig(workers=2),
                  _spec("bound", seed, compute,
                        aggregator=AggregatorSpec(zero=int, merge=max)),
                  graph=g)
    assert res.aggregate == 7
    assert seen == [7]


# -- lazy seeding: windows of B seeds, task objects until a spill -----------------


def _windowed_triangle_job(monkeypatch, buffer_capacity, file_capacity):
    """A 2-worker triangle job whose seed load is far larger than B.
    Returns the job, the size of each seed window, and the number of
    queued tasks held in memory after each seed_bulk and enqueue."""
    windows = []
    held = []
    real_bulk = Q.TaskQueue.seed_bulk
    real_enqueue = Q.TaskQueue.enqueue

    def bulk(self, records):
        windows.append(len(records))
        # a triangle seed spawns one task and no child, so a window
        # fills exactly the room the queue has left below B
        assert len(self) + len(records) <= buffer_capacity
        real_bulk(self, records)
        held.append(len(self._in) + len(self._out))

    def enqueue(self, rec):
        real_enqueue(self, rec)
        held.append(len(self._in) + len(self._out))

    monkeypatch.setattr(Q.TaskQueue, "seed_bulk", bulk)
    monkeypatch.setattr(Q.TaskQueue, "enqueue", enqueue)
    cfg = RunConfig(workers=2, buffer_capacity=buffer_capacity,
                    file_capacity=file_capacity)
    res = run_job(cfg, make_app("triangle"), graph=gnp_graph(300, 0.05, seed=6))
    return res, windows, held


def test_lazy_seeding_holds_at_most_b_plus_c_tasks_in_memory(monkeypatch):
    b, c = 16, 4
    res, windows, held = _windowed_triangle_job(monkeypatch, b, c)
    assert res.metrics["queue_enqueued"] > 4 * b  # the seed load is far above B
    assert len(windows) > 4 and max(windows) == b
    assert max(held) <= b + c


def test_lazy_seeding_writes_no_spill_file(monkeypatch):
    res, _windows, _held = _windowed_triangle_job(monkeypatch, 16, 4)
    m = res.metrics
    assert m["queue_enqueued"] > 64
    assert m["queue_file_writes"] == m["queue_file_reads"] == 0
    assert res.aggregate == run_job(RunConfig(workers=1), make_app("triangle"),
                                    graph=gnp_graph(300, 0.05, seed=6)).aggregate


def test_a_queued_task_is_encoded_once_per_spill_and_decoded_only_from_a_file(
        monkeypatch):
    encodes = decodes = from_files = 0
    written = set()  # (queue directory, key) of every record written
    real_encode, real_decode = E.encode_task, E.decode_task
    real_write, real_fetch = Q.QueueStorage.write, Q.TaskQueue.fetch

    def counting_encode(wire):
        nonlocal encodes
        encodes += 1
        return real_encode(wire)

    def counting_decode(data):
        nonlocal decodes
        decodes += 1
        return real_decode(data)

    def recording_write(self, name, data):
        _cap, _ell, recs = decode_file(data)
        written.update((self.dir, rec.key) for rec in recs)
        return real_write(self, name, data)

    def counting_fetch(self):
        nonlocal from_files
        rec = real_fetch(self)
        if rec is not None and isinstance(rec.payload, bytes):
            from_files += 1
        return rec

    monkeypatch.setattr(E, "encode_task", counting_encode)
    monkeypatch.setattr(E, "decode_task", counting_decode)
    monkeypatch.setattr(Q.QueueStorage, "write", recording_write)
    monkeypatch.setattr(Q.TaskQueue, "fetch", counting_fetch)
    cfg = RunConfig(workers=2, buffer_capacity=4, file_capacity=2)
    res = run_job(cfg, make_app("quasiclique", gamma="0.6", min_size=4),
                  graph=gnp_graph(50, 0.15, seed=4))
    assert res.metrics["queue_file_writes"] > 0
    # a merge that rewrites records read back from a file does not
    # encode them again (tests/test_taskqueue.py shows merges doing so)
    assert encodes == len(written)
    assert decodes == from_files > 0


def test_spilled_tasks_give_the_lines_of_tasks_kept_as_objects(monkeypatch):
    # criterion 13's workloads, plus a larger quasiclique job and gmatch,
    # whose tasks iterate with a subgraph payload.  At B = 1 every task
    # that enqueue takes spills at once (a seed window of one stays in
    # memory); at B = 1000 no task spills.
    spilled = []
    real_enqueue = Q.TaskQueue.enqueue

    def enqueue(self, rec):
        spills = self.spill_count
        real_enqueue(self, rec)
        spilled.append((self.buffer_capacity, self.spill_count > spills))

    monkeypatch.setattr(Q.TaskQueue, "enqueue", enqueue)
    workloads = [
        (make_app("triangle", emit_triangles=True), gnp_graph(60, 0.12, seed=2500)),
        (make_app("maximalcliques"), gnp_graph(40, 0.25, seed=2501)),
        (make_app("maxclique"), gnp_graph(50, 0.3, seed=2502)),
        (make_app("quasiclique", gamma="0.6", min_size=4),
         gnp_graph(18, 0.4, seed=2503)),
        (make_app("quasiclique", gamma="0.6", min_size=4),
         gnp_graph(80, 0.15, seed=3)),
        (make_app("gmatch", query=fig4_query()),
         labeled_gnp_graph(60, 0.2, seed=2200, alphabet="abcd")),
    ]
    files_read = 0
    for app, graph in workloads:
        out = []
        for b in (1, 1000):
            res = run_job(RunConfig(workers=2, buffer_capacity=b,
                                    file_capacity=2), app, graph=graph)
            out.append((res.aggregate, sorted(res.result_lines())))
            if b == 1:
                files_read += res.metrics["queue_file_reads"]
            else:
                assert res.metrics["queue_file_writes"] == 0, app.name
        assert out[0] == out[1], app.name
    assert all(did for b, did in spilled if b == 1)
    assert sum(1 for b, _did in spilled if b == 1) > 10
    assert files_read > 10


# -- attribute-free graphs stay neighbor-id lists ------------------------------------


def test_text_graph_jobs_never_build_adjacency_items(tmp_path, monkeypatch):
    # a graph read from text without attributes is plain id lists; no
    # seed, compute, respond or codec step may ask for AdjItems
    path = tmp_path / "g.txt"
    write_graph(gnp_graph(70, 0.15, seed=4), path)
    sent = []
    encode = E.encode_vertex

    def recording_encode(v):
        sent.append(v.id)
        return encode(v)

    def no_adj(v):
        raise AssertionError(f"vertex {v.id}: adj read during a job")

    monkeypatch.setattr(E, "encode_vertex", recording_encode)
    monkeypatch.setattr(Vertex, "adj", property(no_adj))
    quasi = make_app("quasiclique", gamma="0.6", min_size=4)
    for app, workers in ((make_app("triangle"), 1), (make_app("triangle"), 2),
                         (quasi, 2)):
        res = run_job(RunConfig(workers=workers), app, graph=read_graph(path))
        assert res.metrics["tasks_seeded"] > 0
    assert sent, "the 2-worker jobs pulled nothing"


# -- errors -------------------------------------------------------------------------


def test_compute_error_carries_provenance():
    def seed(v):
        return [Task(v.id)] if v.id == 5 else []

    def compute(task, frontier):
        raise ValueError("boom")

    g = complete_graph(8, start_id=0)
    with pytest.raises(ComputeError) as ei:
        run_job(RunConfig(workers=3), _spec("bad", seed, compute), graph=g)
    msg = str(ei.value)
    assert "seed 5" in msg and "iteration 0" in msg and "boom" in msg


def test_seed_error_carries_provenance():
    def seed(v):
        if v.id == 2:
            raise RuntimeError("cannot seed")
        return []

    g = complete_graph(4, start_id=0)
    with pytest.raises(ComputeError, match="cannot seed"):
        run_job(RunConfig(workers=2), _spec("badseed", seed, lambda t, f: False),
                graph=g)


def test_missing_frontier_vertex_names_the_task(monkeypatch):
    # a cache that drops one pulled vertex instead of filling its slot
    dropped = []
    real_insert = VertexCache.insert_pulled

    def dropping_insert(self, vertices):
        if not dropped and vertices:
            dropped.append(vertices[0].id)
            vertices = vertices[1:]
        real_insert(self, vertices)

    monkeypatch.setattr(VertexCache, "insert_pulled", dropping_insert)
    g = gnp_graph(40, 0.2, seed=3)
    with pytest.raises(EngineError) as info:
        run_job(RunConfig(workers=2), make_app("triangle"), graph=g)
    msg = str(info.value)
    m = re.fullmatch(r"worker (\d+), seed (\d+), iteration 0: "
                     r"frontier vertex (\d+) not resident", msg)
    assert m, msg
    wid, seed, vid = map(int, m.groups())
    assert vid == dropped[0]
    assert partition_owner(seed, 2) == wid != partition_owner(vid, 2)
    assert vid in larger_neighbor_ids(g[seed])
    assert _job_threads() == []


def test_dangling_pull_is_protocol_error():
    # the graph is valid; the app pulls an id that no worker owns
    g = complete_graph(4, start_id=0)

    def seed(v):
        if v.id == 0:
            return [Task(0, pulls=(99,))]
        return []

    with pytest.raises(ProtocolError, match="99"):
        run_job(RunConfig(workers=2),
                _spec("dangle", seed, lambda t, f: False), graph=g)
    assert _job_threads() == []


def _job_threads():
    """Compute and responder threads still alive (a job leaves none)."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith(("worker-", "responder-"))]


def test_failed_job_leaves_no_temp_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    g = complete_graph(6, start_id=0)
    for field, value in (("file_capacity", 1), ("cache_capacity", 0)):
        cfg = RunConfig(workers=2)
        setattr(cfg, field, value)  # past the constructor's own check
        with pytest.raises(ValueError):
            run_job(cfg, make_app("triangle"), graph=g)
    assert os.listdir(tmp_path) == []

    def compute(task, frontier):
        raise ValueError("boom")

    with pytest.raises(ComputeError, match="boom"):
        run_job(RunConfig(workers=2),
                _spec("bad", lambda v: [Task(v.id)], compute), graph=g)
    assert os.listdir(tmp_path) == []
    assert _job_threads() == []

    # a kept workdir keeps its directories but no spill file: the job
    # fails with tasks still queued on disk
    calls = []

    def compute_then_fail(task, frontier):
        calls.append(task.seed_id)
        if len(calls) > 20:
            raise ValueError("boom")
        return False

    kept = tmp_path / "kept"
    with pytest.raises(ComputeError, match="boom"):
        run_job(RunConfig(workers=2, queue_kind="stream", workdir=str(kept),
                          buffer_capacity=4, file_capacity=2),
                _spec("late", lambda v: [Task(v.id, pulls=v.neighbor_ids())],
                      compute_then_fail),
                graph=gnp_graph(60, 0.2, seed=4))
    left = [f for w in ("w0", "w1") for f in os.listdir(kept / w / "queue")]
    assert left == []
    assert _job_threads() == []


def test_validation_catches_asymmetry_first():
    g = Graph()
    g.add(Vertex(0, None, [AdjItem(1)]))
    g.add(Vertex(1, None, []))
    app = make_app("triangle")
    with pytest.raises(GraphDataError, match="not symmetric"):
        run_job(RunConfig(workers=2), app, graph=g)


def test_ids_beyond_64_bits_rejected_before_run(tmp_path):
    # the codec's id fields are unsigned 64-bit; a wider id must fail the
    # load check by name, not surface later as a struct error mid-job
    g = complete_graph(3, start_id=2**64 - 2)
    with pytest.raises(GraphDataError, match=f"vertex id {2**64} does not fit"):
        run_job(RunConfig(workers=2, workdir=str(tmp_path)),
                make_app("triangle"), graph=g)
    assert os.listdir(tmp_path) == []


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(workers=0)
    with pytest.raises(ValueError):
        RunConfig(queue_kind="mystery")


@pytest.mark.parametrize("field, value, message", [
    ("ell", 0, "ell must be >= 1"),
    ("file_capacity", 1, "file_capacity must be >= 2"),
    ("buffer_capacity", 0, "buffer_capacity must be >= 1"),
    ("cache_capacity", 0, "cache capacity must be >= 1"),
])
def test_run_config_checks_what_the_job_would_reject(field, value, message):
    # the constructor raises the message the seeds, queue or cache would
    # raise mid-setup, on either queue kind
    for queue_kind in ("lsh", "stream"):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(queue_kind=queue_kind, **{field: value})
    RunConfig(**{field: value + 1})


# -- aggregation ----------------------------------------------------------------------


def test_no_aggregator_yields_none():
    def seed(v):
        return []

    res = run_job(RunConfig(workers=1), _spec("null", seed, lambda t, f: False),
                  graph=complete_graph(3))
    assert res.aggregate is None


@pytest.mark.parametrize("sync_rounds,sync_ms", [(None, None), (1, None),
                                                 (10, None), (None, 1)])
def test_maxclique_same_answer_any_sync_policy(sync_rounds, sync_ms):
    g = gnp_graph(35, 0.3, seed=8)
    res = run_job(RunConfig(workers=3, sync_every_rounds=sync_rounds,
                            sync_every_ms=sync_ms),
                  make_app("maxclique"), graph=g)
    base = run_job(RunConfig(workers=1), make_app("maxclique"), graph=g)
    assert res.aggregate == base.aggregate


# -- bookkeeping -----------------------------------------------------------------------


def test_metrics_conservation():
    g = gnp_graph(60, 0.15, seed=2)
    res = run_job(RunConfig(workers=4, cache_capacity=20), make_app("triangle"),
                  graph=g)
    m = res.metrics
    assert m["tasks_seeded"] + m["tasks_spawned"] == m["tasks_completed"]
    assert m["queue_enqueued"] == m["queue_fetched"]
    assert m["vertices_served"] == m["vertices_requested"]
    assert res.elapsed > 0
    assert 0.0 <= res.cache_hit_rate() <= 1.0
    assert len(res.per_worker) == 4


def test_emitted_attribution_matches_partition():
    g = gnp_graph(50, 0.15, seed=3)
    res = run_job(RunConfig(workers=4),
                  make_app("triangle", emit_triangles=True), graph=g)
    assert res.emitted  # this graph has triangles
    for wid, seed_id, line in res.emitted:
        assert partition_owner(seed_id, 4) == wid
        assert int(line.split()[0]) == seed_id


def test_finished_job_holds_each_line_once():
    # The JobResult holds each worker's list of lines and its parallel
    # list of seed ids as they are, so beyond its string a line costs
    # about two list slots (16 B plus over-allocation).
    g = gnp_graph(400, 0.12, seed=1)
    app = make_app("triangle", emit_triangles=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_job(RunConfig(workers=2), app, graph=g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    lines = res.result_lines()
    assert len(lines) == res.aggregate > 10_000
    extra = held - sum(map(sys.getsizeof, lines))
    assert extra / len(lines) < 32


def test_workdir_is_kept_when_asked(tmp_path):
    wd = tmp_path / "scratch"
    res = run_job(RunConfig(workers=2, workdir=str(wd),
                            buffer_capacity=4, file_capacity=2),
                  make_app("triangle"), graph=gnp_graph(40, 0.2, seed=4))
    assert res.aggregate is not None
    assert (wd / "w0" / "queue").is_dir()
    assert (wd / "w1" / "queue").is_dir()
    # spill files were consumed even though the directory remains
    assert all(not f.endswith(".tasks")
               for f in os.listdir(wd / "w0" / "queue"))


# -- determinism -------------------------------------------------------------------------


def test_repeat_run_is_identical():
    g = gnp_graph(60, 0.15, seed=6)
    cfg = dict(workers=3, cache_capacity=50, buffer_capacity=16,
               file_capacity=4)
    a = run_job(RunConfig(**cfg), make_app("triangle", emit_triangles=True),
                graph=g)
    b = run_job(RunConfig(**cfg), make_app("triangle", emit_triangles=True),
                graph=g)
    assert a.aggregate == b.aggregate
    assert a.emitted == b.emitted
    assert a.metrics == b.metrics


def test_worker_count_does_not_change_results():
    g = gnp_graph(60, 0.15, seed=7)
    outs = []
    for w in (1, 3, 8):
        res = run_job(RunConfig(workers=w),
                      make_app("triangle", emit_triangles=True), graph=g)
        outs.append((res.aggregate, sorted(res.result_lines())))
    assert outs[0] == outs[1] == outs[2]
