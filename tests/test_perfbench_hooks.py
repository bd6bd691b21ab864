"""The traced benchmark wraps engine, queue, store, transport and kernel
entry points by name from outside (perfbench/job.py:install_spans).
These tests load that module unchanged and check that every name it
patches still resolves, is still called by a job, and is put back."""

import importlib.util
import sys
from pathlib import Path

import pytest

import submine.apps
import submine.engine as E
import submine.store as S
import submine.taskqueue as Q
import submine.transport as T
from submine.engine import RunConfig, run_job
from submine.gen import gnp_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MISSING = object()


@pytest.fixture
def job(monkeypatch):
    """perfbench/job.py imported as a module, with its sibling imports."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_job", PERFBENCH / "job.py")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        for name in ("spans", "workloads"):
            sys.modules.pop(name, None)


def _owners():
    apps = [m for n, m in sorted(sys.modules.items())
            if n.startswith("submine.apps.") and m is not None]
    return [E, E.Worker, Q, Q.QueueStorage, *Q.QUEUE_KINDS.values(),
            S.VertexCache, S.VertexStore, T.InProcTransport, *apps]


def _changed(owners, before):
    out = set()
    for owner, old in zip(owners, before):
        now = vars(owner)
        for attr in set(now) | set(old):
            if now.get(attr, _MISSING) is not old.get(attr, _MISSING):
                out.add((owner.__name__, attr))
    return out


@pytest.mark.parametrize("queue_kind", ["lsh", "stream"])
def test_install_spans_resolves_records_and_restores(job, queue_kind):
    owners = _owners()
    before = [dict(vars(o)) for o in owners]
    tracer = job.Tracer()
    try:
        job.install_spans(tracer)
        patched = _changed(owners, before)
        cfg = RunConfig(workers=2, cache_capacity=8, buffer_capacity=8,
                        file_capacity=4, queue_kind=queue_kind)
        # triangle and the clique apps reach the kernels; quasiclique
        # requeues tasks
        for app in (submine.apps.make_app("triangle"),
                    submine.apps.make_app("maxclique"),
                    submine.apps.make_app("maximalcliques"),
                    submine.apps.make_app("quasiclique", gamma="0.6", min_size=4)):
            res = run_job(cfg, tracer.wrap_app(app), graph=gnp_graph(30, 0.2, seed=4))
            assert res.metrics["queue_file_writes"] > 0
        # requeued tasks carry a subgraph payload through the queue
        assert res.metrics["tasks_requeued"] > 0
    finally:
        tracer.unpatch_all()

    kind = Q.QUEUE_KINDS[queue_kind].__name__
    for name in [("Worker", "seed_all"), ("Worker", "run_round"),
                 ("submine.engine", "check_undirected"),
                 ("submine.engine", "partition_graph"),
                 ("submine.engine", "encode_task"),
                 ("submine.engine", "decode_task"),
                 ("VertexStore", "resolve"), ("VertexCache", "reserve"),
                 (kind, "enqueue"), (kind, "fetch"), (kind, "seed_bulk"),
                 ("submine.apps.triangles", "count_closing_pairs"),
                 ("submine.apps.cliques", "max_clique"),
                 ("submine.apps.cliques", "maximal_cliques")]:
        assert name in patched
    times, _sizes = tracer.totals()
    for key in ("graph.check_undirected",
                "engine.seed", "engine.round", "serialize.task_encode",
                "serialize.task_decode", "serialize.file_encode",
                "taskqueue.enqueue", "taskqueue.fetch", "taskqueue.seed_bulk",
                "taskqueue.io", "store.reserve", "store.get",
                "transport.request", "apps.compute", "kernels"):
        assert times.get(key, (0,))[0] > 0, key
    assert _changed(owners, before) == set()
