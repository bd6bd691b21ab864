#!/usr/bin/env python3
"""The measured process: load a generated graph, run one workload job.

run.py starts this once per job, so that the peak RSS it reports covers
loading the graph and running that job and nothing else (graph
generation and the answer checks stay in run.py's process).

    python3 perfbench/job.py --workload NAME --graph FILE --workdir DIR --trace 0|1

It times one `read_graph` of the file (a set-up sample), then with
--trace 0 runs one untraced job.  With --trace 1 it runs one untraced
job, then installs the layer spans, reads the graph again and runs one
traced job, and reports the per-layer split of that job.  The last line
of stdout is one JSON object.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import submine.engine  # noqa: E402
import submine.kernels  # noqa: E402
import submine.store  # noqa: E402
import submine.taskqueue  # noqa: E402
import submine.transport  # noqa: E402
from submine import RunConfig, read_graph, run_job  # noqa: E402
from submine.apps import make_app  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# JobResult.metrics counters that must repeat exactly for one code and seed.
EXACT_COUNTERS = (
    "vertices_requested", "cache_hits", "cache_misses", "cache_evictions",
    "queue_file_reads", "queue_file_writes", "rounds", "tasks_requeued",
)


def run_one(wl, app, graph, workdir):
    """One run_job; its wall time, answer and exact counters, or its error."""
    os.makedirs(workdir)
    cfg = RunConfig(workdir=workdir, **wl.config)
    gc.collect()
    t0 = time.perf_counter()
    try:
        res = run_job(cfg, app, graph)
    except Exception as e:  # a failing job is counted, never timed
        return {"error": f"{type(e).__name__}: {e}"}, None
    finally:
        job_s = time.perf_counter() - t0
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "job_s": job_s,
        "aggregate": res.aggregate,
        "lines": sorted(res.result_lines()),
        "counters": {k: res.metrics[k] for k in EXACT_COUNTERS},
    }, res


def install_spans(tracer):
    """Wrap each layer's entry points at the names the engine calls."""
    E = submine.engine
    Q = submine.taskqueue
    S = submine.store
    T = submine.transport
    p = tracer.patch
    p(E, "check_undirected", "graph.check_undirected")
    p(E, "partition_graph", "graph.partition")
    p(E.Worker, "seed_all", "engine.seed")
    p(E.Worker, "run_round", "engine.round")
    p(E, "minhash_signature", "minhash.signature")
    p(E, "encode_task", "serialize.task_encode",
      size=lambda args, out: len(out), size_key="serialize.task_bytes")
    p(E, "decode_task", "serialize.task_decode")
    p(E, "encode_vertex", "serialize.vertex_encode")
    p(E, "vertex_from_bytes", "serialize.vertex_decode")
    p(Q, "encode_file", "serialize.file_encode")
    p(Q, "decode_file", "serialize.file_decode")
    for cls in Q.QUEUE_KINDS.values():
        p(cls, "enqueue", "taskqueue.enqueue")
        p(cls, "fetch", "taskqueue.fetch")
        p(cls, "seed_bulk", "taskqueue.seed_bulk")
    p(Q.QueueStorage, "read", "taskqueue.io")
    p(Q.QueueStorage, "write", "taskqueue.io",
      size=lambda args, out: len(args[2]), size_key="taskqueue.bytes_written")
    p(S.VertexCache, "reserve", "store.reserve")
    p(S.VertexCache, "insert_pulled", "store.insert")
    p(S.VertexCache, "unpin_batch", "store.unpin")
    p(S.VertexCache, "get", "store.get")
    p(S.VertexStore, "resolve", "store.get")
    p(T.InProcTransport, "send_request", "transport.request")
    p(T.InProcTransport, "next_response", "transport.wait")
    p(T.InProcTransport, "send_response", "transport.respond",
      size=lambda args, out: sum(map(len, args[2].blobs)),
      size_key="transport.response_bytes")
    # Apps import kernels by name, so wrap each app module's binding.
    kernels = [f for f in vars(submine.kernels).values()
               if callable(f) and not isinstance(f, type)]
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("submine.apps.") and mod is not None:
            for attr, val in list(vars(mod).items()):
                if any(val is k for k in kernels):
                    p(mod, attr, "kernels")


def layer_metrics(times, sizes, res, traced_s, plain_s):
    """Per-layer metrics of one traced job, as {name: [value, unit]}."""
    out = {}
    m = res.metrics

    def span(wall, cpu, *keys):
        out[wall] = [sum(times.get(k, (0, 0.0, 0.0))[1] for k in keys), "s"]
        out[cpu] = [sum(times.get(k, (0, 0.0, 0.0))[2] for k in keys), "s"]

    def calls(*keys):
        return sum(times.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def count(name, value, unit="count"):
        out[name] = [value, unit]

    for key in ("graph.read", "graph.check_undirected", "graph.partition"):
        span(key + "_s", key + "_cpu_s", key)
    span("engine.seed_s", "engine.seed_cpu_s", "engine.seed")
    span("engine.round_self_s", "engine.round_self_cpu_s", "engine.round")
    count("engine.rounds", m["rounds"])
    count("engine.tasks_requeued", m["tasks_requeued"])
    count("engine.overflow_episodes", m["overflow_episodes"])
    count("minhash.signature_calls", calls("minhash.signature"))
    span("minhash.signature_s", "minhash.signature_cpu_s", "minhash.signature")
    for part in ("task", "vertex", "file"):
        for op in ("encode", "decode"):
            key = f"serialize.{part}_{op}"
            span(key + "_s", key + "_cpu_s", key)
    count("serialize.task_calls",
          calls("serialize.task_encode", "serialize.task_decode"))
    count("serialize.task_bytes", sizes.get("serialize.task_bytes", 0), "bytes")
    count("serialize.vertex_calls",
          calls("serialize.vertex_encode", "serialize.vertex_decode"))
    for op in ("enqueue", "fetch", "seed_bulk", "io"):
        key = "taskqueue." + op
        span(key + "_s", key + "_cpu_s", key)
    count("taskqueue.file_reads", m["queue_file_reads"])
    count("taskqueue.file_writes", m["queue_file_writes"])
    count("taskqueue.bytes_written",
          sizes.get("taskqueue.bytes_written", 0), "bytes")
    count("taskqueue.spills", m["queue_spills"])
    count("store.reserve_calls", calls("store.reserve"))
    for op in ("reserve", "insert", "unpin", "get"):
        key = "store." + op
        span(key + "_s", key + "_cpu_s", key)
    count("store.evictions", m["cache_evictions"])
    count("store.peak_residency",
          max(w["cache_peak_residency"] for w in res.per_worker))
    count("store.hit_rate", res.cache_hit_rate(), "ratio")
    count("transport.requests", calls("transport.request"))
    count("transport.pulled_vertices", m["vertices_requested"])
    count("transport.response_bytes",
          sizes.get("transport.response_bytes", 0), "bytes")
    span("transport.wait_s", "transport.wait_cpu_s", "transport.wait")
    span("apps.respond_s", "apps.respond_cpu_s", "apps.respond")
    span("apps.seed_s", "apps.seed_cpu_s", "apps.seed")
    span("apps.compute_self_s", "apps.compute_self_cpu_s", "apps.compute")
    count("apps.compute_calls", calls("apps.compute"))
    count("kernels.calls", calls("kernels"))
    span("kernels.s", "kernels.cpu_s", "kernels")
    count("trace.overhead_ratio", traced_s / plain_s, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--graph", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    app = make_app(wl.app, **wl.app_args)
    report = {"backend": submine.kernels.BACKEND, "python": sys.version.split()[0],
              "jobs": [], "layers": None}

    t0 = time.perf_counter()
    graph = read_graph(args.graph)
    report["read_s"] = time.perf_counter() - t0
    plain, _ = run_one(wl, app, graph, args.workdir)
    report["jobs"].append(plain)
    if args.trace:
        graph = None
        gc.collect()
        tracer = Tracer()
        install_spans(tracer)
        try:
            graph = tracer.timed("graph.read", read_graph)(args.graph)
            traced, res = run_one(wl, tracer.wrap_app(app), graph, args.workdir)
        finally:
            tracer.unpatch_all()
        report["jobs"].append(traced)
        if res is not None and "job_s" in plain:
            times, sizes = tracer.totals()
            report["layers"] = layer_metrics(
                times, sizes, res, traced["job_s"], plain["job_s"])

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
