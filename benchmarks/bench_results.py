#!/usr/bin/env python3
"""Memory and time of a job that emits many result lines.

Writes perfbench's `uniform_graph(n, m, seed=1)` as canonical text for
each size, the way `bench_load.py` does, then runs it N times, each time
in a fresh Python process that reads the graph and runs a 2-worker
maximalcliques job through the public API (one line per maximal
clique).  Prints one JSON line: the kernel backend and, per size, the
line count, the best job seconds, the largest VmHWM after the load and
after the job, the largest rise between them, and the sha1 of the
sorted lines (the same on every run, or the script fails).

    PYTHONPATH=src python3 benchmarks/bench_results.py --repeat 3
    PYTHONPATH=src python3 benchmarks/bench_results.py --sizes 50000:250000
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

from bench_load import child, peak_rss_mb, size, write_uniform

SIZES = ("50000:250000", "200000:1000000")
WORKERS = 2


def _run(path):
    from submine import RunConfig, read_graph, run_job
    from submine.apps import make_app
    from submine.kernels import BACKEND

    g = read_graph(path)
    load_rss = peak_rss_mb()
    t0 = time.perf_counter()
    res = run_job(RunConfig(workers=WORKERS), make_app("maximalcliques"), g)
    job_s = time.perf_counter() - t0
    job_rss = peak_rss_mb()
    lines = sorted(res.result_lines())
    if len(lines) != res.aggregate:
        raise SystemExit(f"{len(lines)} lines for {res.aggregate} cliques")
    sha1 = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    print(json.dumps({"lines": len(lines), "job_s": job_s,
                      "load_rss_mb": load_rss, "job_rss_mb": job_rss,
                      "sha1": sha1, "backend": BACKEND}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=1,
                    help="jobs per size; best time and largest RSS reported")
    ap.add_argument("--sizes", nargs="+", type=size,
                    default=[size(s) for s in SIZES], metavar="N:M",
                    help="graph sizes, vertices:edges (default: %s)"
                    % " ".join(SIZES))
    ap.add_argument("--write", nargs=3, help=argparse.SUPPRESS)
    ap.add_argument("--run", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write:
        n, m, path = args.write
        write_uniform(int(n), int(m), path)
        return 0
    if args.run:
        _run(args.run)
        return 0

    me = os.path.abspath(__file__)
    out = {"model": "uniform", "seed": 1, "app": "maximalcliques",
           "workers": WORKERS, "backend": None}
    with tempfile.TemporaryDirectory(prefix="bench_results-") as tmp:
        for n, m in args.sizes:
            tag = f"n{n}_m{m}"
            path = os.path.join(tmp, f"uniform-{n}-{m}.txt")
            child(me, "--write", str(n), str(m), path)
            runs = [json.loads(child(me, "--run", path))
                    for _ in range(args.repeat)]
            os.remove(path)
            if len({r["sha1"] for r in runs}) != 1:
                raise SystemExit(f"{tag}: the lines differ between runs")
            out["backend"] = runs[0]["backend"]
            out[f"{tag}_lines"] = runs[0]["lines"]
            out[f"{tag}_job_s"] = round(min(r["job_s"] for r in runs), 3)
            out[f"{tag}_load_rss_mb"] = round(
                max(r["load_rss_mb"] for r in runs), 1)
            out[f"{tag}_job_rss_mb"] = round(
                max(r["job_rss_mb"] for r in runs), 1)
            out[f"{tag}_rss_rise_mb"] = round(
                max(r["job_rss_mb"] - r["load_rss_mb"] for r in runs), 1)
            out[f"{tag}_sha1"] = runs[0]["sha1"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
