#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of submine's `run_job`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One run:

1. builds the package in place (`setup.py build_ext --inplace`, once per
   source tree), so a compiled kernel backend is measured whenever the
   tree knows how to build one;
2. generates the workload's graph from the seed and writes it to a file;
3. works out the expected answer without the engine's apps (a
   set-intersection triangle count, or for quasi-cliques a 1-worker
   `lsh` reference run plus a direct check of every emitted set);
4. starts perfbench/job.py once per job, back to back while the next
   job is expected to end within --seconds (at least one job); each
   process loads the file and runs one job, so its read time is a
   set-up sample and its peak RSS covers exactly loading and running;
5. checks every job's answer and that the exact counters repeat, within
   the run and against earlier runs of the same source tree and seed.

It prints a stamp line (kernel backend, Python version, nproc, seed,
workload parameters, every job) and then, as the last line, the result:
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end
metrics (--trace 0) or the per-layer metrics of one traced job
(--trace 1).  A job that raises or answers wrongly counts as failed and
is never timed.  See README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TIME_LIMIT_S = 170.0


def source_hash():
    """sha256 over the package sources and build files: 'the same code'."""
    h = hashlib.sha256()
    files = [p for p in sorted(SRC.rglob("*"))
             if p.suffix in (".py", ".pyx", ".c", ".h") and p.is_file()]
    files += [ROOT / n for n in ("setup.py", "pyproject.toml") if (ROOT / n).is_file()]
    files += sorted(HERE.glob("*.py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def ensure_built(src_hash):
    marker = WORK / f"built-{src_hash[:16]}"
    if marker.exists():
        return
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(WORK / "build-temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        raise SystemExit(f"perfbench: build failed with {build.returncode}")
    marker.touch()


class Expectation:
    """The right answer for one generated graph, and how to check a job."""

    def __init__(self, wl, graph, workdir):
        self.wl = wl
        if wl.app == "triangle":
            self.count = oracle.triangle_count(graph)
            return
        from submine import RunConfig, run_job
        from submine.apps import make_app

        self.adj = oracle.adjacency_sets(graph)
        ref = run_job(
            RunConfig(workers=1, queue_kind="lsh", workdir=str(workdir)),
            make_app(wl.app, **wl.app_args), graph,
        )
        self.count = ref.aggregate
        self.digest = oracle.digest(ref.result_lines())
        self.reference_errors = oracle.quasi_clique_errors(
            self.adj, ref.result_lines(), **wl.app_args)

    def errors(self, job):
        """What is wrong with one job's answer (empty when it is right)."""
        if "error" in job:
            return [job["error"]]
        errs = []
        if job["aggregate"] != self.count:
            errs.append(f"aggregate {job['aggregate']} != expected {self.count}")
        if self.wl.app == "quasiclique":
            errs += self.reference_errors
            errs += oracle.quasi_clique_errors(self.adj, job["lines"], **self.wl.app_args)
            if len(job["lines"]) != job["aggregate"]:
                errs.append("emitted line count disagrees with the aggregate")
            if oracle.digest(job["lines"]) != self.digest:
                errs.append("result digest differs from the 1-worker lsh reference")
        return errs


def run_child(wl, graph_path, workdir, trace, budget):
    """One job.py process; its report, or None when it crashed."""
    child = subprocess.run(
        [sys.executable, str(HERE / "job.py"), "--workload", wl.name,
         "--graph", str(graph_path), "--workdir", str(workdir),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget,
    )
    if child.returncode != 0:
        print(f"perfbench: job process exited with {child.returncode}",
              file=sys.stderr)
        return None
    return json.loads(child.stdout.strip().splitlines()[-1])


def counter_mismatches(wl, seed, src_hash, jobs):
    """Exact counters that differ between jobs of this run, or from the
    first run of this source tree and seed in this checkout."""
    seen = [j["counters"] for j in jobs if "counters" in j]
    if not seen:
        return []
    path = WORK / "counters" / f"{wl.name}-{seed}-{src_hash[:16]}.json"
    if path.exists():
        seen.insert(0, json.loads(path.read_text()))
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen[0]))
        tmp.replace(path)
    first = seen[0]
    return [f"{k}: {c[k]} != {first[k]}" for c in seen[1:] for k in first
            if c.get(k) != first[k]]


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "submine" / "__init__.py").is_file():
        print(f"perfbench: no submine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from submine import write_graph
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    src_hash = source_hash()
    ensure_built(src_hash)

    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        graph = wl.make_graph(args.seed)
        edges = sum(v.degree for v in graph) // 2
        vertices = len(graph)
        graph_path = tmp / "graph.txt"
        write_graph(graph, graph_path)
        expect = Expectation(wl, graph, tmp / "reference")
        del graph

        reports = []
        measuring = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            report = run_child(wl, graph_path, tmp / "job", args.trace,
                               TIME_LIMIT_S - (t0 - started))
            if report is None:
                return 1
            reports.append(report)
            now = time.perf_counter()
            if (args.trace or "error" in report["jobs"][-1]
                    or now - measuring + (now - t0) > args.seconds):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    jobs = [j for r in reports for j in r["jobs"]]
    reads = [r["read_s"] for r in reports]
    rss = [r["peak_rss_mb"] for r in reports]
    verdicts = [expect.errors(j) for j in jobs]
    mismatches = counter_mismatches(wl, args.seed, src_hash, jobs)
    good = [j for j, errs in zip(jobs, verdicts) if not errs]
    failed = len(jobs) - len(good)
    for i, errs in enumerate(verdicts):
        for e in errs:
            print(f"perfbench: job {i} wrong: {e}", file=sys.stderr)
    for e in mismatches:
        print(f"perfbench: exact counter changed: {e}", file=sys.stderr)

    metrics = {}
    if args.trace:
        if reports[0]["layers"] is not None and not failed:
            metrics = reports[0]["layers"]
    elif good:
        job_s = statistics.median(j["job_s"] for j in good)
        metrics = {
            "setup_s": [statistics.median(reads), "s"],
            "job_s": [job_s, "s"],
            "edges_per_s": [edges / job_s, "1/s"],
            "peak_rss_mb": [statistics.median(rss), "MB"],
        }
    stamp = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": reports[0]["backend"],
        "python": reports[0]["python"], "nproc": len(os.sched_getaffinity(0)),
        "source_sha256": src_hash, "vertices": vertices, "edges": edges,
        "params": wl.describe(), "read_s": reads, "peak_rss_mb": rss,
        "error_rate": failed / len(jobs), "counter_mismatches": mismatches,
        "jobs": [{k: v for k, v in j.items() if k != "lines"} for j in jobs],
    }
    if args.trace and metrics:
        stamp["largest_self_time"] = max(
            (k for k, (_v, unit) in metrics.items()
             if unit == "s" and not k.endswith("cpu_s")),
            key=lambda k: metrics[k][0])
    print(json.dumps({"perfbench": stamp}))
    print(json.dumps({
        "correct": failed == 0 and not mismatches and bool(metrics),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
