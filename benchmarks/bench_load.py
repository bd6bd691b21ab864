#!/usr/bin/env python3
"""Time and memory of loading a graph file: read_graph_sha256, then
check_undirected.

Writes perfbench's `uniform_graph(n, m, seed=1)` as canonical text for
(n, m) = (50k, 250k) and (200k, 1M), loads each file N times, each time
in a fresh Python process, and prints one JSON line: per size, the best
read and check seconds, the vertex count, and the largest peak RSS of a
loading process.  The peak is VmHWM from /proc/self/status, which exec
resets, so it is the load's own and not this script's (ru_maxrss, the
fallback off Linux, keeps the parent's high-water mark across exec).

    PYTHONPATH=src python3 benchmarks/bench_load.py --repeat 3
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
SIZES = ((50_000, 250_000), (200_000, 1_000_000))


def _peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write(n, m, path):
    sys.path.insert(0, PERFBENCH)
    import gen
    from submine.graph import write_graph

    write_graph(gen.uniform_graph(n, m, seed=1), path)


def _load(path):
    from submine.graph import check_undirected, read_graph_sha256

    t0 = time.perf_counter()
    g, _ = read_graph_sha256(path)
    t1 = time.perf_counter()
    check_undirected(g)
    t2 = time.perf_counter()
    print(json.dumps({"read_s": t1 - t0, "check_s": t2 - t1,
                      "vertices": len(g), "max_rss_mb": _peak_rss_mb()}))


def _child(*args):
    out = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                         check=True, stdout=subprocess.PIPE, text=True)
    return out.stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="loads per size; best time and largest RSS reported")
    ap.add_argument("--write", nargs=3, help=argparse.SUPPRESS)
    ap.add_argument("--load", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write:
        n, m, path = args.write
        _write(int(n), int(m), path)
        return 0
    if args.load:
        _load(args.load)
        return 0

    out = {"model": "uniform", "seed": 1}
    with tempfile.TemporaryDirectory(prefix="bench_load-") as tmp:
        for n, m in SIZES:
            path = os.path.join(tmp, f"uniform-{n}-{m}.txt")
            _child("--write", str(n), str(m), path)
            runs = [json.loads(_child("--load", path))
                    for _ in range(args.repeat)]
            tag = f"n{n}_m{m}"
            out[f"{tag}_read_s"] = round(min(r["read_s"] for r in runs), 3)
            out[f"{tag}_check_s"] = round(min(r["check_s"] for r in runs), 3)
            out[f"{tag}_max_rss_mb"] = round(
                max(r["max_rss_mb"] for r in runs), 1)
            out[f"{tag}_vertices"] = runs[0]["vertices"]
            os.remove(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
