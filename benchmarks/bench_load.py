#!/usr/bin/env python3
"""Time and memory of loading a graph file: read_graph_sha256, then
check_undirected.

Writes perfbench's `uniform_graph(n, m, seed=1)` as canonical text for
each size (by default (50k, 250k) and (200k, 1M)), twice: without
attributes, and in gmatch's form, with a label on every vertex and
`nb:attr` on every neighbor token (the attribute is the neighbor's
label).  Loads each file N times, each time in a fresh Python process,
and prints one JSON line: the kernel backend and, per file, the best
read and check seconds, the vertex count, the largest peak RSS right
after read_graph_sha256 (`_read_rss_mb`) and the largest after
check_undirected (`_max_rss_mb`).  The peak is VmHWM from
/proc/self/status, which exec resets, so it is the load's own and not
this script's (ru_maxrss, the fallback off Linux, keeps the parent's
high-water mark across exec).

    PYTHONPATH=src python3 benchmarks/bench_load.py --repeat 3
    PYTHONPATH=src python3 benchmarks/bench_load.py --sizes 50000:250000
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
SIZES = ("50000:250000", "200000:1000000")
LABELS = "abcdefg"


def size(text):
    """An `N:M` size: N vertices, M edges."""
    n, sep, m = text.partition(":")
    if not (sep and n.isdigit() and m.isdigit()):
        raise argparse.ArgumentTypeError(f"expected N:M, got {text!r}")
    return int(n), int(m)


def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_uniform(n, m, path, attr_path=None):
    """Write perfbench's uniform_graph(n, m, seed=1) to `path` and, when
    `attr_path` is given, the same graph in gmatch's form to it."""
    sys.path.insert(0, PERFBENCH)
    import gen
    from submine.graph import Vertex, format_vertex_line, write_graph

    g = gen.uniform_graph(n, m, seed=1)
    write_graph(g, path)
    if attr_path is None:
        return
    with open(attr_path, "w", encoding="utf-8") as fh:
        for vid in g.ids():
            ids = g[vid].neighbor_ids()
            v = Vertex.from_ids(vid, LABELS[vid % len(LABELS)], ids,
                                [LABELS[nb % len(LABELS)] for nb in ids])
            fh.write(format_vertex_line(v) + "\n")


def _load(path):
    from submine.graph import check_undirected, read_graph_sha256
    from submine.kernels import BACKEND

    t0 = time.perf_counter()
    g, _ = read_graph_sha256(path)
    t1 = time.perf_counter()
    read_rss = peak_rss_mb()
    check_undirected(g)
    t2 = time.perf_counter()
    print(json.dumps({"read_s": t1 - t0, "check_s": t2 - t1,
                      "vertices": len(g), "read_rss_mb": read_rss,
                      "max_rss_mb": peak_rss_mb(), "backend": BACKEND}))


def child(script, *args):
    """Run `script` with `args` in a fresh interpreter; its stdout."""
    out = subprocess.run([sys.executable, script, *args],
                         check=True, stdout=subprocess.PIPE, text=True)
    return out.stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="loads per file; best time and largest RSS reported")
    ap.add_argument("--sizes", nargs="+", type=size,
                    default=[size(s) for s in SIZES], metavar="N:M",
                    help="graph sizes, vertices:edges (default: %s)"
                    % " ".join(SIZES))
    ap.add_argument("--write", nargs=4, help=argparse.SUPPRESS)
    ap.add_argument("--load", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write:
        n, m, path, attr_path = args.write
        write_uniform(int(n), int(m), path, attr_path)
        return 0
    if args.load:
        _load(args.load)
        return 0

    me = os.path.abspath(__file__)
    out = {"model": "uniform", "seed": 1, "backend": None}
    with tempfile.TemporaryDirectory(prefix="bench_load-") as tmp:
        for n, m in args.sizes:
            tag = f"n{n}_m{m}"
            paths = {tag: os.path.join(tmp, f"uniform-{n}-{m}.txt"),
                     f"{tag}_attr": os.path.join(tmp, f"attr-{n}-{m}.txt")}
            child(me, "--write", str(n), str(m), *paths.values())
            for key, path in paths.items():
                runs = [json.loads(child(me, "--load", path))
                        for _ in range(args.repeat)]
                out["backend"] = runs[0]["backend"]
                out[f"{key}_read_s"] = round(min(r["read_s"] for r in runs), 3)
                out[f"{key}_check_s"] = round(
                    min(r["check_s"] for r in runs), 3)
                for rss in ("read_rss_mb", "max_rss_mb"):
                    out[f"{key}_{rss}"] = round(max(r[rss] for r in runs), 1)
                out[f"{key}_vertices"] = runs[0]["vertices"]
                os.remove(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
