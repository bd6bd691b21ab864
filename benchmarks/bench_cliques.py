#!/usr/bin/env python3
"""Wall time of the clique apps on a hub-skewed graph.

Runs maxclique and maximalcliques at 1 and 2 workers, with RunConfig
defaults for everything else, on a Chung-Lu-style graph built here the
way `bench_kernels.py`'s `_hub_adjacency` builds its own (edge ends
drawn with weight (rank + 1) ** -0.8, ranks given shuffled ids), so its
widest ego nets run to a few thousand vertices.  Checks that each app's
aggregate and sorted result lines are the same at both worker counts
and match the pinned answers, and prints one JSON line: per case, the
median seconds of N runs and the answer.

    python3 benchmarks/bench_cliques.py --repeat 5
"""

import argparse
import json
import statistics
import sys
import time

from bench_kernels import _hub_adjacency
from submine.apps import make_app
from submine.engine import RunConfig, run_job
from submine.graph import Graph, Vertex

N, M, SEED = 15_000, 60_000, 1
# app -> its answer: the clique size for maxclique, the number of
# cliques for maximalcliques
EXPECTED = {"maxclique": 16, "maximalcliques": 47616}


def hub_graph():
    g = Graph()
    for vid, nbrs in enumerate(_hub_adjacency(SEED, N, M)):
        g.add(Vertex.from_ids(vid, None, nbrs))
    return g


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions; the median is reported")
    args = ap.parse_args(argv)

    g = hub_graph()
    out = {}
    for app_name, want in EXPECTED.items():
        answers = set()
        for workers in (1, 2):
            times = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                res = run_job(RunConfig(workers=workers), make_app(app_name),
                              graph=g)
                times.append(time.perf_counter() - t0)
                answers.add((repr(res.aggregate),
                             tuple(sorted(res.result_lines()))))
            got = res.aggregate
            if app_name == "maxclique":
                got = got[0]
            elif len(res.result_lines()) != got:
                raise SystemExit(f"{app_name} at {workers} workers: "
                                 f"{got} cliques, "
                                 f"{len(res.result_lines())} lines")
            if got != want:
                raise SystemExit(f"{app_name} at {workers} workers: "
                                 f"{got}, expected {want}")
            out[f"{app_name}_w{workers}"] = {
                "s": round(statistics.median(times), 4), "answer": got}
        if len(answers) != 1:
            raise SystemExit(f"{app_name}: the aggregate or the lines "
                             "differ between runs")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
