#!/usr/bin/env python3
"""Wall time and pull volume of the graph-matching app.

Runs the Fig. 4 query (a bowtie with a tail) on
`labeled_gnp_graph(n, p, seed=7, alphabet="abcd")` for (n, p) =
(3000, 0.003), (1500, 0.01) and (800, 0.03) at 1 and 2 workers, and
four other queries (an a-b edge, an a-b-c triangle, a b-a-b-c path
started at its a, and a diamond started at a tip) on the (3000, 0.003)
graph at 2 workers, with RunConfig defaults for everything else.
Checks every result count against the known answer and prints one JSON
line: per case, the median seconds of N runs, `vertices_requested`
(vertices pulled from other workers) and `tasks_seeded`.

    python3 benchmarks/bench_gmatch.py --repeat 5
"""

import argparse
import json
import statistics
import sys
import time

from submine.apps import QueryGraph, fig4_query, make_app
from submine.engine import RunConfig, run_job
from submine.gen import labeled_gnp_graph

GRAPHS = {"n3000": (3000, 0.003), "n1500": (1500, 0.01), "n800": (800, 0.03)}
QUERIES = {
    "fig4": fig4_query(),
    "edge": QueryGraph({1: "a", 2: "b"}, [(1, 2)]),
    "triangle": QueryGraph({1: "a", 2: "b", 3: "c"}, [(1, 2), (2, 3), (1, 3)]),
    "path": QueryGraph({1: "b", 2: "a", 3: "b", 4: "c"},
                       [(1, 2), (2, 3), (3, 4)], start=2),
    "diamond": QueryGraph({1: "a", 2: "b", 3: "b", 4: "d"},
                          [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)], start=4),
}
# (query, graph, workers) -> number of matchings
EXPECTED = {
    ("fig4", "n3000", 1): 59,
    ("fig4", "n3000", 2): 59,
    ("fig4", "n1500", 1): 727,
    ("fig4", "n1500", 2): 727,
    ("fig4", "n800", 1): 9135,
    ("fig4", "n800", 2): 9135,
    ("edge", "n3000", 2): 1785,
    ("triangle", "n3000", 2): 11,
    ("path", "n3000", 2): 8984,
    ("diamond", "n3000", 2): 1,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions; the median is reported")
    args = ap.parse_args(argv)

    graphs = {}
    out = {}
    for (qname, gname, workers), want in EXPECTED.items():
        if gname not in graphs:
            n, p = GRAPHS[gname]
            graphs[gname] = labeled_gnp_graph(n, p, seed=7, alphabet="abcd")
        times = []
        for _ in range(args.repeat):
            app = make_app("gmatch", query=QUERIES[qname])
            t0 = time.perf_counter()
            res = run_job(RunConfig(workers=workers), app, graph=graphs[gname])
            times.append(time.perf_counter() - t0)
            lines = len(res.result_lines())
            if res.aggregate != want or lines != want:
                raise SystemExit(f"{qname} on {gname} at {workers} workers: "
                                 f"{res.aggregate} matchings ({lines} lines), "
                                 f"expected {want}")
        out[f"{qname}_{gname}_w{workers}"] = {
            "s": round(statistics.median(times), 4),
            "matchings": want,
            "vertices_requested": res.metrics["vertices_requested"],
            "tasks_seeded": res.metrics["tasks_seeded"],
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
