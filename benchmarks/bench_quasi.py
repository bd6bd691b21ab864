#!/usr/bin/env python3
"""Wall time of the quasi-clique app on small dense-enough G(n, p) graphs.

Runs the quasi-clique job (gamma = 0.6, min_size = 4) on 1 worker over
`gnp_graph(n, 0.04, seed=1)` for n = 200, 250 and 300, checks each
result count against the known answer, and prints one JSON line:
seconds and result count per n (best of N), and how many tasks ran at
once (`tasks_local`) and how many queue entries the job made
(`queue_enqueued`; 0 when no task ever lacked a vertex).  The ego nets
here reach about 100 vertices, so the time is the search's pruning, not
the engine's pull path.

    python3 benchmarks/bench_quasi.py --repeat 3
"""

import argparse
import json
import sys
import time

from submine.apps import make_app
from submine.engine import RunConfig, run_job
from submine.gen import gnp_graph

GAMMA = "0.6"
MIN_SIZE = 4
P = 0.04
EXPECTED = {200: 613, 250: 1508, 300: 3105}


def _run(n):
    graph = gnp_graph(n, P, seed=1)
    app = make_app("quasiclique", gamma=GAMMA, min_size=MIN_SIZE)
    t0 = time.perf_counter()
    res = run_job(RunConfig(workers=1), app, graph=graph)
    return time.perf_counter() - t0, res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions; best of N is reported")
    args = ap.parse_args(argv)

    out = {"gamma": GAMMA, "min_size": MIN_SIZE, "p": P, "workers": 1}
    for n, want in EXPECTED.items():
        best = None
        for _ in range(args.repeat):
            s, res = _run(n)
            lines = len(res.result_lines())
            if res.aggregate != want or lines != want:
                raise SystemExit(f"n={n}: {res.aggregate} results ({lines} "
                                 f"lines), expected {want}")
            best = s if best is None else min(best, s)
        out[f"n{n}_s"] = round(best, 3)
        out[f"n{n}_results"] = want
        for key in ("tasks_local", "queue_enqueued"):
            out[f"n{n}_{key}"] = res.metrics[key]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
