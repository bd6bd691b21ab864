#!/usr/bin/env python3
"""Compare the pure-Python kernels against the compiled backend.

Times the hot kernels on generated workloads, checks that both backends
return identical answers while doing so, and prints a table.  The
compiled column times what the package calls (`submine.kernels` with its
compiled backend, every kernel from the one module _compiled).  Runs
fine without the extension built (compiled column shows "-").
The last row times the clique apps' pure-Python bit readout on a wide
mask; it has no compiled twin.

    python3 benchmarks/bench_kernels.py --repeat 5
"""

import argparse
import random
import sys
import time
from bisect import bisect_right

from submine import kernels
from submine.apps.cliques import _bits
from submine.gen import gnp_graph
from submine.graph import larger_neighbor_ids
from submine.kernels import pure
from submine.minhash import derive_seeds

compiled = kernels if kernels.BACKEND == "compiled" else None


def _triangle_workload(seed, graphs=20, n=150, p=0.08):
    """(ids, adj_lists) call pairs shaped like the triangle app's."""
    calls = []
    for s in range(graphs):
        g = gnp_graph(n, p, seed=seed + s)
        for v in g:
            gt = larger_neighbor_ids(v)
            if len(gt) < 2:
                continue
            ids = gt[:-1]
            adj = [[w for w in g[u].neighbor_ids() if w > u] for u in ids]
            calls.append((ids, adj))
    return calls


def _skewed_ids(rng, count, n=30_000, exponent=0.5):
    """`count` ids drawn with Chung-Lu weights (rank + 1) ** -exponent
    over n shuffled ids; the defaults are tri-skew-lru's."""
    ids = list(range(n))
    rng.shuffle(ids)
    weights = [(r + 1) ** -exponent for r in range(n)]
    return rng.choices(ids, weights=weights, k=count)


def _hub_adjacency(seed, n=20_000, m=100_000, exponent=0.8):
    """Sorted adjacency lists of a hub-skewed graph on ids 0..n-1.

    Chung-Lu-style: edge ends are drawn with weight (rank + 1) ** -exponent
    and ranks get shuffled ids; the widest lists reach ~3.6k.
    """
    rng = random.Random(seed)
    ends = _skewed_ids(rng, 2 * m, n, exponent)
    nbrs = [set() for _ in range(n)]
    for a, b in zip(ends[::2], ends[1::2]):
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return [sorted(s) for s in nbrs]


def _hub_workload(seed, calls=300):
    """The widest triangle calls on the _hub_adjacency graph.

    As in the triangle app, each call pairs a seed's larger neighbors
    with their full sorted adjacency lists (which hold ids below their
    own too); here n reaches ~2k.  The tiny calls that make up most of a
    real job are left out: the widest few hundred are where the kernel's
    time goes.
    """
    adj = _hub_adjacency(seed)
    out = []
    for v in range(len(adj)):
        gt = adj[v][bisect_right(adj[v], v):]
        if len(gt) >= 2:
            out.append((gt, [adj[u] for u in gt[:-1]] + [()]))
    out.sort(key=lambda c: len(c[0]), reverse=True)
    return out[:calls]


def _pull_sets_workload(seed, sets=20_000):
    """Remote pull sets shaped like tri-skew-lru's keyed tasks: frozensets
    of skewed ids, sizes 1-8 with mean about 3.25."""
    rng = random.Random(seed)
    sizes = rng.choices(range(1, 9), weights=(6, 6, 5, 4, 3, 2, 1, 1),
                        k=sets)
    ids = iter(_skewed_ids(rng, sum(sizes)))
    return [frozenset(next(ids) for _ in range(k)) for k in sizes]


def _rows_workload(seed, count, n, p):
    """Random symmetric bitset adjacency rows."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        out.append(rows)
    return out


def _time(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_count_closing_pairs(args):
    calls = _triangle_workload(args.seed)

    def run(mod):
        return sum(mod.count_closing_pairs(ids, adj) for ids, adj in calls)

    return len(calls), run


def bench_count_closing_pairs_hub(args):
    calls = _hub_workload(args.seed)

    def run(mod):
        return sum(mod.count_closing_pairs(ids, adj) for ids, adj in calls)

    return len(calls), run


def bench_edges_symmetric(args):
    """The load's symmetry check on the _hub_adjacency graph, as is and
    with the reverse of its last edge dropped, so the walk runs to the
    end both times and the backends must agree on True and on False."""
    rows = _hub_adjacency(args.seed)
    ids = list(range(len(rows)))
    v = max(v for v in ids if rows[v])
    broken = list(rows)
    broken[rows[v][-1]] = [u for u in rows[rows[v][-1]] if u != v]

    def run(mod):
        return [mod.edges_symmetric(ids, rows),
                mod.edges_symmetric(ids, broken)]

    return 2, run


def bench_minhash_signature(args):
    sets = _pull_sets_workload(args.seed)
    seeds = derive_seeds(args.seed, 4)

    def run(mod):
        return [mod.minhash_signature(s, seeds) for s in sets]

    return len(sets), run


def bench_mix64(args):
    """Owner lookups, as partitioning and a round's pull grouping make."""
    ids = _skewed_ids(random.Random(args.seed), 45_000)

    def run(mod):
        mix = mod.mix64
        return [mix(v) % 2 for v in ids]

    return len(ids), run


def bench_max_clique(args):
    n = 60
    workload = _rows_workload(args.seed, 30, n, 0.5)

    def run(mod):
        return [mod.max_clique(n, rows) for rows in workload]

    return len(workload), run


def bench_max_clique_dense(args):
    """Dense 90-vertex nets, where a search that never drops a tried
    vertex from its candidates runs several times longer than pure."""
    n = 90
    workload = _rows_workload(args.seed + 2, 3, n, 0.8)

    def run(mod):
        return [mod.max_clique(n, rows) for rows in workload]

    return len(workload), run


def bench_maximal_cliques(args):
    n = 34
    workload = _rows_workload(args.seed + 1, 20, n, 0.4)
    full = (1 << n) - 1

    def run(mod):
        return [sorted(mod.maximal_cliques(n, rows, full, 0))
                for rows in workload]

    return len(workload), run


def bench_bits_wide_mask(args, width=7000, bits=21, calls=200):
    """Read the members out of a clique mask as wide as a hub's ego net.

    Returns the row's call count and its best time in seconds."""
    rng = random.Random(args.seed)
    mask = 1 << (width - 1)
    for i in rng.sample(range(width - 1), bits - 1):
        mask |= 1 << i
    best, out = _time(lambda: [_bits(mask) for _ in range(calls)], args.repeat)
    if len(out[0]) != bits:
        raise SystemExit("cliques_bits_wide_mask: wrong bit count")
    return calls, best


BENCHES = [
    ("count_closing_pairs", bench_count_closing_pairs),
    ("count_closing_pairs_hub", bench_count_closing_pairs_hub),
    ("edges_symmetric", bench_edges_symmetric),
    ("minhash_signature", bench_minhash_signature),
    ("mix64", bench_mix64),
    ("max_clique", bench_max_clique),
    ("max_clique_dense", bench_max_clique_dense),
    ("maximal_cliques", bench_maximal_cliques),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions; best of N is reported")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    if compiled is None:
        print("note: compiled backend not loaded; timing pure only",
              file=sys.stderr)

    rows = []
    for name, setup in BENCHES:
        calls, run = setup(args)
        pure_t, pure_out = _time(lambda: run(pure), args.repeat)
        if compiled is not None:
            fast_t, fast_out = _time(lambda: run(compiled), args.repeat)
            if fast_out != pure_out:
                print(f"error: backends disagree on {name}", file=sys.stderr)
                return 1
            rows.append((name, calls, f"{pure_t:.4f}", f"{fast_t:.4f}",
                         f"{pure_t / fast_t:.1f}x"))
        else:
            rows.append((name, calls, f"{pure_t:.4f}", "-", "-"))
    calls, bits_t = bench_bits_wide_mask(args)
    rows.append(("cliques_bits_wide_mask", calls, f"{bits_t:.4f}", "-", "-"))

    header = ("kernel", "calls", "pure_s", "compiled_s", "speedup")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(f).ljust(w) for f, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
