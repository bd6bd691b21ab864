"""Seeded O(n + m) graph generators for the benchmark.

Both generators draw exactly `m` distinct undirected edges without
self-loops, so every seed gives a graph with the same vertex and edge
counts; only the wiring changes.  The same arguments always give the
same graph, because each call owns its own `random.Random`.

* `uniform_graph` -- G(n, m): endpoints uniform over all vertices.
* `chung_lu_graph` -- endpoints drawn in proportion to the weight
  (i + 1) ** -exponent of their rank i.  Exponent 0.5 gives a mild skew
  (max degree about 1.1k at 50k vertices / 250k edges), 0.8 a strong one
  (about 8k).  Ranks go to vertex ids by a shuffle that is the same for
  every seed, so the hubs sit on scattered ids but always the same ones:
  the number of a hub's neighbours with larger ids decides how big the
  task it seeds is, and a per-seed shuffle made the triangle work of the
  0.8 graph swing by a factor of two from seed to seed.

Endpoint draws use Walker's alias method, O(1) each, so a graph costs
O(n + m) expected time.  Rejected draws (self-loops, repeated edges) stay
rare as long as m is far below the number of pairs.
"""

import random

from submine import Graph, Vertex
from submine.graph import AdjItem

RANK_SHUFFLE_SEED = 0


def _alias_table(weights):
    """Vose's alias table: (prob, alias) lists over len(weights) slots."""
    n = len(weights)
    total = sum(weights)
    scaled = [w * n / total for w in weights]
    prob = [0.0] * n
    alias = list(range(n))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        (small if scaled[g] < 1.0 else large).append(g)
    for i in small + large:
        prob[i] = 1.0
    return prob, alias


def _draw_edges(n, m, rng, draw):
    if m > n * (n - 1) // 4:
        raise ValueError(f"{m} edges is too dense for {n} vertices")
    edges = set()
    while len(edges) < m:
        a = draw()
        b = draw()
        if a == b:
            continue
        edges.add((a, b) if a < b else (b, a))
    return edges


def _assemble(n, edges, ids):
    """Graph over ids[0..n-1] from index-pair edges, adjacency sorted."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        ia, ib = ids[a], ids[b]
        adj[a].append(ib)
        adj[b].append(ia)
    g = Graph()
    for i in range(n):
        g.add(Vertex(ids[i], None, [AdjItem(nb) for nb in sorted(adj[i])]))
    return g


def uniform_graph(n, m, seed):
    """G(n, m) on ids 0..n-1."""
    rng = random.Random(seed)
    rand = rng.random

    def draw():
        return int(rand() * n)

    return _assemble(n, _draw_edges(n, m, rng, draw), list(range(n)))


def chung_lu_graph(n, m, exponent, seed):
    """Chung-Lu graph with weights (rank + 1) ** -exponent on ids 0..n-1;
    `seed` draws the edges, the rank -> id shuffle is fixed."""
    rng = random.Random(seed)
    prob, alias = _alias_table([(i + 1) ** -exponent for i in range(n)])
    rand = rng.random

    def draw():
        i = int(rand() * n)
        return i if rand() < prob[i] else alias[i]

    ids = list(range(n))
    random.Random(RANK_SHUFFLE_SEED).shuffle(ids)
    return _assemble(n, _draw_edges(n, m, rng, draw), ids)
