"""Brute-force reference answers for the bundled apps.

Everything here is deliberately independent of the engine and kernels:
plain set arithmetic, networkx's clique enumerator, a vectorized subset
scan, and a naive assignment backtracker.  Each oracle refuses inputs
beyond its documented size limit rather than silently taking hours.
"""

from fractions import Fraction

import networkx as nx
import numpy as np

from submine.graph import Graph


def _check_size(graph, limit, what):
    n = graph.num_vertices
    if n > limit:
        raise ValueError(f"{what} oracle is exhaustive; {n} vertices > limit {limit}")


def _adj_sets(graph: Graph):
    return {vid: set(v.neighbor_ids()) for vid, v in graph.vertices.items()}


def _to_nx(graph: Graph):
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    for vid, v in graph.vertices.items():
        for w in v.neighbor_ids():
            if w > vid:
                g.add_edge(vid, w)
    return g


def tri_count_bf(graph: Graph) -> int:
    """Triangle count by neighbor-set intersection, O(sum of deg^2)."""
    _check_size(graph, 2000, "triangle")
    adj = _adj_sets(graph)
    count = 0
    for u, nu in adj.items():
        for w in nu:
            if w > u:
                count += sum(1 for t in nu & adj[w] if t > w)
    return count


def max_clique_bf(graph: Graph) -> int:
    """Exact maximum clique size via exhaustive maximal-clique listing."""
    _check_size(graph, 500, "max clique")
    if graph.num_vertices == 0:
        return 0
    return max(len(c) for c in nx.find_cliques(_to_nx(graph)))


def maximal_cliques_bf(graph: Graph) -> set:
    """All maximal cliques as a set of frozensets."""
    _check_size(graph, 500, "maximal cliques")
    if graph.num_vertices == 0:
        return set()
    return {frozenset(c) for c in nx.find_cliques(_to_nx(graph))}


def quasi_cliques_bf(graph: Graph, gamma, min_size) -> set:
    """Every vertex set of size >= min_size where each member has at
    least ceil(gamma * (|S|-1)) neighbors inside the set, by scanning
    all 2^n subsets (vectorized); n is capped accordingly."""
    _check_size(graph, 24, "quasi-clique")
    if isinstance(gamma, float):
        gamma = str(gamma)
    gamma = Fraction(gamma)
    num, den = gamma.numerator, gamma.denominator
    ids = graph.ids()
    n = len(ids)
    if n == 0:
        return set()
    pos = {vid: i for i, vid in enumerate(ids)}
    masks = []
    for vid in ids:
        m = 0
        for w in graph.vertices[vid].neighbor_ids():
            m |= 1 << pos[w]
        masks.append(m)
    subsets = np.arange(1 << n, dtype=np.uint32)
    sizes = np.bitwise_count(subsets).astype(np.int64)
    ok = sizes >= int(min_size)
    need = (num * (sizes - 1) + den - 1) // den
    for i in range(n):
        deg = np.bitwise_count(subsets & np.uint32(masks[i])).astype(np.int64)
        member = (subsets >> np.uint32(i)) & np.uint32(1)
        ok &= (member == 0) | (deg >= need)
    out = set()
    for s in np.nonzero(ok)[0]:
        s = int(s)
        out.add(frozenset(ids[i] for i in range(n) if s >> i & 1))
    return out


def quasi_cliques_unpruned(graph: Graph, gamma, min_size) -> set:
    """The same answer as quasi_cliques_bf, by the quasi-clique app's
    search before it pruned: for each vertex v with a larger neighbor,
    enumerate the subsets containing v of v's 2-hop neighborhood above v,
    filtering by degree only.  It visits ego nets, not all 2^n subsets,
    so it has no size cap; sparse graphs of a few dozen vertices are
    cheap, dense ones are not."""
    if isinstance(gamma, float):
        gamma = str(gamma)
    gamma = Fraction(gamma)
    num, den = gamma.numerator, gamma.denominator
    min_size = int(min_size)

    def threshold(k):
        return (num * (k - 1) + den - 1) // den

    adj = _adj_sets(graph)
    out = set()
    for v in graph.ids():
        gt = {w for w in adj[v] if w > v}
        if not gt and min_size > 1:
            continue
        ego = {v} | gt
        for f in gt:
            ego |= {w for w in adj[f] if w > v}
        universe = sorted(ego)  # v first: everything else is larger
        idx = {u: i for i, u in enumerate(universe)}
        rows = [0] * len(universe)
        for u in universe:
            for w in adj[u]:
                if w in idx:
                    rows[idx[u]] |= 1 << idx[w]

        def dfs(s_idxs, s_mask, cand):
            c_mask = 0
            for c in cand:
                c_mask |= 1 << c
            k = len(s_idxs)
            need_c = threshold(max(min_size, k + 1))
            while True:
                keep = [c for c in cand
                        if (rows[c] & (s_mask | c_mask)).bit_count() >= need_c]
                if len(keep) == len(cand):
                    break
                cand = keep
                c_mask = 0
                for c in cand:
                    c_mask |= 1 << c
            need_s = threshold(max(min_size, k))
            if any((rows[s] & (s_mask | c_mask)).bit_count() < need_s
                   for s in s_idxs):
                return
            if k >= min_size:
                t = threshold(k)
                if all((rows[s] & s_mask).bit_count() >= t for s in s_idxs):
                    out.add(frozenset(universe[i] for i in s_idxs))
            for pos, c in enumerate(cand):
                dfs(s_idxs + [c], s_mask | (1 << c), cand[pos + 1:])

        dfs([0], 1, list(range(1, len(universe))))
    return out


def match_bf(graph: Graph, query) -> set:
    """All injective, label- and edge-preserving assignments of the query
    into the data graph, as tuples in ascending query-id order."""
    _check_size(graph, 1000, "matching")
    adj = _adj_sets(graph)
    labels = {vid: v.label for vid, v in graph.vertices.items()}
    order = query.bfs_order()
    qids = sorted(query.labels)
    cands = {
        qv: sorted(vid for vid, lab in labels.items() if lab == query.labels[qv])
        for qv in order
    }
    results = set()
    assign = {}
    used = set()

    def bt(pos):
        if pos == len(order):
            results.add(tuple(assign[q] for q in qids))
            return
        qv = order[pos]
        placed = [r for r in sorted(query.adj[qv]) if r in assign]
        for cand in cands[qv]:
            if cand in used:
                continue
            if any(cand not in adj[assign[r]] for r in placed):
                continue
            assign[qv] = cand
            used.add(cand)
            bt(pos + 1)
            del assign[qv]
            used.discard(cand)

    bt(0)
    return results
