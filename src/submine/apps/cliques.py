"""Maximum clique search and maximal clique enumeration.

Both apps decompose the graph by minimum vertex: the task seeded at v
works on the subgraph around v's larger neighbors, so each clique is
examined exactly once, where its smallest member lives.

Both build the ego net's bitset rows with `_ego_rows`, which sets both
bits of every edge it finds, so each app reads each edge from one end:
maximum clique scans the neighbors above each frontier vertex's id,
maximal clique those below.

Maximum clique keeps a global (size, witness) aggregate that doubles as
the branch-and-bound floor: tasks prune against the best size published
so far, which only ever removes branches that cannot win.

Maximal clique enumeration must judge maximality against the *full*
graph, not just the larger-neighbor universe: a clique of v and larger
neighbors that can be extended by some smaller vertex is not maximal
(and belongs to a smaller seed).  The excluded set is v's smaller
neighbors.  The task never pulls their lists, so an edge between one of
them and a larger neighbor is seen only in the larger one's list, below
its id; this app therefore scans the neighbors below each frontier
vertex's id, and its respond hook sends a pulled vertex with only
those.
"""

from bisect import bisect_right

from ..engine import SUM_AGGREGATOR, AggregatorSpec, AppSpec, Task
from ..graph import (
    larger_neighbor_ids,
    respond_larger,
    respond_smaller,
    smaller_neighbor_ids,
)
from ..kernels import max_clique, maximal_cliques


def _bits(mask):
    """Indices of the set bits of `mask`, ascending.  Each step clears the
    lowest set bit, so a mask of width n with k bits set costs O(k n / 64),
    not the O(n^2 / 64) of shifting the whole mask once per bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _ego_rows(members, scans):
    """Adjacency rows of the net on `members`, bit i standing for
    members[i].  `scans` yields (member id, neighbor ids) pairs; each
    neighbor that is a member sets both bits of its edge, so an edge
    needs to be listed from one end only."""
    idx = {u: i for i, u in enumerate(members)}
    rows = [0] * len(members)
    for u, nbrs in scans:
        i = idx[u]
        bit = 1 << i
        row = 0
        for w in idx.keys() & nbrs:
            j = idx[w]
            row |= 1 << j
            rows[j] |= bit
        rows[i] |= row
    return rows


def _qmax_merge(a, b):
    """Max by size; ties take the lexicographically smallest witness so
    the merged value is independent of merge order."""
    if b[0] != a[0]:
        return b if b[0] > a[0] else a
    if b[1] and (not a[1] or b[1] < a[1]):
        return b
    return a


def max_clique_app() -> AppSpec:
    """Exact maximum clique via seeded branch and bound.

    Aggregate value is (size, members ascending); the witness is a real
    clique (edges are only recorded from actual adjacency lists).
    """

    def seed(v):
        return [Task(v.id, pulls=larger_neighbor_ids(v))]

    def compute(task, frontier):
        v = task.seed_id
        task.aggregate((1, (v,)))
        if frontier:
            cand = [f.id for f in frontier]
            rows = _ego_rows(cand, ((f.id, larger_neighbor_ids(f))
                                    for f in frontier))
            # Floor sits one below "strictly better" so witnesses that TIE
            # the current best are still found; the lex-min merge then picks
            # the same winner no matter which task ran first.
            floor = max(task.best()[0] - 2, 0)
            size, mask = max_clique(len(cand), rows, floor)
            if size:
                members = [v] + [cand[i] for i in _bits(mask)]
                task.aggregate((size + 1, tuple(members)))
        return False

    return AppSpec(
        name="maxclique",
        seed=seed,
        compute=compute,
        respond=respond_larger,
        aggregator=AggregatorSpec(zero=lambda: (0, ()), merge=_qmax_merge),
    )


def maximal_cliques_app() -> AppSpec:
    """Enumerate all maximal cliques, each emitted by its minimum vertex.

    The rows come from each pulled vertex's smaller neighbors (they
    decide whether a clique extends below the seed), so responses are
    pruned to those.  The seed is local and keeps its full list, which
    gives the candidate and excluded sets.
    """

    def seed(v):
        # The seed pulls itself so compute sees its own full adjacency;
        # local ids resolve from the worker table without messaging.
        return [Task(v.id, pulls=[v.id] + larger_neighbor_ids(v))]

    def compute(task, frontier):
        v = frontier[0]
        nbrs = v.neighbor_ids()
        universe = [v.id] + nbrs
        rows = _ego_rows(universe, ((f.id, smaller_neighbor_ids(f))
                                    for f in frontier))
        # Universe slots 1..k hold the smaller neighbors, the rest the
        # larger ones, so the excluded and candidate sets are two runs.
        k = bisect_right(nbrs, v.id)
        x_mask = (1 << (k + 1)) - 2
        p_mask = (1 << len(universe)) - (1 << (k + 1))
        count = 0
        for mask in maximal_cliques(len(universe), rows, p_mask, x_mask):
            # Every member is a larger neighbor, so the line is ascending.
            members = [v.id] + [universe[i] for i in _bits(mask)]
            task.emit(" ".join(map(str, members)))
            count += 1
        task.aggregate(count)
        return False

    return AppSpec(
        name="maximalcliques",
        seed=seed,
        compute=compute,
        respond=respond_smaller,
        aggregator=SUM_AGGREGATOR,
    )
