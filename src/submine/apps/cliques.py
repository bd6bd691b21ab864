"""Maximum clique search and maximal clique enumeration.

Both apps decompose the graph by minimum vertex: the task seeded at v
works on the subgraph around v's larger neighbors, so each clique is
examined exactly once, where its smallest member lives.

Maximum clique keeps a global (size, witness) aggregate that doubles as
the branch-and-bound floor: tasks prune against the best size published
so far, which only ever removes branches that cannot win.

Maximal clique enumeration must judge maximality against the *full*
graph, not just the larger-neighbor universe: a clique of v and larger
neighbors that can be extended by some smaller vertex is not maximal
(and belongs to a smaller seed).  The excluded set is seeded with v's
smaller neighbors and updated through the pulled full adjacency lists.
"""

from ..engine import (
    AggregatorSpec,
    AppSpec,
    Task,
    decode_no_context,
    encode_no_context,
)
from ..graph import larger_neighbor_ids, respond_larger
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
            idx = {c: i for i, c in enumerate(cand)}
            rows = [0] * len(cand)
            for f in frontier:
                i = idx[f.id]
                for w in f.neighbor_ids():
                    j = idx.get(w)
                    if j is not None:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
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
        encode_context=encode_no_context,
        decode_context=decode_no_context,
        respond=respond_larger,
        aggregator=AggregatorSpec(zero=lambda: (0, ()), merge=_qmax_merge),
    )


def maximal_cliques_app() -> AppSpec:
    """Enumerate all maximal cliques, each emitted by its minimum vertex.

    Responses are never pruned here: the maximality check needs each
    pulled vertex's smaller neighbors too (they decide whether a clique
    extends below the seed).
    """

    def seed(v):
        # The seed pulls itself so compute sees its own full adjacency;
        # local ids resolve from the worker table without messaging.
        return [Task(v.id, pulls=[v.id] + larger_neighbor_ids(v))]

    def compute(task, frontier):
        v = frontier[0]
        universe = [v.id] + v.neighbor_ids()
        idx = {u: i for i, u in enumerate(universe)}
        n = len(universe)
        rows = [0] * n
        for w in v.neighbor_ids():
            j = idx[w]
            rows[0] |= 1 << j
            rows[j] |= 1
        p_mask = 0
        x_mask = 0
        for w in v.neighbor_ids():
            if w > v.id:
                p_mask |= 1 << idx[w]
            else:
                x_mask |= 1 << idx[w]
        for f in frontier[1:]:
            i = idx[f.id]
            for w in f.neighbor_ids():
                j = idx.get(w)
                if j is not None:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        count = 0
        for mask in maximal_cliques(n, rows, p_mask, x_mask):
            members = sorted([v.id] + [universe[i] for i in _bits(mask)])
            task.emit(" ".join(map(str, members)))
            count += 1
        task.aggregate(count)
        return False

    return AppSpec(
        name="maximalcliques",
        seed=seed,
        compute=compute,
        encode_context=encode_no_context,
        decode_context=decode_no_context,
        respond=None,
        aggregator=AggregatorSpec(zero=int, merge=lambda a, b: a + b),
    )
