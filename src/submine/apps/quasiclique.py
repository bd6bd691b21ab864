"""Gamma-quasi-clique enumeration.

A vertex set S is a gamma-quasi-clique when every member has at least
t(|S|) = ceil(gamma * (|S| - 1)) neighbors inside S.  For gamma >= 1/2
any such set is connected with diameter at most 2: two non-adjacent
members each have at least ceil((|S|-1)/2) neighbors among the other
|S| - 2, so they share one.  Every qualifying set whose minimum vertex is
v therefore lies inside v's 2-hop neighborhood restricted to ids greater
than v.  The task seeded at v pulls its larger neighbors F, then the
2-hop vertices W (again only ids > v) that survive the peeling below,
and enumerates over that ego network; the union over all seeds is
exactly the qualifying sets of size >= min_size, each found once.

Every rule below is sound for "all qualifying sets of size >= min_size",
not only the maximal ones.  Each drops a vertex or a branch only when no
qualifying set through it exists.  Since t is non-decreasing, a member
of a qualifying S of size k >= min_size has at least t(k) >= t(min_size)
neighbors in S; call m = t(min_size).

Seed bound.  v is a member of every set its task could find, and all of
v's neighbors in such a set are larger than v.  So a vertex with fewer
than m larger neighbors seeds no task.

Peeling at iteration 0.  The task then holds F with full adjacency, so
it knows every edge from F into {v} | F | W.  Two rules run to a
fixpoint, each removal lowering the counts of the rest:
  - f in F needs m neighbors in {v} | F | W, where F and W are the
    vertices still standing: its neighbors in any qualifying S are
    among them.
  - w in W is outside N[v], so its path to v inside S runs through S & F
    (diameter 2): w needs at least one neighbor in the surviving F.  For
    gamma > 1/2 it needs two.  Take a qualifying S with a members in
    N(v) and b members outside N[v].  Then a >= t(k) >= gamma(a + b), so
    b <= a(1 - gamma)/gamma.  w needs at least gamma(a + b) neighbors in
    S, of which at most b - 1 lie outside N(v); so it has at least
    gamma(a + b) - (b - 1) >= 1 + a(2 gamma - 1)/gamma > 1 neighbors in
    S & N(v).
Only the surviving W is pulled; if fewer than m vertices of F survive,
v has too few possible neighbors and the task ends without a pull.

Enumeration bounds.  The search grows S from {v} by candidates C in id
order, peeling C by degree into S | C at each step, and adds:
  - Diameter 2: every member of a qualifying S is within 2 hops of every
    other inside S, hence inside the ego network.  Adding a member i
    intersects C with rows2[i], the vertices at most 2 hops from i.
  - Size bound: a member with d neighbors in S | C has at most d
    neighbors in any qualifying T with S <= T <= S | C, and needs
    ceil(gamma(|T| - 1)) of them, so |T| <= floor(d / gamma) + 1.  The
    branch is cut when that bound falls below max(min_size, |S|).
  - Lower bound (a simple form of the one in Liu & Wong's Quick): a
    member with i neighbors in S gains at most a neighbors when a
    vertices join, so a qualifying T of size |S| + a needs
    i + a >= gamma(|S| + a - 1), that is a >= (gamma(|S| - 1) - i) /
    (1 - gamma).  If that least a exceeds the member's neighbors in C,
    or gamma = 1 and i < |S| - 1, no T exists.  Otherwise every T has at
    least |S| + a members, so candidates face the threshold of that size;
    the peel and the bound repeat until it stops rising, and the branch
    is cut when it passes the size bound.

Thresholds are computed in exact integer arithmetic from a Fraction, so
gamma = 0.6 means 3/5, not a float approximation; the hot loops compare
only integers.
"""

from bisect import bisect_right
from fractions import Fraction

from ..engine import SUM_AGGREGATOR, AppSpec, Task
from ..graph import larger_neighbor_ids
from .cliques import _bits, _ego_rows


def _as_fraction(gamma):
    if isinstance(gamma, float):
        # treat the literal the way the user wrote it, not its binary blur
        gamma = str(gamma)
    return Fraction(gamma)


def quasi_clique_app(gamma, min_size) -> AppSpec:
    gamma = _as_fraction(gamma)
    if not Fraction(1, 2) <= gamma <= 1:
        raise ValueError(f"gamma must be in [1/2, 1], got {gamma}")
    min_size = int(min_size)
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    num, den = gamma.numerator, gamma.denominator

    def threshold(k):
        # ceil(gamma * (k - 1)), exactly
        return (num * (k - 1) + den - 1) // den

    need_min = threshold(min_size)
    # F-neighbors a 2-hop vertex needs (the lemma above)
    need_hop2 = 2 if 2 * num > den else 1

    def seed(v):
        gt = larger_neighbor_ids(v)
        if len(gt) < need_min:
            return []
        return [Task(v.id, pulls=gt)]

    def compute(task, frontier):
        g = task.subgraph
        if task.iteration == 0:
            hop2 = _peel(g, task.seed_id, frontier)
            if hop2 is None:
                return False
            if hop2:
                for w in sorted(hop2):
                    task.pull(w)
                return True
        else:
            for w in frontier:
                for x in w.neighbor_ids():
                    if x in g:
                        g.add_edge(w.id, x)
        _enumerate(task)
        return False

    def _peel(g, v, frontier):
        """Peel F and W to a fixpoint and record the survivors and the
        edges among them in g.  Returns the surviving W, or None when
        fewer than need_min of F survive."""
        up = {}       # f -> its neighbors above v, all in F | W
        deg = {}      # f -> its neighbors in {v} | F | W still standing
        for f in frontier:
            ids = f.neighbor_ids()
            above = ids[bisect_right(ids, v):]
            up[f.id] = above
            deg[f.id] = len(above) + 1
        hop2 = {}     # w -> its neighbors in F
        for f, above in up.items():
            for x in above:
                if x not in up:
                    hop2.setdefault(x, []).append(f)
        links = {w: len(fs) for w, fs in hop2.items()}  # how many still stand
        # A vertex is queued once, when its count first drops below need.
        drop_f = [f for f, d in deg.items() if d < need_min]
        drop_w = [w for w, c in links.items() if c < need_hop2]
        while drop_f or drop_w:
            while drop_f:
                f = drop_f.pop()
                del deg[f]
                for x in up[f]:
                    if x in deg:
                        deg[x] -= 1
                        if deg[x] == need_min - 1:
                            drop_f.append(x)
                    elif x in links:
                        links[x] -= 1
                        if links[x] == need_hop2 - 1:
                            drop_w.append(x)
            while drop_w:
                w = drop_w.pop()
                del links[w]
                for f in hop2[w]:
                    if f in deg:
                        deg[f] -= 1
                        if deg[f] == need_min - 1:
                            drop_f.append(f)
        if len(deg) < need_min:
            return None
        g.add_vertex(v)
        for f in deg:
            g.add_vertex(f)
            g.add_edge(v, f)
        for w in links:
            g.add_vertex(w)
        for f in deg:
            for x in up[f]:
                if x in g:
                    g.add_edge(f, x)
        return links

    def _enumerate(task):
        g = task.subgraph
        universe = g.vertices_sorted()  # seed first: everything else is larger
        n = len(universe)
        rows = _ego_rows(universe, g.adj.items())
        rows2 = []    # vertices within 2 hops
        for r in rows:
            r2 = r
            for b in _bits(r):
                r2 |= rows[b]
            rows2.append(r2)
        thr = [threshold(k) for k in range(max(n, min_size) + 2)]
        found = 0

        def dfs(s_idxs, s_mask, cand):
            nonlocal found
            c_mask = 0
            for c in cand:
                c_mask |= 1 << c
            k = len(s_idxs)
            low = max(min_size, k + 1)  # least size of a set a candidate joins
            while True:
                # Degree filter: a candidate whose degree into S | C cannot
                # reach the threshold of the smallest final size never joins.
                need_c = thr[low]
                while True:
                    keep = []
                    kept_mask = 0
                    for c in cand:
                        if (rows[c] & (s_mask | c_mask)).bit_count() >= need_c:
                            keep.append(c)
                            kept_mask |= 1 << c
                    if len(keep) == len(cand):
                        break
                    cand, c_mask = keep, kept_mask
                # Size bound from the member with the fewest neighbors in S | C.
                reach = s_mask | c_mask
                d = min((rows[s] & reach).bit_count() for s in s_idxs)
                bound = d * den // num + 1
                if bound < max(min_size, k):
                    return
                # Lower bound: the members short of their threshold in S.
                least = k
                for s in s_idxs:
                    short = num * (k - 1) - den * (rows[s] & s_mask).bit_count()
                    if short > 0:
                        if num == den:
                            return
                        add = -(-short // (den - num))
                        if add > (rows[s] & c_mask).bit_count():
                            return
                        least = max(least, k + add)
                if least > bound:
                    return
                if least <= low:
                    break
                low = least
            if k >= min_size:
                t = thr[k]
                if all((rows[s] & s_mask).bit_count() >= t for s in s_idxs):
                    found += 1
                    task.emit(" ".join(str(universe[i]) for i in s_idxs))
            for pos, c in enumerate(cand):
                r2 = rows2[c]
                dfs(s_idxs + [c], s_mask | (1 << c),
                    [x for x in cand[pos + 1:] if r2 >> x & 1])

        dfs([0], 1, list(range(1, n)))
        task.aggregate(found)

    return AppSpec(
        name="quasiclique",
        seed=seed,
        compute=compute,
        aggregator=SUM_AGGREGATOR,
    )
