"""Labeled subgraph matching.

A matching of a query graph q in the data graph maps each query vertex
to a distinct data vertex with the same label such that every query edge
has a data edge between the mapped endpoints.  Results are assignment
tuples in query-id order, emitted by the task seeded at the data vertex
that plays the query's start vertex — each assignment has exactly one
such vertex, so nothing is ever found twice.

Data graphs for this app must carry neighbor labels as adjacency
attributes ("nb:label" items); seeds and pulls are filtered by those
labels, and responders drop adjacency items whose label the query never
uses.

Two pipelines share the enumeration code:

* a hand-specialized one for the five-vertex bowtie-with-tail query
  (labels a,c,b,b,d) that mirrors the classic two-round case analysis:
  seed at a-labeled vertices with both b- and c-labeled neighbors, then
  per c-candidate v_c classify U1 = b-neighbors of both the seed and
  v_c, U2 = b-neighbors of v_c only, prune hopeless v_c early, and pull
  only what the surviving cases need before the final in-memory
  backtracking;
* a generic fallback that grows the label-filtered k-hop ego network
  around the seed (k = query eccentricity from the start vertex) and
  backtracks over it.
"""

from collections import deque

from ..engine import (
    AggregatorSpec,
    AppSpec,
    Task,
    decode_no_context,
    encode_no_context,
)
from ..graph import GraphParseError, Vertex, parse_vertex_line


class QueryGraph:
    """A small connected labeled pattern with a designated start vertex.

    If no start is given, a uniquely a-labeled vertex is preferred, then
    the smallest id.  Raises ValueError on malformed input (empty query,
    dangling edge, disconnected pattern, unknown start).
    """

    def __init__(self, labels, edges, start=None):
        if not labels:
            raise ValueError("query has no vertices")
        self.labels = dict(labels)
        for qid, lab in self.labels.items():
            if lab is None:
                raise ValueError(f"query vertex {qid} has no label")
        self.adj = {qid: set() for qid in self.labels}
        for a, b in edges:
            if a not in self.labels or b not in self.labels:
                raise ValueError(f"query edge ({a}, {b}) references unknown vertex")
            if a == b:
                raise ValueError(f"query self-loop at {a}")
            self.adj[a].add(b)
            self.adj[b].add(a)
        if start is None:
            a_labeled = [q for q, lab in sorted(self.labels.items()) if lab == "a"]
            start = a_labeled[0] if len(a_labeled) == 1 else min(self.labels)
        if start not in self.labels:
            raise ValueError(f"start vertex {start} not in query")
        self.start = start
        if len(self._bfs_levels(start)) != len(self.labels):
            raise ValueError("query graph must be connected")

    def _bfs_levels(self, src):
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for w in sorted(self.adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def eccentricity_from_start(self):
        return max(self._bfs_levels(self.start).values())

    def bfs_order(self):
        dist = self._bfs_levels(self.start)
        return sorted(dist, key=lambda q: (dist[q], q))

    def label_set(self):
        return set(self.labels.values())


def parse_query_file(path) -> QueryGraph:
    """Read a query in the usual vertex-line format.

    A comment line "# start: ID" designates the start vertex; everything
    else is ordinary "id<TAB>label<TAB>adjacency" lines (neighbor attrs
    are ignored here, adjacency alone defines the edges).
    """
    labels = {}
    edges = []
    start = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped[1:].strip()
                if body.lower().startswith("start:"):
                    start = int(body.split(":", 1)[1].strip())
                continue
            v = parse_vertex_line(line, lineno=lineno)
            labels[v.id] = v.label
            for a in v.adj:
                edges.append((v.id, a.nb))
    try:
        return QueryGraph(labels, edges, start=start)
    except ValueError as e:
        raise GraphParseError(f"{path}: {e}") from None


def fig4_query() -> QueryGraph:
    """The bowtie-with-tail benchmark query: a–c, a–b1, c–b1, c–b2, b2–d."""
    return QueryGraph(
        {1: "a", 2: "c", 3: "b", 4: "b", 5: "d"},
        [(1, 2), (1, 3), (2, 3), (2, 4), (4, 5)],
        start=1,
    )


def _bowtie_roles(q: QueryGraph):
    """Return role map {a, c, b1, b2, d} if q is the bowtie-with-tail
    pattern anchored at its a vertex, else None."""
    if len(q.labels) != 5 or sorted(q.labels.values()) != ["a", "b", "b", "c", "d"]:
        return None
    by_label = {}
    for qid, lab in q.labels.items():
        by_label.setdefault(lab, []).append(qid)
    a, c, d = by_label["a"][0], by_label["c"][0], by_label["d"][0]
    if q.start != a:
        return None
    b2 = next((b for b in by_label["b"] if d in q.adj[b]), None)
    if b2 is None:
        return None
    b1 = next(b for b in by_label["b"] if b != b2)
    want = {
        a: {c, b1},
        c: {a, b1, b2},
        b1: {a, c},
        b2: {c, d},
        d: {b2},
    }
    if q.adj != want:
        return None
    return {"a": a, "c": c, "b1": b1, "b2": b2, "d": d}


def _labeled_items(v: Vertex, app_name):
    for it in v.adj:
        if it.attr is None:
            raise ValueError(
                f"{app_name} needs neighbor labels on adjacency items; "
                f"vertex {v.id} lacks one for neighbor {it.nb}"
            )
        yield it


def _enumerate_matchings(query: QueryGraph, g, anchor_data_id):
    """All injective label- and edge-consistent assignments over the
    recorded subgraph g, with the query start pinned to the anchor.
    Returns tuples in ascending query-id order."""
    if anchor_data_id not in g:
        return []
    order = query.bfs_order()
    qids = sorted(query.labels)
    assign = {order[0]: anchor_data_id}
    used = {anchor_data_id}
    results = []

    def bt(pos):
        if pos == len(order):
            results.append(tuple(assign[q] for q in qids))
            return
        qv = order[pos]
        placed = [r for r in sorted(query.adj[qv]) if r in assign]
        base = assign[placed[0]]
        want = query.labels[qv]
        for cand in sorted(g.neighbors(base)):
            if cand in used or g.labels.get(cand) != want:
                continue
            if any(not g.has_edge(cand, assign[r]) for r in placed[1:]):
                continue
            assign[qv] = cand
            used.add(cand)
            bt(pos + 1)
            del assign[qv]
            used.discard(cand)

    bt(1)
    return results


def gmatch_app(query: QueryGraph) -> AppSpec:
    qlabels = query.label_set()
    roles = _bowtie_roles(query)

    def respond(v):
        kept = [it for it in v.adj if it.attr in qlabels]
        return Vertex(v.id, v.label, kept)

    def finish(task, g):
        matchings = _enumerate_matchings(query, g, task.seed_id)
        for m in sorted(matchings):
            task.emit(" ".join(map(str, m)))
        task.aggregate(len(matchings))
        return False

    if roles is not None:
        start_label = "a"

        def seed(v):
            if v.label != start_label:
                return []
            bs = []
            cs = []
            for it in _labeled_items(v, "gmatch"):
                if it.attr == "b":
                    bs.append(it.nb)
                elif it.attr == "c":
                    cs.append(it.nb)
            if not bs or not cs:
                return []
            return [Task(v.id, pulls=sorted(set(bs) | set(cs)))]

        def compute(task, frontier):
            g = task.subgraph
            if task.iteration == 0:
                va = task.seed_id
                vb_ids = {f.id for f in frontier if f.label == "b"}
                pulls = set()
                alive = False
                for vc in frontier:
                    if vc.label != "c":
                        continue
                    u1 = []
                    u2 = []
                    for it in _labeled_items(vc, "gmatch"):
                        if it.attr != "b":
                            continue
                        (u1 if it.nb in vb_ids else u2).append(it.nb)
                    if not u1 or (len(u1) == 1 and not u2):
                        continue  # this c-candidate cannot complete a match
                    alive = True
                    g.add_vertex(va, "a")
                    g.add_vertex(vc.id, "c")
                    g.add_edge(va, vc.id)
                    for b in u1:
                        g.add_vertex(b, "b")
                        g.add_edge(va, b)
                        g.add_edge(vc.id, b)
                    for b in u2:
                        g.add_vertex(b, "b")
                        g.add_edge(vc.id, b)
                    if len(u1) == 1:
                        pulls.update(u2)      # the lone u1 vertex is spoken for
                    else:
                        pulls.update(u1)
                        pulls.update(u2)
                if not alive:
                    return False
                for w in sorted(pulls):
                    task.pull(w)
                return True
            for f in frontier:
                for it in _labeled_items(f, "gmatch"):
                    if it.attr == "d":
                        g.add_vertex(it.nb, "d")
                        g.add_edge(f.id, it.nb)
            return finish(task, g)

    else:
        start_label = query.labels[query.start]
        radius = query.eccentricity_from_start()

        def seed(v):
            if v.label != start_label:
                return []
            # pulling itself gives compute the seed's own adjacency
            return [Task(v.id, pulls=[v.id])]

        def compute(task, frontier):
            g = task.subgraph
            level = task.iteration
            for f in frontier:
                g.add_vertex(f.id, f.label)
            grown = set()
            for f in frontier:
                for it in _labeled_items(f, "gmatch"):
                    if it.attr not in qlabels:
                        continue
                    if it.nb not in g:
                        if level >= radius:
                            continue
                        g.add_vertex(it.nb, it.attr)
                        grown.add(it.nb)
                    g.add_edge(f.id, it.nb)
            if grown:
                for w in sorted(grown):
                    task.pull(w)
                return True
            return finish(task, g)

    return AppSpec(
        name="gmatch",
        seed=seed,
        compute=compute,
        encode_context=encode_no_context,
        decode_context=decode_no_context,
        respond=respond,
        aggregator=AggregatorSpec(zero=int, merge=lambda a, b: a + b),
    )
