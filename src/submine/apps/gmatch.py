"""Labeled subgraph matching.

A matching of a query graph q in the data graph maps each query vertex
to a distinct data vertex with the same label such that every query edge
has a data edge between the mapped endpoints.  Results are assignment
tuples in query-id order.  Each is emitted once: by the task seeded at
the data vertex that plays the query's start vertex, whose search pins
the start there.

Data graphs must carry each neighbor's label as its adjacency attribute;
candidates are filtered by those labels, and responders drop adjacency
items whose label the query never uses.

One pipeline serves every query, in BFS order from the start:

* Plan, once per query: each query vertex's BFS level and its later
  neighbors (those after it in BFS order).  Only a query vertex with a
  later neighbor is expanded, i.e. has its candidates pulled, so each
  query edge is found from its earlier endpoint.
* Expansion.  The seed expands level 0 from its own adjacency, and
  iteration k the pulled level-(k+1) candidates.  Expanding data vertex
  x as query vertex u records, for each later neighbor w of u, x's
  neighbors labeled like w (on u's own level, only those already
  recorded) as w's candidates, with their edges to x, and pulls them if
  w is expanded.
* Prune.  An x with no candidate for some later neighbor of u records
  nothing for u.  So a seed that lacks one makes no task, and a task
  ends once an expanded query vertex of its level has no candidate.
* Enumeration.  With nothing left to pull, a backtracking search in BFS
  order runs over the recorded subgraph, which by then holds every edge
  of every matching at the seed.
"""

from ..engine import SUM_AGGREGATOR, AppSpec, Task
from ..graph import GraphParseError, Subgraph, Vertex, parse_vertex_line


class QueryGraph:
    """A small connected labeled pattern with a designated start vertex.

    If no start is given, a uniquely a-labeled vertex is preferred, then
    the smallest id.  `level` maps each query vertex to its BFS distance
    from the start.  Raises ValueError on malformed input (empty query,
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
        self.level = {start: 0}
        queue = [start]
        for u in queue:
            for w in sorted(self.adj[u]):
                if w not in self.level:
                    self.level[w] = self.level[u] + 1
                    queue.append(w)
        if len(self.level) != len(self.labels):
            raise ValueError("query graph must be connected")

    def bfs_order(self):
        return sorted(self.level, key=lambda q: (self.level[q], q))

    def label_set(self):
        return set(self.labels.values())


def parse_query_file(path) -> QueryGraph:
    """Read a query in the usual vertex-line format.

    A comment line "# start: ID" designates the start vertex; everything
    else is ordinary "id<TAB>label<TAB>adjacency" lines (neighbor attrs
    are ignored here, adjacency alone defines the edges).  Errors are
    GraphParseErrors that name the file and, where there is one, the
    line.
    """
    labels = {}
    edges = []
    start = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith("#"):
                    body = stripped[1:].strip()
                    if body.lower().startswith("start:"):
                        tok = body.split(":", 1)[1].strip()
                        try:
                            start = int(tok)
                        except ValueError:
                            raise GraphParseError(
                                f"line {lineno}: bad start vertex {tok!r}") from None
                    continue
                v = parse_vertex_line(line, lineno=lineno)
                if v.id in labels:
                    raise GraphParseError(
                        f"line {lineno}: duplicate vertex id {v.id}")
                labels[v.id] = v.label
                edges.extend((v.id, nb) for nb in v.neighbor_ids())
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


def _neighbors_by_label(v: Vertex):
    """v's neighbor ids grouped by their label attribute."""
    ids, attrs = v.neighbor_ids(), v.neighbor_attrs()
    if ids and (attrs is None or None in attrs):
        raise ValueError(
            f"gmatch needs neighbor labels on adjacency items; "
            f"vertex {v.id} lacks one"
        )
    groups = {}
    for nb, lab in zip(ids, attrs or ()):
        groups.setdefault(lab, []).append(nb)
    return groups


def gmatch_app(query: QueryGraph) -> AppSpec:
    labels, level, start = query.labels, query.level, query.start
    order = query.bfs_order()
    pos = {q: i for i, q in enumerate(order)}
    later = {q: [w for w in sorted(query.adj[q]) if pos[w] > pos[q]]
             for q in order}
    # level -> label -> the expanded query vertices there
    expanded = {}
    for q in filter(later.get, order):
        expanded.setdefault(level[q], {}).setdefault(labels[q], []).append(q)
    # backtracking steps after the start: a query vertex, its label, the
    # earlier neighbor whose neighbors are its candidates, and the others
    steps = []
    for q in order[1:]:
        placed = [r for r in sorted(query.adj[q]) if pos[r] < pos[q]]
        steps.append((q, labels[q], placed[0], placed[1:]))
    qids = sorted(labels)
    keep = query.label_set() | {None}  # None: let the puller see it is missing

    def expand(x, u, g, pulls):
        """Record data vertex x's candidates for query vertex u's later
        neighbors, those to expand next also in `pulls`; False, recording
        nothing, if one of those neighbors has no candidate."""
        groups = _neighbors_by_label(x)
        found = []
        for w in later[u]:
            cands = groups.get(labels[w], ())
            if level[w] == level[u]:
                cands = [y for y in cands if y in g]
            if not cands:
                return False
            found.append((w, cands))
        for w, cands in found:
            for y in cands:
                g.add_vertex(y, labels[w])
                g.add_edge(x.id, y)
            if later[w] and level[w] > level[u]:
                pulls += cands
        return True

    def matchings(g, anchor):
        assign = {start: anchor}
        used = {anchor}
        results = []

        def bt(i):
            if i == len(steps):
                results.append(tuple(assign[q] for q in qids))
                return
            qv, want, base, others = steps[i]
            for cand in g.neighbors(assign[base]):
                if cand in used or g.labels[cand] != want:
                    continue
                if any(not g.has_edge(cand, assign[r]) for r in others):
                    continue
                assign[qv] = cand
                used.add(cand)
                bt(i + 1)
                del assign[qv]
                used.discard(cand)

        bt(0)
        return results

    def seed(v):
        if v.label != labels[start]:
            return []
        g = Subgraph()
        g.add_vertex(v.id, v.label)
        pulls = []
        if not expand(v, start, g, pulls):
            return []
        return [Task(v.id, subgraph=g, pulls=pulls)]

    def compute(task, frontier):
        g = task.subgraph
        roles = expanded.get(task.iteration + 1, {})
        alive = set()
        pulls = []
        for f in frontier:
            for u in roles.get(f.label, ()):
                if expand(f, u, g, pulls):
                    alive.add(u)
        if len(alive) < sum(map(len, roles.values())):
            return False  # an expanded query vertex has no candidate left
        if pulls:
            for w in pulls:
                task.pull(w)
            return True
        found = matchings(g, task.seed_id)
        for m in sorted(found):
            task.emit(" ".join(map(str, m)))
        task.aggregate(len(found))
        return False

    def respond(v):
        ids, attrs = v.neighbor_ids(), v.neighbor_attrs()
        if attrs is None:
            return None
        kept = [i for i, lab in enumerate(attrs) if lab in keep]
        return Vertex.from_ids(v.id, v.label, [ids[i] for i in kept],
                               [attrs[i] for i in kept])

    return AppSpec(
        name="gmatch",
        seed=seed,
        compute=compute,
        respond=respond,
        aggregator=SUM_AGGREGATOR,
    )
