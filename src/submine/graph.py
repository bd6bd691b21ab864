"""Graph data model: vertices with sorted adjacency lists, the text input
format, and deterministic hash partitioning of vertices across workers.

The canonical input format is one vertex per line, three tab-separated
fields:

    vid <TAB> label <TAB> nb1[:attr1] nb2[:attr2] ...

The label field may be empty, and holds no tab or line break.  Neighbor
attributes are short opaque strings without whitespace; by convention in
labeled graphs the first character of an attribute is the neighbor's
vertex label (apps that match on labels rely on this).  write_graph
refuses a vertex whose line would not read back as that vertex.
Adjacency lists are sorted by neighbor id at load; duplicate neighbors
and self-loops are rejected.  A vertex holds its sorted neighbor ids
plus a parallel attribute list that is None whenever no neighbor
carries an attribute (see Vertex), so an attribute-free line loads as
one plain id list.
"""

import hashlib
import io
from bisect import bisect_right
from itertools import chain, islice, repeat
from operator import lt
from typing import NamedTuple, Optional

from .kernels import edges_symmetric, mix64, parse_id_lines
from .kernels.pure import MASK64


class GraphParseError(ValueError):
    """Malformed input text (bad field, bad neighbor token, duplicate)."""


class GraphDataError(ValueError):
    """Structurally invalid graph (dangling edge, asymmetry, self-loop)."""


class AdjItem(NamedTuple):
    nb: int
    attr: Optional[str] = None


class Vertex:
    """A vertex: its id, its label and its adjacency, held as the sorted
    list of neighbor ids plus a parallel list of neighbor attributes.
    The attribute list is None whenever no neighbor carries an
    attribute, so each vertex has exactly one representation and
    equality is a plain compare.

    `Vertex(vid, label, adj)` splits a sorted list of `AdjItem`s into
    the two lists; `Vertex.from_ids` takes them as they are.  `adj` is
    a view built on each read, for callers that want (id, attribute)
    pairs.

    Treated as immutable once a graph is loaded; workers may share Vertex
    objects freely between tasks.  The id lists the compiled loader
    builds are not tracked by the cyclic garbage collector, which is
    sound only while they hold nothing but ints.  Responders may build
    pruned copies (shorter adjacency) to answer pull requests, so code
    receiving a pulled vertex must not assume its list is the full
    neighborhood.
    """

    __slots__ = ("id", "label", "_ids", "_attrs")

    def __init__(self, vid, label=None, adj=()):
        self._set(vid, label, [a.nb for a in adj], [a.attr for a in adj])

    @classmethod
    def from_ids(cls, vid, label, ids, attrs=None):
        """A vertex from its sorted neighbor id list and, optionally, the
        parallel attribute list (dropped when it holds only None)."""
        v = cls.__new__(cls)
        v._set(vid, label, ids, attrs)
        return v

    def _set(self, vid, label, ids, attrs):
        self.id = vid
        self.label = label
        self._ids = ids
        if attrs is not None and attrs.count(None) == len(attrs):
            attrs = None
        self._attrs = attrs

    @property
    def adj(self):
        return list(map(AdjItem, self._ids, self._attrs or repeat(None)))

    def neighbor_ids(self):
        """Neighbor ids in ascending order (the stored list)."""
        return self._ids

    def neighbor_attrs(self):
        """Neighbor attributes in adjacency order, or None when no
        neighbor carries one."""
        return self._attrs

    @property
    def degree(self):
        return len(self._ids)

    def __eq__(self, other):
        return isinstance(other, Vertex) and (
            (self.id, self.label, self._ids, self._attrs)
            == (other.id, other.label, other._ids, other._attrs))

    def __repr__(self):
        lab = f" {self.label!r}" if self.label else ""
        return f"<Vertex {self.id}{lab} deg={self.degree}>"


def larger_neighbor_ids(v: Vertex) -> list:
    """The ids in v's adjacency that are greater than v.id, ascending.

    Because adjacency is sorted this is a contiguous slice.  It is the
    candidate set a seed task expands: restricting expansion to larger
    ids is what makes every subgraph get mined exactly once, by the task
    seeded at its minimum vertex.
    """
    ids = v.neighbor_ids()
    return ids[bisect_right(ids, v.id):]


def smaller_neighbor_ids(v: Vertex) -> list:
    """The ids in v's adjacency that are less than v.id, ascending: the
    slice `larger_neighbor_ids` leaves out."""
    ids = v.neighbor_ids()
    return ids[:bisect_right(ids, v.id)]


def respond_larger(v: Vertex) -> Vertex:
    """A respond hook: a copy of v holding only its larger neighbors,
    for apps that never look below a pulled vertex's own id."""
    ids, attrs = v.neighbor_ids(), v.neighbor_attrs()
    k = bisect_right(ids, v.id)
    return Vertex.from_ids(v.id, v.label, ids[k:], attrs and attrs[k:])


def respond_smaller(v: Vertex) -> Vertex:
    """A respond hook: a copy of v holding only its smaller neighbors,
    for apps that never look above a pulled vertex's own id."""
    ids, attrs = v.neighbor_ids(), v.neighbor_attrs()
    k = bisect_right(ids, v.id)
    return Vertex.from_ids(v.id, v.label, ids[:k], attrs and attrs[:k])


def partition_owner(vid: int, num_workers: int) -> int:
    """Worker that owns vertex `vid` (deterministic multiplicative hash)."""
    return mix64(vid) % num_workers


def parse_vertex_line(line: str, lineno=None) -> Vertex:
    """Parse one canonical text line into a Vertex.

    Raises GraphParseError naming the line number (when given) for any
    malformed field, id outside 0..2**64-1, duplicate neighbor, or
    self-loop.
    """

    def fail(msg):
        where = f"line {lineno}: " if lineno is not None else ""
        raise GraphParseError(f"{where}{msg}")

    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        fail(f"expected 3 tab-separated fields, got {len(parts)}")
    try:
        vid = int(parts[0])
    except ValueError:
        fail(f"bad vertex id {parts[0]!r}")
    if vid < 0:
        fail(f"negative vertex id {vid}")
    if vid > MASK64:
        fail(f"vertex id {vid} does not fit in 64 bits")
    label = parts[1] or None
    adj = []
    seen = set()
    for tok in parts[2].split():
        nb_s, _, attr = tok.partition(":")
        try:
            nb = int(nb_s)
        except ValueError:
            fail(f"bad neighbor token {tok!r}")
        if nb < 0:
            fail(f"negative neighbor id {nb}")
        if nb == vid:
            fail(f"self-loop on vertex {vid}")
        if nb in seen:
            fail(f"duplicate neighbor {nb} of vertex {vid}")
        seen.add(nb)
        adj.append(AdjItem(nb, attr or None))
    adj.sort()
    if adj and adj[-1].nb > MASK64:
        fail(f"neighbor id {adj[-1].nb} does not fit in 64 bits")
    return Vertex(vid, label, adj)


def format_vertex_line(v: Vertex) -> str:
    """The canonical text line of v, without its newline.

    Raises GraphDataError, naming the vertex, when the line would not
    read back as v: a label holding a tab or a line break, or a neighbor
    attribute that is empty or holds whitespace.
    """
    label = v.label or ""
    if "\t" in label or "\n" in label or "\r" in label:
        raise GraphDataError(
            f"vertex {v.id}: label {label!r} holds a tab or a line break")
    attrs = v.neighbor_attrs()
    if attrs is None:
        toks = map(str, v.neighbor_ids())
    else:
        toks = []
        for nb, a in zip(v.neighbor_ids(), attrs):
            if a is None:
                toks.append(str(nb))
            elif a.split() == [a]:
                toks.append(f"{nb}:{a}")
            else:
                raise GraphDataError(
                    f"vertex {v.id}: attribute {a!r} of neighbor {nb} is "
                    f"empty or holds whitespace")
    return f"{v.id}\t{label}\t{' '.join(toks)}"


class Graph:
    """An in-memory vertex table plus derived stats."""

    def __init__(self, vertices=None):
        self.vertices = dict(vertices) if vertices else {}

    @property
    def num_vertices(self):
        return len(self.vertices)

    def add(self, v: Vertex):
        if v.id in self.vertices:
            raise GraphDataError(f"duplicate vertex id {v.id}")
        self.vertices[v.id] = v

    def ids(self):
        return sorted(self.vertices)

    def __contains__(self, vid):
        return vid in self.vertices

    def __getitem__(self, vid):
        return self.vertices[vid]

    def __iter__(self):
        return iter(self.vertices.values())

    def __len__(self):
        return len(self.vertices)


def read_graph(path) -> Graph:
    """Load a graph from canonical text; see read_graph_sha256."""
    return read_graph_sha256(path)[0]


class _Sha256Reader(io.RawIOBase):
    """A raw binary reader that hashes every byte read through it."""

    def __init__(self, raw):
        self._raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self):
        return True

    def readinto(self, buf):
        n = self._raw.readinto(buf)
        if n:
            self.sha256.update(memoryview(buf)[:n])
        return n


def read_graph_sha256(path):
    """Load a graph from canonical text, and the SHA-256 hex digest of the
    bytes it parsed.  The file is opened once: it is hashed as it is read.

    Duplicate vertex ids across lines are an error, and every neighbor
    id must itself appear as a vertex line (dangling references would
    otherwise surface later as protocol errors between workers).  A file
    that is not UTF-8 is rejected as such, whatever else is wrong with
    it; otherwise every error names the file and the line, and it is the
    first error in file order.

    One kernel call (kernels.parse_id_lines), fed the text in pieces of
    whole lines, parses every line without attributes whose ids are
    plain ASCII digits; on the compiled backend, equal ids in the loaded
    graph are one shared int object.  Every other line goes through
    parse_vertex_line, in file order, and is dropped once parsed.
    """
    with open(path, "rb", buffering=0) as raw:
        hashing = _Sha256Reader(raw)
        text = io.TextIOWrapper(io.BufferedReader(hashing, 1 << 16),
                                encoding="utf-8")
        try:
            vids, labels, rows, slow, missing = parse_id_lines(
                _pieces(text))
        except UnicodeDecodeError as e:
            raise GraphParseError(f"{path}: not UTF-8 text: {e.reason}") from None
    g = Graph()
    vertices = g.vertices
    slow_vertices = []
    at = 0
    slow.reverse()
    while slow:
        lineno, line, k = slow.pop()
        _add_rows(path, vertices, vids[at:k], labels[at:k], rows[at:k])
        at = k
        try:
            v = parse_vertex_line(line, lineno)
        except GraphParseError as e:
            raise GraphParseError(f"{path}: {e}") from None
        if v.id in vertices:
            raise GraphParseError(
                f"{path}: line {lineno}: duplicate vertex id {v.id}")
        vertices[v.id] = v
        slow_vertices.append(v)
    if at:
        vids, labels, rows = vids[at:], labels[at:], rows[at:]
    _add_rows(path, vertices, vids, labels, rows)
    contains = vertices.__contains__
    slow_nbs = chain.from_iterable(v.neighbor_ids() for v in slow_vertices)
    if not (all(map(contains, missing)) and all(map(contains, slow_nbs))):
        _raise_dangling(path, vertices)
    return g, hashing.sha256.hexdigest()


PIECE_CHARS = 1 << 16


def _pieces(text):
    """The text of a file in pieces of whole lines, about PIECE_CHARS
    characters each, so that the whole text is never held at once."""
    while piece := text.read(PIECE_CHARS):
        yield piece + text.readline()


def _add_rows(path, vertices, vids, labels, rows):
    """Add the vertices of rows from parse_id_lines that follow the
    len(vertices) vertex lines read so far; a repeated id is an error
    that names the first line holding one."""
    before = len(vertices)
    vertices.update(zip(vids, map(Vertex.from_ids, vids, labels, rows)))
    if len(vertices) - before != len(vids):
        seen = set(islice(vertices, before))  # the ids defined before
        for j, vid in enumerate(vids):
            if vid in seen:
                raise GraphParseError(
                    f"{path}: line {_vertex_lineno(path, before + j)}: "
                    f"duplicate vertex id {vid}")
            seen.add(vid)


def _raise_dangling(path, vertices):
    """Name the first vertex, in file order, with a neighbor that is not
    a vertex, and its smallest such neighbor."""
    for index, v in enumerate(vertices.values()):
        for nb in v.neighbor_ids():
            if nb not in vertices:
                raise GraphDataError(
                    f"{path}: line {_vertex_lineno(path, index)}: vertex "
                    f"{v.id} references missing vertex {nb}")


def _vertex_lineno(path, index):
    """The number of the line holding the file's vertex line number
    `index` (from 0); a second read of the file, made only to word an
    error."""
    with open(path, encoding="utf-8") as fh:
        linenos = (lineno for lineno, line in enumerate(fh, 1)
                   if not (line.isspace() or line.startswith("#")))
        return next(islice(linenos, index, None))


def write_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        for vid in g.ids():
            fh.write(format_vertex_line(g[vid]))
            fh.write("\n")


def check_undirected(g: Graph):
    """Verify that every id fits the codec's unsigned 64-bit fields,
    that every neighbor list is strictly ascending with no self-loop,
    that every neighbor is a vertex, and that every edge has its
    reverse.  Graphs built in code reach here without the parser's
    checks.

    A fast pass (kernels.edges_symmetric) answers yes or no; when
    anything is wrong the full per-edge scan runs and names the first
    offending vertex or edge.
    """
    ids = g.ids()
    rows = list(map(Vertex.neighbor_ids, map(g.vertices.__getitem__, ids)))
    if not edges_symmetric(ids, rows):
        _check_every_edge(g)


def _check_every_edge(g: Graph):
    for v in g:
        ids = v.neighbor_ids()
        if v.id in ids:
            raise GraphDataError(f"vertex {v.id} has a self-loop")
        if not all(map(lt, ids, islice(ids, 1, None))):
            raise GraphDataError(
                f"neighbor ids of vertex {v.id} are not strictly ascending")
    for v in g:
        if not 0 <= v.id <= MASK64:
            raise GraphDataError(f"vertex id {v.id} does not fit in 64 bits")
        for nb in v.neighbor_ids():
            w = g.vertices.get(nb)
            if w is None:
                raise GraphDataError(f"vertex {v.id} references missing {nb}")
            ids = w.neighbor_ids()
            k = bisect_right(ids, v.id) - 1
            if k < 0 or ids[k] != v.id:
                raise GraphDataError(
                    f"edge ({v.id},{nb}) is not symmetric"
                )


def partition_graph(g: Graph, num_workers: int):
    """Split the vertex table into per-worker local tables by owner hash."""
    tables = [dict() for _ in range(num_workers)]
    for vid, v in g.vertices.items():
        tables[partition_owner(vid, num_workers)][vid] = v
    return tables


class Subgraph:
    """A growable task-local subgraph: a label per vertex (None when
    unknown) and, per vertex, the set of its neighbor ids.

    Adjacency here may be a filtered subset of the global graph's (tasks
    record only the edges they have witnessed), so membership checks are
    one-sided: an absent edge means "not recorded", not "not in G".
    """

    __slots__ = ("labels", "adj")

    def __init__(self):
        self.labels = {}
        self.adj = {}

    def add_vertex(self, vid, label=None):
        if vid not in self.labels:
            self.labels[vid] = label
            self.adj[vid] = set()
        elif label is not None and self.labels[vid] is None:
            self.labels[vid] = label

    def add_edge(self, a, b):
        """Record undirected edge (a, b); both endpoints must exist."""
        self.adj[a].add(b)
        self.adj[b].add(a)

    def has_edge(self, a, b):
        return a in self.adj and b in self.adj[a]

    def neighbors(self, vid):
        return self.adj.get(vid, set())

    def vertices_sorted(self):
        return sorted(self.labels)

    def __contains__(self, vid):
        return vid in self.labels

    def __len__(self):
        return len(self.labels)
