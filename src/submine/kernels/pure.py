"""Pure-python reference implementations of the hot kernels: the id
hashes behind partitioning and MinHash keys, the load's bulk parse and
symmetry check, and the search kernels.

These are the import-time fallback when the compiled extension is
not available.  Both backends implement the same algorithms (the clique
kernels with the same visit order and tie-breaking), so their outputs
are bit-identical; the test suite checks the two against each other on
random inputs.

The clique kernels take an ego net as bitmasks: `rows[i]` is an int
whose bit j is set iff vertices i and j are adjacent.  The compiled
twins in _compiled.c copy each mask into an array of 64-bit words and
run the same search over those.
"""

from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import lt

MASK64 = (1 << 64) - 1
SENTINEL_SIG = MASK64  # the empty pull set's signature: sorts last


def mix64(x: int) -> int:
    """64-bit avalanche hash (splitmix64 finalizer) of x's low 64 bits.

    Pure integer arithmetic, so the value is identical across processes
    and platforms -- required for stable vertex partitioning and minhash
    signatures.
    """
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def minhash_signature(pull_ids, seeds):
    """Signature tuple of a pull set, one min hash per seed; all-sentinel
    for the empty set.  `pull_ids` may be any iterable of ints."""
    ids = list(pull_ids)
    if not ids:
        return (SENTINEL_SIG,) * len(seeds)
    return tuple(min(mix64(v ^ s) for v in ids) for s in seeds)


def count_closing_pairs(ids, adj_lists):
    """Count pairs i < j with ids[j] present in adj_lists[i].

    `ids` is a strictly ascending id list; `adj_lists[i]` is the sorted
    neighbor list of ids[i] and may hold ids below ids[i] too.  Rows past
    len(adj_lists) count nothing.  Used by triangle counting: each hit
    closes one triangle.

    Only the neighbors above ids[i] can match a later id, so each row
    walks the shorter of those neighbors and the later ids and looks its
    elements up in the other side: neighbors in a set of the ids, later
    ids by bisecting the neighbors from a position that only moves
    forward.  A row costs min(neighbors above, later ids) lookups, never
    a scan of a hub's whole adjacency.
    """
    total = 0
    n = len(ids)
    idset = None
    for i in range(min(len(adj_lists), n - 1)):
        adj = adj_lists[i]
        if not adj:
            continue
        end = len(adj)
        lo = bisect_right(adj, ids[i])
        if end - lo <= n - i - 1:
            if idset is None:
                idset = frozenset(ids)
            total += len(idset.intersection(adj[lo:]))
            continue
        for j in range(i + 1, n):
            y = ids[j]
            lo = bisect_left(adj, y, lo)
            if lo == end:
                break
            if adj[lo] == y:
                total += 1
                lo += 1
    return total


def edges_symmetric(ids, rows):
    """True when `rows[i]`, the neighbor ids of vertex `ids[i]`, describe
    an undirected graph: `ids` strictly ascending in [0, 2**64), every
    row strictly ascending with no self-loop, every neighbor a vertex,
    and every edge with its reverse.

    One walk in ascending id order with a cursor per vertex into its
    down-prefix (its neighbors below its own id): each up-edge (v, w)
    must be the next unmatched entry of w's down-prefix, and advances w's
    cursor.  The up-edges into w arrive in ascending order of v, so when
    the walk reaches w its cursor must sit at the end of its down-prefix:
    the next entry, if any, is above w.  Every down-edge is thus matched
    by a distinct up-edge, with no count argument.

    `ids` and `rows` are lists or tuples of equal length (else
    ValueError); a non-int id or a row that is neither a list nor a tuple
    raises TypeError.  Neighbors must be ints.
    """
    n = len(ids)
    if len(rows) != n:
        raise ValueError("ids and rows differ in length")
    if not all(map(isinstance, ids, repeat(int))):
        raise TypeError("ids must be ints")
    if not all(map(isinstance, rows, repeat((list, tuple)))):
        raise TypeError("rows must be lists or tuples")
    if not n:
        return True
    if (ids[0] < 0 or ids[-1] > MASK64
            or not all(map(lt, ids, islice(ids, 1, None)))):
        return False
    index = dict(zip(ids, range(n)))
    cursor = [0] * n
    # zip reads cursor[i] as the walk reaches vertex i; by then only the
    # vertices below it have moved it, so it is final
    for vid, row, c in zip(ids, rows, cursor):
        prev = vid
        for w in islice(row, c, None):
            if w <= prev:
                return False  # an unmatched down-edge, a self-loop, or disorder
            prev = w
            j = index.get(w)
            if j is None:
                return False
            d = cursor[j]
            down = rows[j]
            if d == len(down) or down[d] != vid:
                return False
            cursor[j] = d + 1
    return True


def _lines(pieces):
    """The lines of the pieces, one at a time and without their "\n"; a
    line ends at a "\n" or at the end of its piece."""
    for piece in pieces:
        if not isinstance(piece, str):
            raise TypeError("parse_id_lines expects str pieces")
        start = 0
        while (end := piece.find("\n", start)) >= 0:
            yield piece[start:end]
            start = end + 1
        if start < len(piece):
            yield piece[start:]


def parse_id_lines(pieces):
    """The bulk parse behind graph.read_graph_sha256: split the decoded
    text of a graph file, given as str pieces that each hold whole lines,
    into the lines it can take as they are and the rest.  Lines end at
    "\n" (the text is read with universal newlines).

    A line is a row when it has three tab-separated fields, its id field
    is ASCII digits and its neighbor field ASCII digits and whitespace,
    every id has a value below 2**64, and no neighbor repeats or equals
    the id.  Rows may repeat an id; graph.read_graph_sha256 rejects that.
    Returns five lists:
    - vids, labels, rows, parallel, one entry per row in file order: the
      id, the label (None when empty) and the ascending neighbor ids;
    - slow: (lineno, line, k) for every other line that is neither blank
      nor a comment (starting with "#"): its number from 1, its text
      without the newline, and the number of rows before it;
    - missing: the ids the rows reference and no row defines, ascending.
    """
    if isinstance(pieces, str):
        raise TypeError("parse_id_lines expects str pieces, not a str")
    vids, labels, rows, slow = [], [], [], []
    for lineno, line in enumerate(_lines(pieces), 1):
        if not line or line.isspace() or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) == 3:
            vid_s, label, nbs_s = parts
            toks = nbs_s.split()
            digits = "".join(toks)
            if (vid_s.isdigit() and vid_s.isascii() and nbs_s.isascii()
                    and (digits.isdigit() or not digits)):
                vid = int(vid_s)
                ids = sorted(map(int, toks))
                seen = set(ids)
                if (vid <= MASK64 and vid not in seen
                        and len(seen) == len(ids)
                        and (not ids or ids[-1] <= MASK64)):
                    vids.append(vid)
                    labels.append(label or None)
                    rows.append(ids)
                    continue
        slow.append((lineno, line, len(vids)))
    defined = set(vids)
    missing = {nb for row in rows for nb in row if nb not in defined}
    return vids, labels, rows, slow, sorted(missing)


def _color_order(pmask, rows):
    # Greedy coloring of the candidate set: repeatedly peel an independent
    # set (one color class), taking vertices in ascending index order.
    # Returns vertices ordered by color class and their (1-based) colors;
    # color is an upper bound on the largest clique inside the prefix.
    order = []
    colors = []
    rest = pmask
    c = 0
    while rest:
        c += 1
        avail = rest
        while avail:
            bit = avail & -avail
            v = bit.bit_length() - 1
            order.append(v)
            colors.append(c)
            rest ^= bit
            avail &= ~(rows[v] | bit)
    return order, colors


def max_clique(n, rows, lower_bound=0):
    """Branch-and-bound maximum clique with greedy-coloring bounds.

    Returns (size, mask) for the best clique found with size strictly
    greater than lower_bound, else (0, 0).  Fully deterministic: vertices
    are explored in the reverse of the greedy color order and ties are
    never broken randomly.
    """
    best_size = lower_bound
    best_mask = 0
    found = False

    def expand(rmask, rsize, pmask):
        nonlocal best_size, best_mask, found
        order, colors = _color_order(pmask, rows)
        pcur = pmask
        for i in range(len(order) - 1, -1, -1):
            if rsize + colors[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            child = pcur & rows[v]
            if child:
                expand(rmask | bit, rsize + 1, child)
            elif rsize + 1 > best_size:
                best_size = rsize + 1
                best_mask = rmask | bit
                found = True
            pcur &= ~bit

    if n > 0:
        full = (1 << n) - 1
        expand(0, 0, full)
    return (best_size, best_mask) if found else (0, 0)


def maximal_cliques(n, rows, p_mask, x_mask):
    """Enumerate maximal cliques extendable from candidate set P.

    Pivoting backtracking: a reported mask R is a clique over P-members
    only, with no extender left in P or X.  Callers seed X with vertices
    that would make a clique non-maximal (e.g. smaller neighbors of an
    anchor vertex).  Pivot choice: most P-neighbors, lowest index on ties.
    Output order is deterministic.
    """
    out = []

    def bk(rmask, pmask, xmask):
        if pmask == 0 and xmask == 0:
            out.append(rmask)
            return
        cand = pmask | xmask
        best_u = -1
        best_cnt = -1
        while cand:
            bit = cand & -cand
            u = bit.bit_length() - 1
            cnt = (pmask & rows[u]).bit_count()
            if cnt > best_cnt:
                best_cnt = cnt
                best_u = u
            cand ^= bit
        ext = pmask & ~rows[best_u]
        p = pmask
        x = xmask
        while ext:
            bit = ext & -ext
            v = bit.bit_length() - 1
            bk(rmask | bit, p & rows[v], x & rows[v])
            p &= ~bit
            x |= bit
            ext ^= bit

    bk(0, p_mask, x_mask)
    return out
