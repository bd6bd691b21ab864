"""Search kernels: pure vs compiled parity, oracle checks, backend wiring.

The parity tests run against the compiled module whether or not it is
built in place: the `compiled` fixture (conftest.py) builds it from its
shipped C file into a temp dir when it is not importable, and skips only
when no C compiler is found.
"""

import gc
import os
import random
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from conftest import _c_compiler
from testkit import model_graphs

import submine.engine
import submine.graph
import submine.minhash
from submine import kernels
from submine.kernels import pure

KERNELS_DIR = Path(kernels.__file__).parent


@pytest.fixture(scope="module")
def cliques(compiled):
    return compiled


@pytest.fixture(scope="module")
def pairs(compiled):
    return compiled


@pytest.fixture(scope="module")
def hashes(compiled):
    return compiled


def _random_rows(rng, n, p):
    """Symmetric bitmask adjacency over n vertices."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _is_clique(rows, members):
    return all(rows[a] >> b & 1 for i, a in enumerate(members)
               for b in members[i + 1:])


# -- backend selection ---------------------------------------------------------


def test_backend_matches_built_extension():
    here = os.listdir(os.path.dirname(kernels.__file__))
    built = any(f.startswith("_compiled") and f.endswith(".so") for f in here)
    names = ("count_closing_pairs", "edges_symmetric", "parse_id_lines",
             "minhash_signature", "mix64", "max_clique", "maximal_cliques")
    bound = [getattr(kernels, name) for name in names]
    if built and os.environ.get("SUBMINE_PURE_KERNELS") != "1":
        assert kernels.BACKEND == "compiled"
        assert bound == [getattr(kernels._compiled, name) for name in names]
    else:
        assert kernels.BACKEND == "pure"
        assert bound == [getattr(pure, name) for name in names]
    # the loader, the partitioner and the engine's keys call what the
    # backend binds
    assert submine.graph.parse_id_lines is kernels.parse_id_lines
    assert submine.graph.mix64 is kernels.mix64
    assert submine.minhash.minhash_signature is kernels.minhash_signature
    assert submine.engine.minhash_signature is kernels.minhash_signature


def test_env_var_forces_pure_backend():
    env = dict(os.environ, SUBMINE_PURE_KERNELS="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from submine import kernels; print(kernels.BACKEND)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "pure"


def test_hand_written_c_is_warning_clean():
    # setup.py builds the extension with optional=True, so a C file that
    # stops compiling would quietly switch every kernel to pure
    cc = _c_compiler()
    include = sysconfig.get_paths()["include"]
    if cc is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or Python headers found")
    assert [p.name for p in KERNELS_DIR.glob("*.c")] == ["_compiled.c"]
    out = subprocess.run(
        [cc, "-Wall", "-Werror", "-fsyntax-only", "-I" + include,
         str(KERNELS_DIR / "_compiled.c")],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, "_compiled.c:\n" + out.stderr


# -- count_closing_pairs --------------------------------------------------------


def _closing_pairs_bf(ids, adj_lists):
    return sum(len(set(ids[i + 1:]) & set(adj))
               for i, adj in enumerate(adj_lists[:len(ids)]))


def test_count_closing_pairs_brute_force():
    rng = random.Random(6)
    for _ in range(200):
        ids = sorted(rng.sample(range(100), rng.randint(0, 12)))
        adj_lists = []
        for _v in ids:
            adj_lists.append(sorted(rng.sample(range(100), rng.randint(0, 10))))
        want = _closing_pairs_bf(ids, adj_lists)
        assert pure.count_closing_pairs(ids, adj_lists) == want
        assert kernels.count_closing_pairs(ids, adj_lists) == want


def test_count_closing_pairs_empty(pairs):
    for kernel in (pure.count_closing_pairs, pairs.count_closing_pairs):
        for ids, adj in (([], []), ((), ()), ([1, 2], [[], []]),
                         ((1, 2), ((), ())), ([1, 2], []), ([], [[1, 2]]),
                         ([5], [[1, 9]])):
            assert kernel(ids, adj) == 0


def _hub_calls(rng, calls, universe=50_000):
    """Calls shaped like triangle on a hub-heavy graph: each id comes with
    its full sorted adjacency, which holds ids below its own too; most
    lists are 2-7k wide, a few short or empty (the app's closing entry)."""
    wide = [sorted(rng.sample(range(universe), rng.randint(2000, 7000)))
            for _ in range(12)]
    out = []
    for _ in range(calls):
        ids = sorted(rng.sample(range(universe), rng.randint(200, 600)))
        adj = [rng.choice(wide) if rng.random() < 0.8
               else sorted(rng.sample(range(universe), rng.randint(0, 40)))
               for _ in ids[:-1]]
        out.append((ids, adj + [()]))
    return out


def _random_calls(rng, calls, top):
    """Small calls over ids just below `top`, some with fewer adjacency
    lists than ids, some as tuples."""
    span = range(max(top - 300, 0), top + 1)
    out = []
    for _ in range(calls):
        ids = sorted(rng.sample(span, rng.randint(0, 30)))
        adj = [sorted(rng.sample(span, rng.randint(0, 60)))
               for _ in range(rng.randint(0, len(ids)))]
        if rng.random() < 0.3:
            ids, adj = tuple(ids), tuple(tuple(a) for a in adj)
        out.append((ids, adj))
    return out


def test_count_closing_pairs_backend_parity(pairs):
    rng = random.Random(13)
    calls = []
    for top in (100, 10**6, 2**63 - 1, 2**64 - 1):
        calls += _random_calls(rng, 150, top)
    calls += _hub_calls(rng, 5)
    hits = 0
    for ids, adj in calls:
        want = _closing_pairs_bf(ids, adj)
        assert pure.count_closing_pairs(ids, adj) == want
        assert pairs.count_closing_pairs(ids, adj) == want
        hits += want
    assert hits > 10_000  # the hub calls close plenty of pairs


def test_count_closing_pairs_ids_past_int64(pairs):
    # every id read_graph accepts fits the compiled kernel's uint64 ids,
    # including 2**64 - 1, on either side of the shorter-side rule
    top = 2**64 - 1
    cases = [
        ([1, 2, 3], [[2, 3, 2**63], [3, 2**63], []], 3),
        ([5, 2**63, top], [[2**63, top], [top], []], 3),
        ([2**63, top - 1, top], [list(range(2**63, 2**63 + 500)) + [top],
                                 [top]], 2),
        ([2**63 + k for k in range(0, 600, 2)], [[2**63 + 100, top]], 1),
    ]
    for ids, adj, want in cases:
        assert _closing_pairs_bf(ids, adj) == want
        assert pure.count_closing_pairs(ids, adj) == want
        assert pairs.count_closing_pairs(ids, adj) == want


@pytest.mark.parametrize("ids, adj, error", [
    ([1, -1], [[2]], OverflowError),
    ([1, 2**64], [[2]], OverflowError),
    ([1, 2], [[-1]], OverflowError),
    ([1, 2], [[2**64]], OverflowError),
    ([1, "2"], [[2]], TypeError),
    ([1, 2], [["2"]], TypeError),
    ([1, 2], [2], TypeError),
    (5, [[2]], TypeError),
])
def test_pairs_rejects_ids_outside_uint64(pairs, ids, adj, error):
    with pytest.raises(error):
        pairs.count_closing_pairs(ids, adj)


def test_pairs_survives_a_row_that_shrinks_adj_lists(pairs):
    # a row that is neither list nor tuple is iterated, which runs python
    # code; the kernel must not index past the list it then shrank
    class Shrinking:
        def __iter__(self):
            del adj[1:]
            return iter([2, 3])

    adj = [Shrinking(), [3], []]
    assert pairs.count_closing_pairs([1, 2, 3], adj) == 2


def test_pairs_failures_free_their_memory(pairs):
    # each call fails after the id array is allocated; PyMem_Malloc is
    # traced, so a leaked array would show as ~10^4 * 24 bytes
    bad = [([1, 2, 2**64], [[2]]), ([1, 2, 3], [[2, "x"]]),
           ([1, 2, 3], [[0, 1, -1]])]

    def fail_all(times):
        for _ in range(times):
            for ids, adj in bad:
                try:
                    pairs.count_closing_pairs(ids, adj)
                except (OverflowError, TypeError):
                    pass
                else:
                    raise AssertionError("expected a failure")

    tracemalloc.start()
    try:
        fail_all(100)
        before = tracemalloc.get_traced_memory()[0]
        fail_all(10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000


class _CountingList(list):
    """A list that counts the elements read out of it."""

    reads = 0

    def __getitem__(self, k):
        got = super().__getitem__(k)
        self.reads += len(got) if isinstance(k, slice) else 1
        return got

    def __iter__(self):
        for x in super().__iter__():
            self.reads += 1
            yield x


def test_pure_count_closing_pairs_reads_the_shorter_side():
    # a row walks min(neighbors above its id, later ids) elements and
    # bisects the other side, so a 100k-wide adjacency costs O(log) reads
    # however many or few candidates face it
    wide = list(range(0, 200_000, 2))
    adj = _CountingList(wide)
    assert pure.count_closing_pairs([1, 150_000], [adj]) == 1
    assert adj.reads <= 40
    ids = [199_990] + list(range(200_000, 300_000))
    adj = _CountingList(wide[:-5] + [200_002, 200_004, 200_007])
    assert pure.count_closing_pairs(ids, [adj]) == 3
    assert adj.reads <= 40


# -- edges_symmetric -------------------------------------------------------------


@pytest.fixture(scope="module")
def symmetric(pairs):
    return pairs.edges_symmetric


def _symmetric_bf(ids, rows):
    """edges_symmetric by its definition, with sets."""
    if list(ids) != sorted(set(ids)) or not all(0 <= v < 2**64 for v in ids):
        return False
    edges = set()
    for v, row in zip(ids, rows):
        if list(row) != sorted(set(row)) or v in row:
            return False
        edges.update((v, w) for w in row)
    return all((w, v) in edges for v, w in edges)


def _spread_ids(rng, n):
    """n ascending ids with gaps between them, so a non-vertex id can
    sit below, between or above the vertices."""
    return sorted(rng.sample(range(1, 10 * n), n))


def _gnp_adjacency(rng, n, p):
    ids = _spread_ids(rng, n)
    adj = {v: set() for v in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if rng.random() < p:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _chung_lu_adjacency(rng, n, m, exponent=0.8):
    """Edge ends drawn with weight (rank + 1) ** -exponent: a few hubs."""
    ids = _spread_ids(rng, n)
    weights = [(r + 1) ** -exponent for r in range(n)]
    ends = rng.choices(rng.sample(ids, n), weights=weights, k=2 * m)
    adj = {v: set() for v in ids}
    for a, b in zip(ends[::2], ends[1::2]):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _non_edge(rng, adj, up, avoid=None):
    """(v, w), two vertices with no edge between them and w above v when
    `up` (below it otherwise), other than `avoid`; None when there is
    none."""
    pairs = [(v, w) for v in adj for w in adj
             if (w > v if up else w < v) and w not in adj[v]
             and (v, w) != avoid]
    return rng.choice(pairs) if pairs else None


def _mutate(rng, adj, kind):
    """Sorted rows of `adj` with one fault of the given kind, or None
    when the graph has no room for it."""
    rows = {v: sorted(s) for v, s in adj.items()}
    edges = [(v, w) for v, s in adj.items() for w in s]
    if kind == "dropped_reverse":
        v, w = rng.choice(edges)
        rows[w].remove(v)
    elif kind in ("extra_down_edge", "balanced_pair"):
        down = _non_edge(rng, adj, up=False)
        if down is None:
            return None
        v, w = down
        rows[v] = sorted(rows[v] + [w])
        if kind == "balanced_pair":
            # plus an unrelated up-edge with no reverse either: the up
            # and down entry counts still agree
            up = _non_edge(rng, adj, up=True, avoid=(w, v))
            if up is None:
                return None
            x, u = up
            rows[x] = sorted(rows[x] + [u])
    elif kind == "dangling":
        v = rng.choice(sorted(adj))
        w = rng.choice([x for x in range(10 * len(adj) + 2) if x not in adj])
        rows[v] = sorted(rows[v] + [w])
    elif kind == "misnamed":
        # an up-neighbor x of v renamed to x - 1, which is no vertex: the
        # first vertex at or above x - 1 is x, and x lists v
        named = [(v, x) for v, x in edges if v < x - 1 and x - 1 not in adj]
        if not named:
            return None
        v, x = rng.choice(named)
        rows[v] = sorted([w for w in rows[v] if w != x] + [x - 1])
    elif kind == "self_loop":
        v = rng.choice(sorted(adj))
        rows[v] = sorted(rows[v] + [v])
    elif kind == "repeated":
        v, w = rng.choice(edges)
        rows[v] = sorted(rows[v] + [w])
    elif kind == "unsorted":
        v = rng.choice([v for v in adj if len(adj[v]) >= 2])
        k = rng.randrange(len(rows[v]) - 1)
        rows[v][k], rows[v][k + 1] = rows[v][k + 1], rows[v][k]
    return rows


_FAULTS = ("dropped_reverse", "extra_down_edge", "dangling", "misnamed",
           "balanced_pair", "self_loop", "repeated", "unsorted")


def _call(rows):
    ids = sorted(rows)
    return ids, [rows[v] for v in ids]


def test_edges_symmetric_backend_parity(symmetric):
    rng = random.Random(31)
    graphs = [_gnp_adjacency(rng, rng.randint(3, 60), rng.uniform(0.05, 0.4))
              for _ in range(40)]
    graphs += [_chung_lu_adjacency(rng, rng.randint(50, 150),
                                   rng.randint(100, 600))
               for _ in range(20)]
    seen = set()
    for adj in graphs:
        if sum(map(len, adj.values())) < 4:
            continue
        for kind in ("none",) + _FAULTS:
            mutated = _mutate(rng, adj, kind)
            if mutated is None:
                continue
            ids, rows = _call(mutated)
            want = kind == "none"
            assert _symmetric_bf(ids, rows) is want, kind
            assert pure.edges_symmetric(ids, rows) is want, kind
            assert symmetric(ids, rows) is want, kind
            tuples = tuple(map(tuple, rows))
            assert pure.edges_symmetric(tuple(ids), tuples) is want, kind
            assert symmetric(tuple(ids), tuples) is want, kind
            seen.add(kind)
    assert seen == {"none", *_FAULTS}


_TOP = 2**64 - 1


@pytest.mark.parametrize("ids, rows, want", [
    ([0, _TOP], [[_TOP], [0]], True),
    ([0, 5, _TOP], [[5, _TOP], [0, _TOP], [0, 5]], True),
    ([-1, 5], [[5], [-1]], False),              # -1 as a vertex
    ([5, 2**64], [[2**64], [5]], False),        # 2**64 as a vertex
    ([0, 5], [[5], [-1, 0]], False),            # -1 as a neighbor
    ([0, 5], [[5, 2**64], [0]], False),         # 2**64 as a neighbor
    ([_TOP], [[2**64]], False),
    ([0], [[-1]], False),
    ([1, 5], [[3], [1]], False),               # 3 is no vertex; 5 lists 1
])
def test_edges_symmetric_id_range(symmetric, ids, rows, want):
    assert _symmetric_bf(ids, rows) is want
    assert pure.edges_symmetric(ids, rows) is want
    assert symmetric(ids, rows) is want


def test_edges_symmetric_empty_and_isolated(symmetric):
    for kernel in (pure.edges_symmetric, symmetric):
        assert kernel([], []) is True
        assert kernel((), ()) is True
        assert kernel([7], [[]]) is True
        assert kernel([0, 3, 9, _TOP], [[], (), [], []]) is True
        assert kernel([1, 2, 3], [[], [3], [2]]) is True
        assert kernel([3, 3], [[], []]) is False   # ids not strictly ascending
        assert kernel([3, 1], [[], []]) is False


@pytest.mark.parametrize("ids, rows, error", [
    ([1, "2"], [[2], [1]], TypeError),
    ([1, 2.0], [[2], [1]], TypeError),
    ([1, None], [[], []], TypeError),
    ([1, 2], [[2], {1}], TypeError),
    ([1, 2], [[2], 1], TypeError),
    ([1, 2], [None, [1]], TypeError),
    ([1, 2], [[2]], ValueError),
    ([1], [[], []], ValueError),
])
def test_edges_symmetric_rejects_bad_arguments(symmetric, ids, rows, error):
    # a non-int id or a row that is neither a list nor a tuple raises, in
    # both twins, even where the data alone would answer False
    for kernel in (pure.edges_symmetric, symmetric):
        with pytest.raises(error):
            kernel(ids, rows)
        with pytest.raises(error):
            kernel([-1] + ids, [[]] + rows)


def test_edges_symmetric_failures_free_their_memory(symmetric):
    # every call fails after the buffers are allocated (about 3 kB for
    # these 60-vertex rows); PyMem_Malloc is traced, so a leak would
    # show as ~3*10^4 times that
    rng = random.Random(37)
    adj = _gnp_adjacency(rng, 60, 0.2)
    ids, rows = _call({v: sorted(s) for v, s in adj.items()})
    last = rows[-1]
    bad = [(ids, rows[:-1] + [last[:-1]]),          # a missing reverse
           (ids, rows[:-1] + [last + [2**64]]),     # a neighbor past 2**64
           (ids, rows[:-1] + [last + ["x"]])]       # a non-int neighbor

    def fail_all(times):
        for _ in range(times):
            for i, r in bad:
                try:
                    assert symmetric(i, r) is False
                except TypeError:
                    pass

    assert symmetric(ids, rows) is True
    tracemalloc.start()
    try:
        fail_all(100)
        before = tracemalloc.get_traced_memory()[0]
        fail_all(10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000


# -- parse_id_lines ------------------------------------------------------------


def _model_texts():
    """The canonical text of a graph from every submine.gen model."""
    return ["".join(submine.graph.format_vertex_line(g[vid]) + "\n"
                    for vid in g.ids()) for g in model_graphs()]


_PARSE_TEXTS = [
    "", "\n\n", "# only a comment", "#\t\t\n \t\x0b\x0c\x1c\x1f\n",
    f"0\t\t{_TOP}\n{_TOP}\t\t0\n",                   # the id range's ends
    "5\t\t9 2 7\n2\t\t5\n7\t\t5\n9\t\t5\n",              # an unsorted list
    "7\t\t\n8\tq\t  \n",                              # empty neighbor fields
    "1\ta label\t2\x0b3\x1c 4\x1f\x0c5\n",               # ASCII whitespace
    "1\t\u00e9\t2 3\n2\t\t\u0663\n3\t\t1\u20032\n",        # not ASCII
    "\u00a0\n \u3000\t\n\x85\n1\t\u2028\U0001f600\t2\n\u00e9\n",  # blank or not
    "2\t\u00e9\t1\n1\t\t\u00a02\n1\t\t2\x85\n",
    f"{2**64}\t\t1\n+5\t\t1\n 5\t\t1\n5_0\t\t1\n5 \t\t1\n",  # slow ids
    f"1\t\t{2**64}\n1\t\t+5\n1\t\t5_0\n1\t\t-5\n1\t\t2:a 3\n",  # slow nbs
    "1\t\t1\n1\t\t2 2\n1\tx\n1\tx\ty\tz\n1\t\t2\n01\t\t2\n1\t\t3\n",
    " # not a comment\n\t#\n",
]


def _random_parse_text(rng):
    """Lines of ASCII tokens that are rows, or fail one check or another."""
    pool = ["0", "1", "2", "3", "17", "007", str(_TOP), str(2**64), "+3",
            "-1", "3:a", "x", "1_0", ""]
    spaces = [" ", "  ", "\x0b", "\x0c", "\x1c", "\x1f"]
    lines = []
    for _ in range(rng.randint(0, 12)):
        fields = [rng.choice(pool), rng.choice(["", "a", "b c", "#"]),
                  rng.choice(spaces).join(rng.choice(pool)
                                          for _ in range(rng.randint(0, 6)))]
        if rng.random() < 0.1:  # one, two, three or four fields
            fields = (fields[:rng.randint(1, 2)]
                      + fields[2:] * rng.randint(0, 2))
        lines.append("\t".join(fields))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "# note", "\t"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def _pieces(rng, text):
    """text cut at random line ends, each piece keeping its "\n"."""
    cuts = [i + 1 for i, ch in enumerate(text) if ch == "\n"
            and rng.random() < 0.3]
    return [text[a:b] for a, b in zip([0] + cuts, cuts + [len(text)])]


def test_parse_id_lines_backend_parity(pairs):
    rng = random.Random(41)
    texts = _model_texts() + _PARSE_TEXTS
    texts += [_random_parse_text(rng) for _ in range(400)]
    outcomes = set()
    for text in texts:
        want = pure.parse_id_lines([text])
        got = pairs.parse_id_lines([text])
        assert got == want, text
        # the lines and their numbers do not depend on where the pieces end
        pieces = _pieces(rng, text)
        assert pure.parse_id_lines(pieces) == want, pieces
        assert pairs.parse_id_lines(iter(pieces)) == want, pieces
        vids, labels, rows, slow, missing = got
        outcomes.add((bool(vids), bool(slow), bool(missing)))
        # one int object per distinct id, and rows the collector does
        # not walk: they hold nothing but ints
        seen = {}
        for x in chain(vids, chain.from_iterable(rows), missing):
            assert seen.setdefault(x, x) is x
        assert not any(map(gc.is_tracked, rows))
    # rows, slow lines and missing ids each present and absent (missing
    # ids come only from rows)
    assert len(outcomes) == 6, outcomes


def test_parse_id_lines_reports_each_part(pairs):
    for label in ("e", "\u00e9"):  # ASCII text, and text that is not
        text = ("# c\n5\tlab el\t9 2\n\n2\t\t5 3\n9\t\t5:x\n5\t\t2\n"
                f"3\t{label}\t\n")
        for parse in (pure.parse_id_lines, pairs.parse_id_lines):
            # a repeated id is still a row: read_graph rejects it
            assert parse([text]) == (
                [5, 2, 5, 3], ["lab el", None, None, label],
                [[2, 9], [3, 5], [2], []], [(5, "9\t\t5:x", 2)], [9])


def test_parse_id_lines_takes_pieces_not_a_str(pairs):
    for parse in (pure.parse_id_lines, pairs.parse_id_lines):
        assert parse([]) == parse([""]) == ([], [], [], [], [])
        assert parse(["1\t\t2", "2\t\t1\n", "\n3\t\t4"]) == (
            [1, 2, 3], [None] * 3, [[2], [1], [4]], [], [4])
        for bad in ("1\t\t2\n", [b"1\t\t2\n"], ["1\t\t2\n", None], 5):
            with pytest.raises(TypeError):
                parse(bad)


def test_parse_id_lines_frees_what_it_does_not_return(pairs):
    # rows of 100 ids above the small-int cache, so a leaked reference
    # keeps new int objects alive; lines that fail after the neighbor
    # buffer has grown; text that is not ASCII, with a line that is
    # blank only as str.isspace() sees it; bad arguments, and a read that
    # fails after its first piece
    big = 2**40
    rows = [f"{big + i}\t\t" + " ".join(str(big + j) for j in range(100)
                                          if j != i) for i in range(3)]
    texts = ["\n".join(rows),
             "\n".join(rows + [rows[0]]),                  # a repeated id
             "\n".join(rows + [rows[1] + f" {big}:a"]),
             "\n".join(rows + [rows[2] + f" {2**64}"]),
             "\n".join(rows + [rows[2] + f" {big + 2}"]),  # a self-loop
             "\n".join(rows + ["1\t\u00e9\t2", "\u00a0 ", "\u00e9"])]

    def failing_read():
        yield texts[0] + "\n"
        raise ValueError("read failed")

    def run(times):
        for _ in range(times):
            for text in texts:
                pairs.parse_id_lines([text])
            for bad in (texts[0], [texts[0].encode()], None, 5,
                        [texts[0] + "\n", 5], ["1\t\t2\n\ud800"],
                        failing_read()):
                try:
                    pairs.parse_id_lines(bad)
                except (TypeError, UnicodeEncodeError, ValueError):
                    pass
                else:
                    raise AssertionError("expected an error")

    tracemalloc.start()
    try:
        run(50)
        before = tracemalloc.get_traced_memory()[0]
        run(500)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000


# -- mix64 and minhash_signature -------------------------------------------------

_SEEDS = (0x9E3779B97F4A7C15, 1, 2**64 - 1, 0x5692161D100B05E5)


def _hash_ids(rng, count):
    """Random ids over the whole u64 range plus its edges and ints whose
    low 64 bits are what gets hashed."""
    return ([rng.randrange(2**64) for _ in range(count)]
            + [0, 2**64 - 1, 2**64 + 5, -1])


def test_mix64_backend_parity(hashes):
    rng = random.Random(21)
    for x in _hash_ids(rng, 5000) + [-(2**70) - 3, 2**200 + 7, True]:
        assert hashes.mix64(x) == pure.mix64(x)
    assert hashes.mix64(2**64 + 5) == hashes.mix64(5)
    assert hashes.mix64(-1) == hashes.mix64(2**64 - 1)
    for mix in (pure.mix64, hashes.mix64):
        for bad in ("1", 1.0, None):
            with pytest.raises(TypeError):
                mix(bad)


def test_minhash_signature_backend_parity(hashes):
    rng = random.Random(22)
    ids = _hash_ids(rng, 300)
    for _ in range(3000):
        pull = rng.sample(ids, rng.randint(0, 8))
        seeds = tuple(rng.randrange(2**64)
                      for _ in range(rng.choice((0, 1, 4, 16))))
        want = pure.minhash_signature(pull, seeds)
        assert len(want) == len(seeds)
        assert hashes.minhash_signature(pull, seeds) == want
        assert hashes.minhash_signature(frozenset(pull), list(seeds)) == want


def test_minhash_signature_input_forms(hashes):
    sentinel = (pure.SENTINEL_SIG,) * 4
    for sig in (pure.minhash_signature, hashes.minhash_signature):
        for empty in ((), [], frozenset(), iter(())):
            assert sig(empty, _SEEDS) == sentinel
        assert sig([], list(_SEEDS[:1])) == sentinel[:1]
        assert sig((), ()) == ()
        want = sig([4, 9, 17], _SEEDS)
        assert sentinel[0] not in want
        for form in ([17, 4, 9, 4, 17], frozenset({4, 9, 17}), (9, 17, 4),
                     (x for x in (4, 9, 9, 17))):
            assert sig(form, _SEEDS) == want
        for ell in (0, 1, 4, 16):
            seeds = tuple(range(3, 3 + ell))
            got = sig([4, 9, 17], seeds)
            assert got == sig([4, 9, 17], list(seeds))
            assert len(got) == ell
        assert sig([5], (7,)) == (pure.mix64(5 ^ 7),)


@pytest.mark.parametrize("pull, seeds", [
    (["4"], _SEEDS),
    ([1, 2, 3.0], _SEEDS),
    ([1, None], _SEEDS),
    ([1, 2], (1, "2")),
    ([1, 2], (1.0,)),
])
def test_minhash_signature_rejects_non_ints(hashes, pull, seeds):
    for sig in (pure.minhash_signature, hashes.minhash_signature):
        with pytest.raises(TypeError):
            sig(pull, seeds)


def test_hash_failures_free_their_memory(hashes):
    # each call fails after the id buffer is allocated; PyMem_Malloc is
    # traced, so a leaked buffer would show as ~3*10^4 * 40 bytes
    bad = [(lambda: [1, 2, "x"], _SEEDS), (lambda: [1, 2, 3], (1, 2, None)),
           (lambda: (x for x in (5, 6, 7.5)), _SEEDS)]

    def fail_all(times):
        for _ in range(times):
            for pull, seeds in bad:
                try:
                    hashes.minhash_signature(pull(), seeds)
                except TypeError:
                    pass
                else:
                    raise AssertionError("expected a failure")

    tracemalloc.start()
    try:
        fail_all(100)
        before = tracemalloc.get_traced_memory()[0]
        fail_all(10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000


# -- max_clique ------------------------------------------------------------------


def _max_clique_bf(rows, n):
    best = 0
    for mask in range(1 << n):
        members = _bits(mask)
        if len(members) > best and _is_clique(rows, members):
            best = len(members)
    return best


def test_max_clique_small_bruteforce():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 10)
        rows = _random_rows(rng, n, 0.5)
        want = _max_clique_bf(rows, n)
        size, mask = kernels.max_clique(n, rows)
        if want == 0:
            assert (size, mask) == (0, 0)
        else:
            assert size == want
            members = _bits(mask)
            assert len(members) == size
            assert _is_clique(rows, members)


def test_max_clique_lower_bound_semantics():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(3, 12)
        rows = _random_rows(rng, n, 0.6)
        size, mask = kernels.max_clique(n, rows)
        if size == 0:
            continue
        # bound at the optimum: nothing strictly better exists
        assert kernels.max_clique(n, rows, lower_bound=size) == (0, 0)
        # bound just below: still found, same size
        s2, m2 = kernels.max_clique(n, rows, lower_bound=size - 1)
        assert s2 == size


def test_max_clique_witness_invariant_under_lower_bound():
    # the first optimum in search order does not depend on the bound,
    # which is what makes the engine's shared-bound pruning deterministic
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(3, 13)
        rows = _random_rows(rng, n, 0.55)
        size, mask = kernels.max_clique(n, rows)
        if size == 0:
            continue
        for lb in range(size):
            assert kernels.max_clique(n, rows, lower_bound=lb) == (size, mask)


def test_max_clique_backend_parity(cliques):
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randint(0, 18)
        rows = _random_rows(rng, n, rng.choice([0.3, 0.5, 0.8]))
        lb = rng.randint(0, 3)
        assert cliques.max_clique(n, rows, lb) == \
            pure.max_clique(n, rows, lb)


def _embed(rows, n, positions):
    """The graph `rows` with vertex i moved to positions[i], as n rows."""
    wide = [0] * n
    for i, row in enumerate(rows):
        wide[positions[i]] = _spread(row, positions)
    return wide


def _spread(mask, positions):
    return sum(1 << positions[i] for i in _bits(mask))


def test_max_clique_wide_input_parity(cliques):
    # the compiled kernel sizes its words from n: no width limit, and the
    # same answer as pure and brute force on graphs placed past bit 4096
    rng = random.Random(14)
    n = 4100
    rows = [0] * n
    for a, b in ((4090, 4091), (4090, 4092), (4091, 4092)):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    assert cliques.max_clique(n, rows) == pure.max_clique(n, rows) == \
        (3, (1 << 4090) | (1 << 4091) | (1 << 4092))
    for n in (4100, 8200):
        for _ in range(6):
            k = rng.randint(3, 12)
            small = _random_rows(rng, k, rng.choice([0.4, 0.7]))
            wide = _embed(small, n, sorted(rng.sample(range(4000, n), k)))
            size, mask = pure.max_clique(n, wide)
            assert size == _max_clique_bf(small, k)
            assert _is_clique(wide, _bits(mask))
            assert cliques.max_clique(n, wide) == (size, mask)
            assert cliques.max_clique(n, wide, size - 1) == (size, mask)


def test_max_clique_compiled_not_slower_than_pure(cliques):
    # the answers would agree even if the compiled search never dropped a
    # tried vertex from its candidates; its time would not (about 6x
    # slower than pure here, against well over 10x faster)
    rows = _random_rows(random.Random(1), 90, 0.8)

    def best_of_3(kernel):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = kernel(90, rows)
            times.append(time.perf_counter() - t0)
        return min(times), out

    compiled_s, got = best_of_3(cliques.max_clique)
    pure_s, want = best_of_3(pure.max_clique)
    assert got == want
    assert compiled_s <= pure_s


# -- maximal_cliques -------------------------------------------------------------


def _maximal_bf(rows, n):
    out = set()
    for mask in range(1, 1 << n):
        members = _bits(mask)
        if not _is_clique(rows, members):
            continue
        extendable = any(
            all(rows[v] >> m & 1 for m in members)
            for v in range(n) if not mask >> v & 1
        )
        if not extendable:
            out.add(mask)
    return out


def test_maximal_cliques_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        rows = _random_rows(rng, n, 0.5)
        full = (1 << n) - 1
        got = kernels.maximal_cliques(n, rows, full, 0)
        assert set(got) == _maximal_bf(rows, n)
        assert len(got) == len(set(got))


def test_maximal_cliques_x_mask_suppresses():
    # triangle 0-1-2; X = {0} means cliques containing only {1,2,...}
    # extendable by 0 are suppressed
    rows = [0b110, 0b101, 0b011]
    assert set(kernels.maximal_cliques(3, rows, 0b111, 0)) == {0b111}
    got = kernels.maximal_cliques(3, rows, 0b110, 0b001)
    assert got == []  # {1,2} extends by 0, so nothing maximal without 0


def test_maximal_cliques_backend_parity(cliques):
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(0, 16)
        rows = _random_rows(rng, n, rng.choice([0.3, 0.6]))
        pm = rng.getrandbits(n) if n else 0
        xm = rng.getrandbits(n) & ~pm if n else 0
        assert cliques.maximal_cliques(n, rows, pm, xm) == \
            pure.maximal_cliques(n, rows, pm, xm)


def test_maximal_cliques_wide_input_parity(cliques):
    rng = random.Random(15)
    n = 4100
    rows = [0] * n
    rows[4098] = 1 << 4099
    rows[4099] = 1 << 4098
    pm = (1 << 4098) | (1 << 4099)
    assert cliques.maximal_cliques(n, rows, pm, 0) == \
        pure.maximal_cliques(n, rows, pm, 0) == [pm]
    for n in (4100, 8200):
        for _ in range(6):
            k = rng.randint(2, 9)
            small = _random_rows(rng, k, 0.5)
            positions = sorted(rng.sample(range(4000, n), k))
            wide = _embed(small, n, positions)
            full = _spread((1 << k) - 1, positions)
            got = cliques.maximal_cliques(n, wide, full, 0)
            assert got == pure.maximal_cliques(n, wide, full, 0)
            assert set(got) == {_spread(m, positions)
                                for m in _maximal_bf(small, k)}
            pm = full & rng.getrandbits(n)
            xm = full & ~pm & rng.getrandbits(n)
            assert cliques.maximal_cliques(n, wide, pm, xm) == \
                pure.maximal_cliques(n, wide, pm, xm)


@pytest.mark.parametrize("kernel, args, error", [
    ("max_clique", (3, [6, "5", 3]), TypeError),
    ("max_clique", (3, [6, 5, None]), TypeError),
    ("max_clique", (3, 5), TypeError),
    ("max_clique", (3, [6, -5, 3]), OverflowError),
    ("max_clique", (3, [6, 1 << 64, 3]), OverflowError),
    ("max_clique", (3, [6, 5]), ValueError),
    ("max_clique", (300, [0] * 299), ValueError),
    ("maximal_cliques", (3, [6, 5, "3"], 7, 0), TypeError),
    ("maximal_cliques", (3, [6, 5, 3], 7.0, 0), TypeError),
    ("maximal_cliques", (3, [6, 5, 3], -1, 0), OverflowError),
    ("maximal_cliques", (3, [6, 5, 3], 6, -2), OverflowError),
    ("maximal_cliques", (3, [6, -5, 3], 7, 0), OverflowError),
    ("maximal_cliques", (3, [6, 5], 7, 0), ValueError),
    ("maximal_cliques", (3, [6, 5], 3, 0), ValueError),
    ("maximal_cliques", (3, [6, 5, 3], 8, 0), ValueError),
    ("maximal_cliques", (3, [6, 5, 3], 0, 1 << 40), ValueError),
    ("maximal_cliques", (0, [], 1, 0), ValueError),
    ("maximal_cliques", (-1, [], 0, 0), ValueError),
])
def test_cliques_rejects_bad_arguments(cliques, kernel, args, error):
    # a P or X bit past the rows read, or fewer rows than n, would index
    # past the row words: the kernel must raise before any search
    with pytest.raises(error):
        getattr(cliques, kernel)(*args)


def test_cliques_failures_free_their_memory(cliques):
    # every call fails after the row or mask words are allocated (480
    # bytes for 60 rows); PyMem_Malloc is traced, so a leak would show
    # as ~3*10^4 times that
    rows = _random_rows(random.Random(16), 60, 0.3)
    full = (1 << 60) - 1
    bad = [(cliques.max_clique, (60, rows[:-1] + ["x"])),
           (cliques.maximal_cliques, (60, rows[:-1] + [-1], full, 0)),
           (cliques.maximal_cliques, (60, rows, 1 << 60, 0))]

    def fail_all(times):
        for _ in range(times):
            for kernel, args in bad:
                try:
                    kernel(*args)
                except (TypeError, OverflowError, ValueError):
                    pass
                else:
                    raise AssertionError("expected a failure")

    assert cliques.max_clique(60, rows) == pure.max_clique(60, rows)
    tracemalloc.start()
    try:
        fail_all(100)
        before = tracemalloc.get_traced_memory()[0]
        fail_all(10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000


def test_bench_script_smoke():
    """The backend benchmark runs end to end and prints its table."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "benchmarks", "bench_kernels.py")
    out = subprocess.run(
        [sys.executable, script, "--repeat", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].split()[:2] == ["kernel", "calls"]
