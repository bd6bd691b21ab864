"""Graph model, text format, ordering helpers, and partitioning."""

import hashlib
import random
import re

import pytest
from testkit import model_graphs

from submine import graph as graph_module
from submine.graph import (
    AdjItem,
    Graph,
    GraphDataError,
    GraphParseError,
    Subgraph,
    Vertex,
    _check_every_edge,
    check_undirected,
    format_vertex_line,
    larger_neighbor_ids,
    mix64,
    parse_vertex_line,
    partition_graph,
    partition_owner,
    read_graph,
    read_graph_sha256,
    respond_larger,
    respond_smaller,
    smaller_neighbor_ids,
    write_graph,
)
from submine.gen import complete_graph, gnp_graph
from submine.kernels import pure as pure_kernels


# -- parsing ---------------------------------------------------------------


def test_parse_labeled_vertex():
    v = parse_vertex_line("3\tc\t1:aB 2:bC")
    assert v.id == 3
    assert v.label == "c"
    assert v.adj == [AdjItem(1, "aB"), AdjItem(2, "bC")]


def test_parse_isolated_vertex():
    v = parse_vertex_line("7\t\t")
    assert v.id == 7
    assert v.label is None
    assert v.adj == []


def test_parse_sorts_adjacency():
    v = parse_vertex_line("5\t\t9 2 7")
    assert v.neighbor_ids() == [2, 7, 9]


_PARSE_ERRORS = [
    ("1\tx", "3 tab-separated fields"),
    ("1\tx\ty\tz", "3 tab-separated fields"),
    ("zzz\t\t1", "bad vertex id"),
    ("-2\t\t1", "negative vertex id"),
    ("1\t\t1", "self-loop"),
    ("1\t\t2 2", "duplicate neighbor"),
    ("1\t\t2 x7", "bad neighbor token"),
    ("1\t\t-3", "negative neighbor id"),
    (f"{2**64}\t\t1", f"vertex id {2**64} does not fit in 64 bits"),
    (f"1\t\t{2**64 + 5}", f"neighbor id {2**64 + 5} does not fit"),
]


@pytest.mark.parametrize("line,frag", _PARSE_ERRORS)
def test_parse_errors(line, frag):
    with pytest.raises(GraphParseError, match=frag):
        parse_vertex_line(line, lineno=12)
    # the line number makes it into the message
    with pytest.raises(GraphParseError, match="line 12"):
        parse_vertex_line(line, lineno=12)


def test_parse_accepts_largest_64_bit_ids():
    top = 2**64 - 1
    v = parse_vertex_line(f"{top}\t\t{top - 1}")
    assert (v.id, v.neighbor_ids()) == (top, [top - 1])


def test_read_graph_names_line_of_too_wide_id(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(f"1\t\t2\n2\t\t1 {2**64}\n{2**64}\t\t2\n")
    with pytest.raises(GraphParseError, match="line 2: neighbor id"):
        read_graph(p)


def test_format_parse_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        vid = rng.randrange(1000)
        nbs = sorted(rng.sample([i for i in range(200) if i != vid],
                                rng.randint(0, 12)))
        adj = [AdjItem(nb, rng.choice([None, "a", "bX"])) for nb in nbs]
        label = rng.choice([None, "a", "q"])
        v = Vertex(vid, label, adj)
        assert parse_vertex_line(format_vertex_line(v)) == v


# -- ordering helpers -------------------------------------------------------


def test_larger_neighbors_basic():
    v = Vertex(5, None, [AdjItem(2), AdjItem(7), AdjItem(9)])
    assert larger_neighbor_ids(v) == [7, 9]
    w = Vertex(9, None, [AdjItem(2), AdjItem(7)])
    assert larger_neighbor_ids(w) == []


def test_vertex_from_ids_builds_adjacency_on_first_use():
    plain = Vertex.from_ids(5, "a", [2, 7, 9])
    assert plain.neighbor_ids() == [2, 7, 9]
    assert plain == Vertex(5, "a", [AdjItem(2), AdjItem(7), AdjItem(9)])
    # the adj view is built on each read, and never cached
    assert plain.adj == [AdjItem(2), AdjItem(7), AdjItem(9)]
    assert all(type(a) is AdjItem for a in plain.adj)
    assert plain.adj is not plain.adj
    assert larger_neighbor_ids(plain) == [7, 9]
    assert plain.degree == 3


def test_vertex_accessors_build_neither_representation():
    plain = Vertex.from_ids(5, "a", [2, 7, 9])
    items = Vertex(5, "a", [AdjItem(2), AdjItem(7), AdjItem(9)])
    # both constructors give one form: ids, and no attribute list when
    # no neighbor carries an attribute
    assert plain == items and items == plain
    assert plain.neighbor_attrs() is None and items.neighbor_attrs() is None
    assert Vertex.from_ids(5, "a", [2, 7, 9], [None] * 3).neighbor_attrs() is None
    assert Vertex.from_ids(5, None, []) == Vertex(5, None, []) == Vertex(5)
    assert plain.degree == items.degree == 3
    assert repr(plain) == "<Vertex 5 'a' deg=3>"
    assert plain != Vertex.from_ids(5, "a", [2, 7])
    assert plain != Vertex.from_ids(5, "b", [2, 7, 9])
    labeled = Vertex(5, "a", [AdjItem(2, "x"), AdjItem(7, "y"), AdjItem(9)])
    assert labeled.neighbor_ids() == [2, 7, 9]
    assert labeled.neighbor_attrs() == ["x", "y", None]
    assert labeled.adj == [AdjItem(2, "x"), AdjItem(7, "y"), AdjItem(9)]
    assert labeled != plain and plain != labeled


def test_respond_larger_keeps_the_representation():
    # each hook keeps one side of the vertex's id; the last adjacency of
    # a case carries attributes only on the side the hook drops
    cases = (
        (respond_larger, [7, 9], [AdjItem(7, "y"), AdjItem(9)],
         [AdjItem(2, "x"), AdjItem(7), AdjItem(9)]),
        (respond_smaller, [2], [AdjItem(2, "x")],
         [AdjItem(2), AdjItem(7, "y"), AdjItem(9)]),
    )
    for hook, kept, kept_adj, bare_side in cases:
        plain = Vertex.from_ids(5, "a", [2, 7, 9])
        pruned = hook(plain)
        assert pruned.neighbor_ids() == kept and pruned.label == "a"
        assert pruned == Vertex.from_ids(5, "a", kept)
        assert plain.neighbor_ids() == [2, 7, 9]
        labeled = Vertex(5, "a", [AdjItem(2, "x"), AdjItem(7, "y"), AdjItem(9)])
        assert hook(labeled).adj == kept_adj
        # a slice whose attributes are all None keeps the canonical form
        pruned = hook(Vertex(5, "a", bare_side))
        assert pruned == Vertex.from_ids(5, "a", kept)
        assert pruned.neighbor_attrs() is None


def test_larger_neighbors_matches_filter_oracle():
    rng = random.Random(11)
    for _ in range(200):
        vid = rng.randrange(100)
        nbs = sorted(rng.sample([i for i in range(150) if i != vid],
                                rng.randint(0, 50)))
        v = Vertex(vid, None, [AdjItem(nb) for nb in nbs])
        got = larger_neighbor_ids(v)
        assert got == [nb for nb in nbs if nb > vid]
        smaller = smaller_neighbor_ids(v)
        assert smaller == [nb for nb in nbs if nb < vid]
        # the two parts partition the adjacency
        assert smaller + got == nbs


# -- partitioning ------------------------------------------------------------


def test_partition_owner_single_worker():
    for vid in (0, 1, 42, 10**12):
        assert partition_owner(vid, 1) == 0


def test_partition_owner_deterministic():
    assert partition_owner(42, 8) == partition_owner(42, 8)
    owners = {partition_owner(vid, 8) for vid in range(1000)}
    assert owners == set(range(8))


def test_partition_owner_roughly_uniform():
    # 10^5 ids over 8 workers: each bucket within 5% of the uniform share
    n, w = 100_000, 8
    counts = [0] * w
    for vid in range(n):
        counts[partition_owner(vid, w)] += 1
    share = n / w
    for c in counts:
        assert abs(c - share) <= 0.05 * share


def test_mix64_is_stable():
    # pinned values: partitioning and minhash keys must never drift
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(42) == 0xA759EA27D4727622
    assert mix64(2**64 + 5) == mix64(5)


def test_partition_graph_total_and_disjoint():
    g = gnp_graph(100, 0.1, seed=7)
    tables = partition_graph(g, 4)
    seen = {}
    for wid, table in enumerate(tables):
        for vid in table:
            assert vid not in seen
            seen[vid] = wid
            assert partition_owner(vid, 4) == wid
    assert sorted(seen) == g.ids()


# -- graph io ----------------------------------------------------------------


def test_read_write_round_trip(tmp_path):
    g = gnp_graph(60, 0.15, seed=2, labels=True)
    p1 = tmp_path / "g1.txt"
    p2 = tmp_path / "g2.txt"
    write_graph(g, p1)
    g2 = read_graph(p1)
    write_graph(g2, p2)
    assert p1.read_text() == p2.read_text()
    g3, digest = read_graph_sha256(p2)
    assert digest == hashlib.sha256(p2.read_bytes()).hexdigest()
    assert len(g3) == len(g)
    assert len(g2) == len(g)
    for vid in g.ids():
        assert g2[vid] == g[vid]


def _pair_graph(label=None, attr=None):
    """Vertices 1 and 2, adjacent; vertex 1 has the label, and the
    attribute on its neighbor 2."""
    return Graph({1: Vertex.from_ids(1, label, [2], [attr]),
                  2: Vertex.from_ids(2, None, [1])})


@pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\rb", "\r"])
def test_write_graph_rejects_a_label_that_breaks_the_line(tmp_path, label):
    with pytest.raises(GraphDataError) as e:
        write_graph(_pair_graph(label=label), tmp_path / "g.txt")
    assert str(e.value) == (
        f"vertex 1: label {label!r} holds a tab or a line break")


@pytest.mark.parametrize("attr", ["", " 3", "3 ", "a b", "a\tb", "a\nb",
                                  "\u2003"])
def test_write_graph_rejects_an_attribute_that_splits(tmp_path, attr):
    # " 3" would write `1\t\t2: 3`, which reads back as neighbors 2 and 3
    with pytest.raises(GraphDataError) as e:
        write_graph(_pair_graph(attr=attr), tmp_path / "g.txt")
    assert str(e.value) == (f"vertex 1: attribute {attr!r} of neighbor 2 "
                            f"is empty or holds whitespace")


def test_write_graph_round_trips_what_it_accepts(tmp_path):
    g = Graph()
    g.add(Vertex.from_ids(1, "a b:c", [2, 3], ["x:y", None]))
    g.add(Vertex.from_ids(2, "\u00e9 \x0c#", [1, 3], ["\u00e9", "::"]))
    g.add(Vertex.from_ids(3, None, [1, 2]))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    g2 = read_graph(path)
    assert list(g2.vertices) == [1, 2, 3]
    for v in g:
        assert g2[v.id] == v


def test_read_graph_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header\n\n1\t\t2\n2\t\t1\n")
    g = read_graph(p)
    assert g.ids() == [1, 2]


def test_read_graph_duplicate_vertex(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1\t\t2\n2\t\t1\n1\t\t2\n")
    with pytest.raises(GraphParseError, match="duplicate vertex id 1"):
        read_graph(p)


def test_read_graph_dangling_reference(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1\t\t2 9\n2\t\t1\n")
    with pytest.raises(GraphDataError, match="missing vertex 9"):
        read_graph(p)


# -- the bulk parse path of read_graph -------------------------------------

_FUZZ_IDS = 24  # every file defines vertices 0 .. _FUZZ_IDS - 1
_ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                        "\u0665\u0666\u0667\u0668\u0669")
_FULLWIDTH = str.maketrans("0123456789", "".join(
    chr(0xFF10 + d) for d in range(10)))
_ASCII_DIGITS = re.compile("[0-9]+")
_MUTATIONS = (
    "neg_nb", "neg_vid", "huge_nb", "huge_vid", "max_nb", "dup", "self",
    "empty", "two_fields", "bad_token", "bad_vid", "empty_attr", "attrs",
)


def _spell(rng, n):
    """A spelling of id n that int() reads as n."""
    s = str(n)
    form = rng.randrange(8)
    if form == 0:
        return "+" + s
    if form == 1 and len(s) > 1:
        return s[0] + "_" + s[1:]
    if form == 2:
        return s.translate(_ARABIC)
    if form == 3:
        return s.translate(_FULLWIDTH)
    return s


def _fuzz_line(rng, vid, mutation):
    nbs = rng.sample([i for i in range(_FUZZ_IDS) if i != vid],
                     rng.randint(0, 7))
    toks = [_spell(rng, nb) for nb in nbs]
    vtok = _spell(rng, vid)
    if mutation == "neg_nb":
        toks.insert(rng.randrange(len(toks) + 1), f"-{rng.randrange(1, 9)}")
    elif mutation == "neg_vid":
        vtok = f"-{vid + 1}"
    elif mutation == "huge_nb":
        toks.append(str(2 ** 64 + rng.randrange(3)))
    elif mutation == "huge_vid":
        vtok = str(2 ** 64 + vid)
    elif mutation == "max_nb":
        toks.append(str(2 ** 64 - 1))
    elif mutation == "dup" and toks:
        toks.insert(rng.randrange(len(toks) + 1), _spell(rng, nbs[0]))
    elif mutation == "self":
        toks.insert(rng.randrange(len(toks) + 1), _spell(rng, vid))
    elif mutation == "empty":
        toks = []
    elif mutation == "bad_token":
        bad = rng.choice(["x7", "7x", "1.0", "--3"])
        toks.insert(rng.randrange(len(toks) + 1), bad)
    elif mutation == "bad_vid":
        vtok = rng.choice(["v7", "", "1e3"])
    elif mutation == "empty_attr" and toks:
        toks[0] += ":"
    elif mutation == "attrs":
        toks = [t + ":" + rng.choice("abc") if rng.random() < 0.6 else t
                for t in toks]
    sep = rng.choice([" ", " ", "  ", "\x0c", "\u2003"])
    label = rng.choice(["", "", "a", "lbl"])
    if mutation == "two_fields":
        return f"{vtok}\t{label}"
    return f"{vtok}\t{label}\t{sep.join(toks)}"


def _reference_load(path):
    """What read_graph must give, through parse_vertex_line alone: the
    vertices or the error message, and how many of the lines read up to
    there read_graph must hand to parse_vertex_line: every line that
    fails, and every valid one the bulk parse does not take (one with a
    `:`, an id spelled other than in ASCII digits, or a character that
    is not ASCII in its neighbor field)."""
    vertices = {}
    slow = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                v = parse_vertex_line(line, lineno=lineno)
            except GraphParseError as e:
                return f"{path}: {e}", slow + 1
            vid_s, _, nbs_s = line.rstrip("\n").split("\t")
            if not (nbs_s.isascii() and all(
                    map(_ASCII_DIGITS.fullmatch, [vid_s, *nbs_s.split()]))):
                slow += 1
            if v.id in vertices:
                return (f"{path}: line {lineno}: duplicate vertex id {v.id}",
                        slow)
            vertices[v.id] = v
    return vertices, slow


def test_bulk_parse_matches_parse_vertex_line(tmp_path, monkeypatch):
    calls = []

    def counting_parse(line, lineno=None):
        calls.append(lineno)
        return parse_vertex_line(line, lineno)

    monkeypatch.setattr(graph_module, "parse_vertex_line", counting_parse)
    rng = random.Random(2024)
    outcomes = {m: set() for m in _MUTATIONS}
    for case in range(400):
        order = list(range(_FUZZ_IDS))
        rng.shuffle(order)
        mutated = {}
        for vid in rng.sample(order, rng.randint(0, 2)):
            mutated[vid] = rng.choice(_MUTATIONS)
        plain = "attrs" if rng.random() < 0.2 else None  # unmutated lines
        lines = [_fuzz_line(rng, vid, mutated.get(vid, plain)) for vid in order]
        lines.append(f"{2 ** 64 - 1}\t\t")  # the target of max_nb
        if rng.random() < 0.3:
            filler = rng.choice(["# note", "", " \t"])
            lines.insert(rng.randrange(len(lines)), filler)
        path = tmp_path / f"g{case}.txt"
        eol = rng.choice(["\n", "\r\n"])
        path.write_bytes(eol.join(lines).encode("utf-8"))

        want, slow = _reference_load(path)
        calls.clear()
        if isinstance(want, str):
            with pytest.raises(GraphParseError) as err:
                read_graph(path)
            assert str(err.value) == want
        else:
            g = read_graph(path)
            assert list(g.vertices) == list(want)
            for vid, v in want.items():
                assert g[vid] == v
        # the lines the bulk parse takes took it, and only they
        assert len(calls) == slow
        for m in set(mutated.values()):
            outcomes[m].add(isinstance(want, str))
    # every mutation was drawn, and the ones that break a line did break one
    assert all(outcomes.values()), outcomes
    for m in ("neg_nb", "neg_vid", "huge_nb", "huge_vid", "self",
              "two_fields", "bad_token", "bad_vid"):
        assert outcomes[m] == {True}, m
    assert False in outcomes["max_nb"] and False in outcomes["empty"]


# -- read_graph on both kernel backends ---------------------------------------


@pytest.fixture(params=["pure", "compiled"])
def id_parser(request, monkeypatch):
    """read_graph with the bulk parse of one backend."""
    kernel = pure_kernels.parse_id_lines
    if request.param == "compiled":
        kernel = request.getfixturevalue("compiled").parse_id_lines
    monkeypatch.setattr(graph_module, "parse_id_lines", kernel)
    return request.param


def _line_by_line_read(path):
    """read_graph as a loop over the lines through parse_vertex_line:
    the vertices in file order and the digest, or the type and message
    of the first error."""
    vertices, linenos = {}, {}
    try:
        with open(path, encoding="utf-8") as text:
            for lineno, line in enumerate(text, 1):
                if line.isspace() or line.startswith("#"):
                    continue
                try:
                    v = parse_vertex_line(line, lineno)
                except GraphParseError as e:
                    return GraphParseError, f"{path}: {e}"
                if v.id in vertices:
                    return (GraphParseError, f"{path}: line {lineno}: "
                            f"duplicate vertex id {v.id}")
                vertices[v.id] = v
                linenos[v.id] = lineno
    except UnicodeDecodeError as e:
        return GraphParseError, f"{path}: not UTF-8 text: {e.reason}"
    for v in vertices.values():
        for nb in v.neighbor_ids():
            if nb not in vertices:
                return GraphDataError, (
                    f"{path}: line {linenos[v.id]}: vertex {v.id} "
                    f"references missing vertex {nb}")
    return vertices, hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_reads_line_by_line(path):
    want = _line_by_line_read(path)
    if not isinstance(want[0], dict):
        error, message = want
        with pytest.raises(error) as e:
            read_graph_sha256(path)
        assert str(e.value) == message
        return
    g, digest = read_graph_sha256(path)
    assert digest == want[1]
    assert list(g.vertices) == list(want[0])
    for vid, v in want[0].items():
        assert g[vid] == v


def _write_with_eols(tmp_path, name, text):
    """text as a file with each of the three line ends."""
    paths = []
    for tag, eol in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}-{tag}.txt"
        path.write_bytes(text.replace("\n", eol).encode("utf-8"))
        paths.append(path)
    return paths


_TOP_ID = 2**64 - 1
_ODD_GRAPH = "\n".join([
    "# header", "", "   \t ", "#\t1\t2",
    f"0\t\t{_TOP_ID} 7",              # the range's ends take the bulk path
    f"{_TOP_ID}\t\t0",
    "7\ta label\t12 0 9",              # unsorted, a label with spaces
    "+9\t\t 7",                        # these ids take parse_vertex_line
    " 12\tlab\t7",
    "5_0\t\t",
    "51\tx\t",                         # an empty neighbor field
    "52\t\t 51\x0b  50\x1c",
]) + "\n"


def test_read_graph_matches_line_by_line_on_both_backends(tmp_path, id_parser):
    texts = {f"model{i}": "".join(format_vertex_line(g[vid]) + "\n"
                                  for vid in g.ids())
             for i, g in enumerate(model_graphs())}
    texts["odd"] = _ODD_GRAPH
    texts["odd-non-ascii"] = _ODD_GRAPH + "60\t\u00e9\t9 \u0667\n"
    texts["no-final-newline"] = "1\t\t2\n2\ta\t1"
    for name, text in texts.items():
        for path in _write_with_eols(tmp_path, name, text):
            _assert_reads_line_by_line(path)


def test_read_graph_reads_in_pieces_of_whole_lines(tmp_path, monkeypatch,
                                                  id_parser):
    # pieces of a few characters end inside lines and between the \r and
    # the \n of a CRLF; readline() finishes each line
    monkeypatch.setattr(graph_module, "PIECE_CHARS", 3)
    texts = {f"model{i}": "".join(format_vertex_line(g[vid]) + "\n"
                                  for vid in g.ids())
             for i, g in enumerate(model_graphs()[1:4])}
    texts.update({
        "odd": _ODD_GRAPH + "60\t\u00e9\t9 \u0667\n",
        "error": "1\t\t2\n2\t\t1\n\n1\tx\t2\n"})
    for name, text in texts.items():
        for path in _write_with_eols(tmp_path, name, text):
            _assert_reads_line_by_line(path)


@pytest.mark.parametrize("text", [
    *(f"1\t\t2\n2\t\t1\n{line}\n3\t\t1\n" for line, _ in _PARSE_ERRORS),
    "1\t\t2\n2\t\t1\n1\t\t2\n",           # a repeated id, both bulk
    "1\t\t2\n2\t\t1\n01\t\t2\n",          # the same, spelled otherwise
    "1\t\t2:a\n2\t\t1\n1\t\t2:b\n",       # both through parse_vertex_line
    "1\t\t2\n2\t\t1\n1\tx\t2:a\n",        # bulk, then parse_vertex_line
    "1\t\t2:a\n2\t\t1\n1\t\t2\n",         # the other way: line 3 is named
    "1\t\t2:a\n2\t\t1\n1\t\t2\nzzz\t\t1\n",  # the repeat comes first
    "1\t\t2\nzzz\t\t1\n1\t\t2\n",         # the bad line comes first
    "1\t\t2 9\n2\t\t1\n",                  # dangling, from a bulk line
    "1\t\t2:a 9\n2\t\t1\n",                # from a parse_vertex_line line
    "# c\n\n2\t\t1:x\n1\t\t2 9\n",          # named by its line
    "2\t\t1 8\n1\t\t2:a 9\n",               # the first in file order
    "1\t\u00e9\t2 9\n2\t\t1\n",              # text that is not ASCII
    "1\t\t2\n2\t\t1 \u0663\n",
])
def test_read_graph_errors_match_line_by_line(tmp_path, id_parser, text):
    for path in _write_with_eols(tmp_path, "g", text):
        _assert_reads_line_by_line(path)


def test_read_graph_rejects_non_utf8_before_parsing(tmp_path, id_parser):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"1\t\t2\n2\t\xff\t1\n")
    _assert_reads_line_by_line(path)
    # no line's error is raised before the whole text has decoded, so a
    # file that is not UTF-8 reads as such even when an earlier line, in
    # the same piece of text or in an earlier one, is bad
    filler = "".join(f"{i}\t\t\n" for i in range(10, 20_000)).encode()
    for data in (b"zzz\t\t1\n\xc3", b"zzz\t\t1\n" + filler + b"\xc3"):
        path.write_bytes(data)
        with pytest.raises(GraphParseError) as e:
            read_graph(path)
        assert str(e.value) == (
            f"{path}: not UTF-8 text: unexpected end of data")


def test_read_graph_shares_id_objects(tmp_path, monkeypatch, compiled):
    monkeypatch.setattr(graph_module, "parse_id_lines",
                        compiled.parse_id_lines)
    for i, g in enumerate(model_graphs()):
        path = tmp_path / f"g{i}.txt"
        write_graph(g, path)
        seen = {}
        for v in read_graph(path):
            for x in (v.id, *v.neighbor_ids()):
                assert seen.setdefault(x, x) is x


def test_check_undirected():
    g = complete_graph(4)
    check_undirected(g)
    bad = Graph()
    bad.add(Vertex(1, None, [AdjItem(2)]))
    bad.add(Vertex(2, None, []))
    with pytest.raises(GraphDataError, match="not symmetric"):
        check_undirected(bad)


def test_check_undirected_down_edge_without_reverse():
    # 2 -> 1 is a down-edge that no up-edge 1 -> 2 matches, so the fast
    # pass reaches vertex 2 with its cursor short of its down-prefix
    bad = Graph()
    bad.add(Vertex(1, None, [AdjItem(3)]))
    bad.add(Vertex(2, None, [AdjItem(1)]))
    bad.add(Vertex(3, None, [AdjItem(1)]))
    with pytest.raises(GraphDataError, match=r"edge \(2,1\) is not symmetric"):
        check_undirected(bad)
    bad.vertices[1] = Vertex(1, None, [AdjItem(2), AdjItem(3)])
    check_undirected(bad)
    bad.add(Vertex(9, None, [AdjItem(4)]))  # a down-edge to a missing vertex
    with pytest.raises(GraphDataError, match="vertex 9 references missing 4"):
        check_undirected(bad)


def test_check_undirected_names_the_same_edge_as_a_full_scan():
    rng = random.Random(5)
    for trial in range(60):
        g = gnp_graph(25, 0.2, seed=trial)
        for _ in range(rng.randint(1, 3)):
            v = g[rng.choice(g.ids())]
            adj = list(v.adj)
            if adj and rng.random() < 0.5:
                adj.pop(rng.randrange(len(adj)))
            else:
                w = rng.randrange(26)  # 25 is not a vertex
                if w != v.id and w not in v.neighbor_ids():
                    adj = sorted(adj + [AdjItem(w)])
            g.vertices[v.id] = Vertex(v.id, v.label, adj)
        try:
            _check_every_edge(g)
            expected = None
        except GraphDataError as e:
            expected = str(e)
        try:
            check_undirected(g)
            got = None
        except GraphDataError as e:
            got = str(e)
        assert got == expected


@pytest.fixture(params=["pure", "compiled"])
def symmetry_kernel(request, monkeypatch):
    """check_undirected's fast pass, on each backend in turn."""
    if request.param == "pure":
        kernel = pure_kernels.edges_symmetric
    else:
        kernel = request.getfixturevalue("compiled").edges_symmetric
    monkeypatch.setattr(graph_module, "edges_symmetric", kernel)
    return kernel


@pytest.mark.parametrize("rows, message", [
    ({1: [1, 2], 2: [1]}, "vertex 1 has a self-loop"),
    ({1: [2, 2], 2: [1, 1]},
     "neighbor ids of vertex 1 are not strictly ascending"),
    ({1: [3, 2], 2: [1], 3: [1]},
     "neighbor ids of vertex 1 are not strictly ascending"),
], ids=["self_loop", "repeated", "unsorted"])
def test_check_undirected_rejects_bad_rows(symmetry_kernel, rows, message):
    # built in code, so the parser's checks never ran
    g = Graph()
    for vid, nbs in rows.items():
        g.add(Vertex.from_ids(vid, None, nbs))
    ids = sorted(rows)
    assert symmetry_kernel(ids, [rows[v] for v in ids]) is False
    with pytest.raises(GraphDataError, match=f"^{message}$"):
        check_undirected(g)


@pytest.mark.parametrize("start,ok", [
    (2**64 - 3, True),
    (2**64 - 2, False),   # the last vertex is 2**64
    (-1, False),
])
def test_check_undirected_id_range(start, ok):
    # built in code, so the parser's range check never ran
    g = complete_graph(3, start_id=start)
    if ok:
        check_undirected(g)
    else:
        with pytest.raises(GraphDataError, match="does not fit in 64 bits"):
            check_undirected(g)


def test_graph_stats_and_duplicates():
    g = complete_graph(4)
    assert g.num_vertices == 4
    with pytest.raises(GraphDataError, match="duplicate"):
        g.add(Vertex(1))


def test_read_graph_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"1\t\t2\n2\t\xff\t1\n")
    with pytest.raises(GraphParseError, match="not UTF-8") as e:
        read_graph(path)
    assert str(e.value).startswith(f"{path}: not UTF-8 text")


# -- subgraph ----------------------------------------------------------------


def test_subgraph_basics():
    sg = Subgraph()
    sg.add_vertex(1, "a")
    sg.add_vertex(2)
    sg.add_edge(1, 2)
    assert 1 in sg and 2 in sg and 3 not in sg
    assert sg.has_edge(1, 2) and sg.has_edge(2, 1)
    assert not sg.has_edge(1, 3)
    assert sg.vertices_sorted() == [1, 2]
    assert len(sg) == 2
    # re-adding with a label fills a previously unknown one, never clobbers
    sg.add_vertex(2, "b")
    assert sg.labels[2] == "b"
    sg.add_vertex(1, "z")
    assert sg.labels[1] == "a"
    assert sg.neighbors(1) == {2}
    assert sg.neighbors(9) == set()
