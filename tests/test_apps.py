"""The five mining apps against brute-force oracles and known answers."""

import dataclasses
import random
from fractions import Fraction

import pytest

from submine.apps import APP_NAMES, cliques, make_app
from submine.apps.cliques import _bits, _ego_rows
from submine.apps.gmatch import QueryGraph, fig4_query, parse_query_file
from submine.engine import ComputeError, RunConfig, run_job
from submine.gen import (
    complete_graph,
    fig4_data_graph,
    gnp_graph,
    labeled_gnp_graph,
    path_graph,
    star_graph,
)
from submine.graph import AdjItem, Graph, GraphParseError, Vertex, partition_owner

from oracles import (
    match_bf,
    max_clique_bf,
    maximal_cliques_bf,
    quasi_cliques_bf,
    quasi_cliques_unpruned,
    tri_count_bf,
)


def _graph_from_edges(edges, extra_ids=(), labels=None):
    ids = set(extra_ids)
    for a, b in edges:
        ids.add(a)
        ids.add(b)
    adj = {v: [] for v in ids}
    for a, b in edges:
        la = labels.get(a) if labels else None
        lb = labels.get(b) if labels else None
        adj[a].append(AdjItem(b, lb))
        adj[b].append(AdjItem(a, la))
    g = Graph()
    for v in sorted(ids):
        g.add(Vertex(v, labels.get(v) if labels else None, sorted(adj[v])))
    return g


def _run(app, graph, workers=3, **kw):
    return run_job(RunConfig(workers=workers, **kw), app, graph=graph)


def _result_sets(res):
    return {frozenset(int(x) for x in line.split()) for line in res.result_lines()}


# -- triangle --------------------------------------------------------------------


@pytest.mark.parametrize("graph,want", [
    (complete_graph(3), 1),
    (complete_graph(4), 4),
    (complete_graph(5), 10),
    (path_graph(4), 0),
    (star_graph(6), 0),
])
def test_triangle_known_counts(graph, want):
    assert _run(make_app("triangle"), graph).aggregate == want


def test_triangle_emit_mode_lists_each_once():
    res = _run(make_app("triangle", emit_triangles=True), complete_graph(4))
    lines = sorted(res.result_lines())
    assert lines == ["1 2 3", "1 2 4", "1 3 4", "2 3 4"]
    for line in lines:
        a, b, c = map(int, line.split())
        assert a < b < c


def test_triangle_pruned_and_unpruned_agree():
    g = gnp_graph(60, 0.15, seed=21)
    a = _run(make_app("triangle"), g).aggregate
    b = _run(dataclasses.replace(make_app("triangle"), respond=None), g).aggregate
    assert a == b == tri_count_bf(g)


@pytest.mark.parametrize("base", [2**63 - 1, 2**63, 2**64 - 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_triangle_ids_beyond_int64(base, workers):
    # ids at and past 2**63 overflow the compiled kernel's int64 arrays;
    # the answer must not depend on which backend is loaded
    g = complete_graph(3, start_id=base)
    assert _run(make_app("triangle"), g, workers=workers).aggregate == 1
    res = _run(make_app("triangle", emit_triangles=True), g, workers=workers)
    assert res.result_lines() == [f"{base} {base + 1} {base + 2}"]


@pytest.mark.parametrize("workers", [1, 3])
def test_triangle_oracle_loop(workers):
    for s in range(10):
        g = gnp_graph(40, 0.15, seed=800 + s)
        assert _run(make_app("triangle"), g, workers=workers).aggregate \
            == tri_count_bf(g)


# -- maximum clique ----------------------------------------------------------------


def test_maxclique_known_answers():
    assert _run(make_app("maxclique"), complete_graph(5)).aggregate \
        == (5, (1, 2, 3, 4, 5))
    # two K4s joined by a bridge edge: still size 4, first K4 wins the tie
    edges = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(10, 14) for j in range(i + 1, 14)]
    edges.append((4, 10))
    g = _graph_from_edges(edges)
    size, wit = _run(make_app("maxclique"), g).aggregate
    assert size == 4
    assert wit == (1, 2, 3, 4)
    # star: the best clique is a single edge
    assert _run(make_app("maxclique"), star_graph(5)).aggregate[0] == 2
    # no edges at all: a lone vertex is a clique of size 1
    g1 = _graph_from_edges([], extra_ids=(3, 7, 9))
    assert _run(make_app("maxclique"), g1).aggregate == (1, (3,))


def _check_witness(g, size, wit):
    assert len(wit) == size == len(set(wit))
    for i, a in enumerate(wit):
        nbs = set(g[a].neighbor_ids())
        for b in wit[i + 1:]:
            assert b in nbs


def test_maxclique_oracle_loop():
    for s in range(8):
        g = gnp_graph(30, 0.3, seed=900 + s)
        size, wit = _run(make_app("maxclique"), g).aggregate
        assert size == max_clique_bf(g)
        _check_witness(g, size, wit)


def test_maxclique_unpruned_agrees():
    g = gnp_graph(30, 0.3, seed=17)
    assert _run(make_app("maxclique"), g).aggregate \
        == _run(dataclasses.replace(make_app("maxclique"), respond=None),
                g).aggregate


# -- maximal cliques ----------------------------------------------------------------


def _rows_bf(members, adj, scanned=None):
    """Ego-net rows read straight off each member's full neighbor set;
    given `scanned`, an edge counts only when one of its ends is in it."""
    pos = {u: i for i, u in enumerate(members)}
    rows = []
    for a in members:
        row = 0
        for b in adj[a]:
            if b in pos and (scanned is None or a in scanned or b in scanned):
                row |= 1 << pos[b]
        rows.append(row)
    return rows


def _random_adjacency(rng, ids, p):
    adj = {u: set() for u in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if rng.random() < p:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _larger_scans(members, adj):
    return [(u, sorted(w for w in adj[u] if w > u)) for u in members]


def _smaller_scans(members, adj):
    return [(u, sorted(w for w in adj[u] if w < u)) for u in members]


def test_ego_rows_match_brute_force_on_random_nets():
    rng = random.Random(23)
    for _ in range(60):
        ids = list({rng.getrandbits(64) for _ in range(rng.randint(1, 40))}
                   | {0, 2 ** 64 - 1})
        adj = _random_adjacency(rng, ids, rng.choice((0.05, 0.3, 0.8)))
        members = rng.sample(ids, rng.randint(1, len(ids)))
        want = _rows_bf(members, adj)
        assert _ego_rows(members, _larger_scans(members, adj)) == want
        assert _ego_rows(members, _smaller_scans(members, adj)) == want
        full = [(u, sorted(adj[u])) for u in members]
        assert _ego_rows(members, full) == want
        # a net whose lists are only partly pulled
        scanned = set(rng.sample(members, rng.randint(0, len(members))))
        assert _ego_rows(members, [s for s in full if s[0] in scanned]) \
            == _rows_bf(members, adj, scanned)


def test_ego_rows_of_an_empty_frontier():
    assert _ego_rows([], []) == []
    assert _ego_rows([7, 9], []) == [0, 0]


def test_ego_rows_match_brute_force_on_a_hub_net_wider_than_4096():
    rng = random.Random(5)
    members = sorted({rng.getrandbits(64) for _ in range(4500)})
    adj = {u: set() for u in members}
    for a in members:
        for b in rng.sample(members, 3):
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
    rows = _ego_rows(members, _larger_scans(members, adj))
    assert rows == _rows_bf(members, adj)
    assert max(rows).bit_length() > 4096


def _per_neighbor_maximal_call(g, vid):
    """maximalcliques' kernel arguments for the seed at vid, built with
    one loop per neighbor as the app once did."""
    v = g[vid]
    universe = [v.id] + v.neighbor_ids()
    idx = {u: i for i, u in enumerate(universe)}
    rows = [0] * len(universe)
    p_mask = x_mask = 0
    for w in v.neighbor_ids():
        rows[0] |= 1 << idx[w]
        rows[idx[w]] |= 1
        if w > v.id:
            p_mask |= 1 << idx[w]
        else:
            x_mask |= 1 << idx[w]
    for w in v.neighbor_ids():
        if w > v.id:
            for u in g[w].neighbor_ids():
                if u in idx:
                    rows[idx[w]] |= 1 << idx[u]
                    rows[idx[u]] |= 1 << idx[w]
    return len(universe), tuple(rows), p_mask, x_mask


def test_maximal_masks_match_the_per_neighbor_loop(monkeypatch):
    # 5 has neighbors on both sides, 1 only above, 9 only below
    g = _graph_from_edges([(1, 2), (1, 5), (1, 8), (2, 3), (2, 5), (3, 5),
                           (3, 9), (5, 8), (5, 9), (8, 9)], extra_ids=(4,))
    assert [w < 5 for w in g[5].neighbor_ids()] == [True] * 3 + [False] * 2
    assert min(g[1].neighbor_ids()) > 1 and max(g[9].neighbor_ids()) < 9
    calls = []
    kernel = cliques.maximal_cliques

    def record(n, rows, p_mask, x_mask):
        calls.append((n, tuple(rows), p_mask, x_mask))
        return kernel(n, rows, p_mask, x_mask)

    monkeypatch.setattr(cliques, "maximal_cliques", record)
    res = _run(make_app("maximalcliques"), g, workers=2)
    assert sorted(calls) == sorted(_per_neighbor_maximal_call(g, v)
                                   for v in g.ids())
    assert _result_sets(res) == maximal_cliques_bf(g)


@pytest.mark.parametrize("workers", [2, 3])
def test_maximal_pruned_and_unpruned_agree(workers):
    # responses keep only the smaller neighbors; the seed's own list is
    # local and stays full
    g = gnp_graph(40, 0.25, seed=23)
    a = _run(make_app("maximalcliques"), g, workers=workers)
    b = _run(dataclasses.replace(make_app("maximalcliques"), respond=None), g,
             workers=workers)
    assert a.metrics["vertices_served"] > 0
    assert sorted(a.result_lines()) == sorted(b.result_lines())
    assert _result_sets(a) == maximal_cliques_bf(g)
    assert a.aggregate == b.aggregate == len(maximal_cliques_bf(g))


def test_clique_bits_match_a_reference_on_wide_masks():
    rng = random.Random(11)
    assert _bits(0) == []
    for _ in range(200):
        width = rng.randint(1, 10_000)
        mask = 0
        for i in rng.sample(range(width), rng.randint(0, min(width, 40))):
            mask |= 1 << i
        if rng.random() < 0.2:
            mask |= (1 << width) - 1 if width <= 300 else 1 << (width - 1)
        want = [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]
        assert _bits(mask) == want


def test_maximal_known_answers():
    res = _run(make_app("maximalcliques"), complete_graph(4))
    assert res.aggregate == 1
    assert res.result_lines() == ["1 2 3 4"]
    # the K4 line is attributed to its smallest member
    assert res.emitted[0][1] == 1
    # triangle with a pendant: {0,1,2} and {2,3}
    g = _graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
    res = _run(make_app("maximalcliques"), g)
    assert _result_sets(res) == {frozenset({0, 1, 2}), frozenset({2, 3})}
    assert res.aggregate == 2
    # isolated vertices are maximal singletons
    g1 = _graph_from_edges([(1, 2)], extra_ids=(9,))
    res = _run(make_app("maximalcliques"), g1)
    assert _result_sets(res) == {frozenset({1, 2}), frozenset({9})}


def test_maximal_oracle_loop():
    for s in range(8):
        g = gnp_graph(25, 0.3, seed=1000 + s)
        res = _run(make_app("maximalcliques"), g)
        assert _result_sets(res) == maximal_cliques_bf(g)
        assert res.aggregate == len(maximal_cliques_bf(g))


def test_maximal_lines_attributed_to_min_vertex():
    g = gnp_graph(30, 0.25, seed=31)
    res = _run(make_app("maximalcliques"), g, workers=4)
    for _wid, seed_id, line in res.emitted:
        members = [int(x) for x in line.split()]
        assert members == sorted(members)
        assert members[0] == seed_id


# -- quasi-cliques -------------------------------------------------------------------


def test_quasi_known_answers():
    res = _run(make_app("quasiclique", gamma="0.8", min_size=4),
               complete_graph(4))
    assert _result_sets(res) == {frozenset({1, 2, 3, 4})}
    # a star has no gamma>=0.5 set of size 3: leaves are non-adjacent
    res = _run(make_app("quasiclique", gamma="0.6", min_size=3), star_graph(5))
    assert res.aggregate == 0
    # K4 at gamma=1 min_size=2: every clique subset of size >= 2 qualifies
    res = _run(make_app("quasiclique", gamma="1", min_size=2),
               complete_graph(4))
    assert res.aggregate == 11  # 6 edges + 4 triangles + K4 itself


@pytest.mark.parametrize("gamma,min_size", [("0.6", 4), ("0.5", 4),
                                            (Fraction(3, 4), 3)])
def test_quasi_oracle_loop(gamma, min_size):
    for s in range(6):
        g = gnp_graph(16, 0.4, seed=1100 + s)
        res = _run(make_app("quasiclique", gamma=gamma, min_size=min_size), g)
        want = quasi_cliques_bf(g, Fraction(gamma), min_size)
        assert _result_sets(res) == want
        assert res.aggregate == len(want)


QUASI_GAMMAS = (Fraction(1, 2), Fraction(51, 100), Fraction(3, 5),
                Fraction(2, 3), Fraction(3, 4), Fraction(9, 10), Fraction(1))


def test_quasi_matches_unpruned_search():
    """The pruned search against the old ego-net search on graphs past
    the brute-force oracle's 24-vertex cap, for gamma from 1/2 to 1,
    min_size 1-6, 1-3 workers, tiny and unbounded caches.  Sparser as
    they grow, so the unpruned side stays cheap."""
    rng = random.Random(2024)
    seeds_before = seeds_after = hop2_before = hop2_after = results = 0
    for i in range(120):
        gamma = QUASI_GAMMAS[i % len(QUASI_GAMMAS)]
        min_size = 1 + i % 6
        n = rng.randint(8, 30)
        g = gnp_graph(n, rng.uniform(0.05, min(0.45, 6 / n)),
                      seed=rng.randrange(10**6))
        cfg = RunConfig(workers=1 + i % 3, buffer_capacity=4,
                        cache_capacity=6 if i % 2 else 1_000_000)
        res = run_job(cfg, make_app("quasiclique", gamma=gamma,
                                    min_size=min_size), graph=g)
        want = quasi_cliques_unpruned(g, gamma, min_size)
        assert _result_sets(res) == want, (i, gamma, min_size)
        assert res.aggregate == len(res.result_lines()) == len(want)
        results += len(want)
        # what the unpruned search would have seeded and pulled
        for v in g.ids():
            gt = [w for w in g[v].neighbor_ids() if w > v]
            if gt or min_size == 1:
                seeds_before += 1
                if any(x > v and x not in gt
                       for f in gt for x in g[f].neighbor_ids()):
                    hop2_before += 1
        seeds_after += res.metrics["tasks_seeded"]
        hop2_after += res.metrics["compute_calls"] - res.metrics["tasks_seeded"]
    # the rules fire on these graphs, and the answers still agree
    assert seeds_after < seeds_before
    assert hop2_after < hop2_before
    assert results > 1000


def _requested_ids(res):
    return {vid for trace in res.traces for ev in trace if ev[0] == "request"
            for vid in ev[4]}


def test_quasi_seed_bound():
    # gamma=0.6, min_size=4: a seed needs ceil(0.6 * 3) = 2 larger neighbors
    app = make_app("quasiclique", gamma="0.6", min_size=4)
    assert _run(app, path_graph(6)).metrics["tasks_seeded"] == 0
    res = _run(app, complete_graph(4))
    assert res.metrics["tasks_seeded"] == 2   # vertices 1 and 2
    assert res.aggregate == 1


def test_quasi_pendant_hop2_vertex_is_pulled_only_at_one_half():
    # K4 plus vertex 5 hanging off 4: for the seeds 1 and 2, vertex 5 is a
    # 2-hop candidate with a single link into their neighborhood
    k4 = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    with_pendant = _graph_from_edges(k4 + [(4, 5)])
    assert partition_owner(1, 2) != partition_owner(5, 2)  # a remote pull

    def run(gamma, g):
        return _run(make_app("quasiclique", gamma=gamma, min_size=4), g,
                    workers=2, collect_trace=True)

    for gamma, pulled in (("0.6", False), ("0.5", True)):
        res = run(gamma, with_pendant)
        base = run(gamma, _graph_from_edges(k4))
        assert (5 in _requested_ids(res)) is pulled
        more = res.metrics["vertices_requested"] - base.metrics["vertices_requested"]
        assert (more > 0) is pulled
        assert _result_sets(res) == _result_sets(base)


def test_quasi_peel_ends_task_without_a_pull():
    # seed 0's neighbors 1 and 2 each reach one 2-hop vertex (3, 4) with a
    # single link: both 2-hop vertices go, then 1 and 2 fall below 2
    g = _graph_from_edges([(0, 1), (0, 2), (1, 3), (2, 4)])
    res = _run(make_app("quasiclique", gamma="0.6", min_size=4), g, workers=1)
    assert res.metrics["tasks_seeded"] == 1
    assert res.metrics["compute_calls"] == 1
    assert res.aggregate == 0


def test_quasi_far_corner_of_a_four_cycle_is_kept():
    # 1-2-3-4-1: vertex 3 is 2 hops from seed 1 with two links into {2, 4}
    g = _graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
    for workers in (1, 2):
        res = _run(make_app("quasiclique", gamma="0.6", min_size=4), g,
                   workers=workers)
        assert _result_sets(res) == {frozenset({1, 2, 3, 4})}


def test_quasi_gamma_forms():
    g = gnp_graph(14, 0.45, seed=55)
    outs = {
        str(_result_sets(_run(make_app("quasiclique", gamma=form, min_size=3), g)))
        for form in ("0.6", 0.6, Fraction(3, 5))
    }
    assert len(outs) == 1


def test_quasi_parameter_validation():
    with pytest.raises(ValueError, match="gamma"):
        make_app("quasiclique", gamma="0.3", min_size=3)
    with pytest.raises(ValueError, match="gamma"):
        make_app("quasiclique", gamma="1.2", min_size=3)
    with pytest.raises(ValueError, match="min_size"):
        make_app("quasiclique", gamma="0.6", min_size=0)
    with pytest.raises(ValueError, match="needs gamma"):
        make_app("quasiclique")


# -- graph matching ------------------------------------------------------------------


def test_fig4_replica_matches_exactly_once():
    res = _run(make_app("gmatch", query=fig4_query()), fig4_data_graph(),
               workers=2)
    lines = res.result_lines()
    assert lines == ["2 5 4 7 8"]  # the 25478 assignment
    assert "2 5 1 7 8" not in lines  # 25178 must not appear
    assert res.aggregate == 1


def _gmatch_oracle_loop(queries):
    # small caches and queue files make tasks requeue and the cache evict;
    # each query is checked on its own graphs at 1 and 3 workers
    totals = dict.fromkeys(("tasks_requeued", "cache_evictions"), 0)
    found = 0
    for qi, q in queries:
        for s in range(3):
            g = labeled_gnp_graph(30, 0.18, seed=1300 + 10 * qi + s,
                                  alphabet="abcd")
            want = match_bf(g, q)
            found += len(want)
            for workers in (1, 3):
                res = _run(make_app("gmatch", query=q), g, workers=workers,
                           cache_capacity=4, buffer_capacity=4,
                           file_capacity=2)
                lines = res.result_lines()
                got = {tuple(int(x) for x in line.split()) for line in lines}
                assert got == want, (qi, s, workers)
                assert len(lines) == res.aggregate == len(want)
                for key in totals:
                    totals[key] += res.metrics[key]
    assert found > 0
    assert all(totals.values()), totals


def test_gmatch_bowtie_oracle_loop():
    # the Fig. 4 bowtie goes through the same query-directed pipeline
    _gmatch_oracle_loop([(0, fig4_query())])


def test_gmatch_generic_pipeline_oracle_loop():
    queries = [
        QueryGraph({1: "a", 2: "b"}, [(1, 2)]),
        QueryGraph({1: "a", 2: "b", 3: "c"}, [(1, 2), (2, 3), (1, 3)]),
        QueryGraph({1: "a", 2: "a", 3: "a"}, [(1, 2), (2, 3), (1, 3)]),
        QueryGraph({1: "a", 2: "b", 3: "a", 4: "b", 5: "c"},
                   [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
        QueryGraph({1: "b"}, []),
        QueryGraph({1: "b", 2: "a", 3: "b", 4: "c"},
                   [(1, 2), (2, 3), (3, 4)], start=2),
        # a, b, b, c, d like the bowtie, but a 4-cycle with a tail
        QueryGraph({1: "a", 2: "b", 3: "b", 4: "c", 5: "d"},
                   [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]),
        QueryGraph({1: "b", 2: "a", 3: "c", 4: "b"},
                   [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], start=3),
    ]
    _gmatch_oracle_loop(list(enumerate(queries, start=1)))


def test_gmatch_unlabeled_graph_matches_nothing():
    q = QueryGraph({1: "a", 2: "b"}, [(1, 2)])
    g = gnp_graph(10, 0.5, seed=1)  # unlabeled: None never equals a label
    res = _run(make_app("gmatch", query=q), g)
    assert res.aggregate == 0
    assert res.result_lines() == []


def test_gmatch_needs_neighbor_labels_local_or_pulled():
    # vertex 2 lacks neighbor labels; it is pulled (and expanded) for 2
    q = QueryGraph({1: "a", 2: "b", 3: "b"}, [(1, 2), (2, 3)])
    g = Graph()
    g.add(Vertex(1, "a", [AdjItem(2, "b")]))
    g.add(Vertex.from_ids(2, "b", [1, 3]))
    g.add(Vertex(3, "b", [AdjItem(2, "b")]))
    for workers in range(1, 4):
        with pytest.raises(ComputeError, match="vertex 2 lacks"):
            _run(make_app("gmatch", query=q), g, workers=workers)


def test_query_graph_validation():
    with pytest.raises(ValueError, match="no vertices"):
        QueryGraph({}, [])
    with pytest.raises(ValueError, match="no label"):
        QueryGraph({1: None}, [])
    with pytest.raises(ValueError, match="unknown vertex"):
        QueryGraph({1: "a"}, [(1, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        QueryGraph({1: "a"}, [(1, 1)])
    with pytest.raises(ValueError, match="connected"):
        QueryGraph({1: "a", 2: "b"}, [])
    with pytest.raises(ValueError, match="start"):
        QueryGraph({1: "a", 2: "b"}, [(1, 2)], start=5)


def test_query_helpers():
    q = fig4_query()
    assert q.start == 1
    assert q.label_set() == {"a", "b", "c", "d"}
    assert q.level == {1: 0, 2: 1, 3: 1, 4: 2, 5: 3}
    assert q.bfs_order() == [1, 2, 3, 4, 5]


def test_parse_query_file(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text("# start: 2\n1\tb\t2\n2\ta\t1 3\n3\tc\t2\n")
    q = parse_query_file(p)
    assert q.start == 2
    assert q.labels == {1: "b", 2: "a", 3: "c"}
    assert q.adj[2] == {1, 3}
    bad = tmp_path / "bad.txt"
    bad.write_text("1\ta\t\n2\tb\t\n")  # disconnected
    with pytest.raises(GraphParseError, match="connected"):
        parse_query_file(bad)


def test_parse_query_file_bad_start_names_file_and_line(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text("1\ta\t2\n# start: x\n2\tb\t1\n")
    with pytest.raises(GraphParseError,
                       match=r"q\.txt: line 2: bad start vertex 'x'"):
        parse_query_file(p)


def test_parse_query_file_repeated_vertex_names_file_and_line(tmp_path):
    p = tmp_path / "q.txt"
    p.write_text("1\ta\t2\n2\tb\t1\n1\tc\t2\n")
    with pytest.raises(GraphParseError,
                       match=r"q\.txt: line 3: duplicate vertex id 1"):
        parse_query_file(p)


# -- app registry ----------------------------------------------------------------------


def test_make_app_validation():
    assert set(APP_NAMES) == {"triangle", "maxclique", "maximalcliques",
                              "quasiclique", "gmatch"}
    with pytest.raises(ValueError, match="unknown app"):
        make_app("nope")
    with pytest.raises(ValueError, match="query"):
        make_app("gmatch")


# -- oracles are themselves sane ---------------------------------------------------------


def test_oracle_spot_checks():
    assert tri_count_bf(complete_graph(4)) == 4
    assert max_clique_bf(complete_graph(5)) == 5
    assert maximal_cliques_bf(complete_graph(3)) == {frozenset({1, 2, 3})}
    assert quasi_cliques_bf(complete_graph(3), Fraction(1), 3) \
        == {frozenset({1, 2, 3})}
    g = gnp_graph(14, 0.45, seed=55)
    assert quasi_cliques_unpruned(g, "0.6", 3) == quasi_cliques_bf(g, "0.6", 3)
    assert match_bf(fig4_data_graph(), fig4_query()) == {(2, 5, 4, 7, 8)}


def test_oracles_refuse_oversized_inputs():
    with pytest.raises(ValueError, match="limit"):
        quasi_cliques_bf(gnp_graph(30, 0.1, seed=1), Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="limit"):
        max_clique_bf(gnp_graph(501, 0.001, seed=1))
