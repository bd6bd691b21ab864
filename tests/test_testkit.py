"""The verification harness itself: replay checks must catch planted
violations, and the workload generators must have the shapes they claim."""

import random

import pytest

from submine.engine import RunConfig, run_job
from submine.apps import make_app
from submine.cli import format_trace_event
from submine.gen import (
    complete_graph,
    fig4_data_graph,
    gnp_graph,
    hub_cluster_graph,
    labeled_gnp_graph,
    path_graph,
    star_graph,
)
from submine.graph import check_undirected, write_graph
from submine.minhash import derive_seeds
from submine.taskqueue import TaskQueue

from testkit import (
    CountingStorage,
    TraceViolation,
    assert_cache_bound,
    assert_dedup,
    gen_pull_sets,
    gen_queue_ops,
    make_records,
    parse_trace,
    replay_residency,
)


def _traced_run(graph, cache=None, workers=2):
    cfg = RunConfig(workers=workers, collect_trace=True)
    if cache is not None:
        cfg.cache_capacity = cache
    return run_job(cfg, make_app("triangle"), graph=graph)


# -- trace log round trip ----------------------------------------------------


def _trace_text(events):
    return "".join(format_trace_event(ev) + "\n" for ev in events)


def test_tracelog_round_trip_with_tuples():
    events = [
        ("request", 0, 3, 1, (5, 9, 12)),
        ("cache_slot", 5),
        ("overflow_exit",),
        ("complete", -1, 2),
    ]
    text = _trace_text(events)
    assert text.splitlines()[0] == "request 0 3 1 5,9,12,"
    back = parse_trace(text)
    assert back == events
    # a second round trip is a fixed point
    assert _trace_text(back) == text


def test_tracelog_real_run_round_trip():
    res = _traced_run(gnp_graph(30, 0.2, seed=5))
    for tr in res.traces:
        assert parse_trace(_trace_text(tr)) == tr


# -- request dedup replay ----------------------------------------------------


def test_assert_dedup_passes_real_traces():
    res = _traced_run(gnp_graph(40, 0.2, seed=8), workers=3)
    for tr in res.traces:
        assert assert_dedup(tr)


def test_assert_dedup_catches_planted_duplicates():
    # same id in two requests of one worker round: must always be caught
    rng = random.Random(99)
    for _ in range(50):
        rnd = rng.randint(0, 5)
        vid = rng.randint(0, 100)
        clean = [("request", 0, r, 1, (vid + 1 + r,)) for r in range(6)]
        dup_a = ("request", 0, rnd, 1, (vid, vid + 200))
        dup_b = ("request", 0, rnd, 2, (vid + 300, vid))
        events = clean[:rnd] + [dup_a] + clean[rnd:] + [dup_b]
        with pytest.raises(TraceViolation, match=f"vertex {vid} "):
            assert_dedup(events)


def test_assert_dedup_allows_same_id_other_rounds():
    events = [
        ("request", 0, 1, 1, (7, 8)),
        ("request", 0, 2, 1, (7,)),   # new round: fine
        ("request", 1, 1, 0, (7,)),   # other worker: fine
    ]
    assert assert_dedup(events)


# -- cache bound replay --------------------------------------------------------


def test_assert_cache_bound_passes_real_traces():
    res = _traced_run(gnp_graph(40, 0.25, seed=4), cache=6, workers=2)
    for tr in res.traces:
        assert assert_cache_bound(tr, 6)


def test_assert_cache_bound_overflow_episode_allowed():
    events = (
        [("cache_slot", i) for i in range(4)]
        + [("overflow_enter", 3)]
        + [("cache_slot", 10 + i) for i in range(3)]  # 7 resident, limit 4+3
        + [("cache_evict", 10 + i) for i in range(3)]
        + [("overflow_exit",)]
    )
    assert assert_cache_bound(events, 4)


def test_assert_cache_bound_catches_violation_outside_episode():
    events = [("cache_slot", i) for i in range(5)]
    with pytest.raises(TraceViolation, match="exceeds capacity 4"):
        assert_cache_bound(events, 4)


def test_assert_cache_bound_catches_violation_inside_episode():
    events = (
        [("overflow_enter", 2)]
        + [("cache_slot", i) for i in range(7)]  # limit is 4 + 2 = 6
    )
    with pytest.raises(TraceViolation, match="overflow limit 6"):
        assert_cache_bound(events, 4)


def test_assert_cache_bound_reset_after_exit():
    events = (
        [("overflow_enter", 5)]
        + [("cache_slot", i) for i in range(6)]
        + [("cache_evict", i) for i in range(4)]
        + [("overflow_exit",)]
        + [("cache_slot", 20), ("cache_slot", 21), ("cache_slot", 22)]
    )
    with pytest.raises(TraceViolation, match="exceeds capacity 4"):
        assert_cache_bound(events, 4)


def test_replay_residency_matches_cache_counters():
    res = _traced_run(gnp_graph(50, 0.15, seed=12), cache=8, workers=2)
    for wid, tr in enumerate(res.traces):
        final, peak = replay_residency(tr)
        assert final >= 0
        assert peak <= 8
        assert peak == res.per_worker[wid]["cache_peak_residency"]


# -- counting storage -------------------------------------------------------------


def test_counting_storage_tallies(tmp_path):
    st = CountingStorage(str(tmp_path / "q"))
    st.write("f1", b"abc")
    st.write("f2", b"def")
    assert st.read("f1") == b"abc"
    st.delete("f1")
    st.delete("f2")
    assert (st.phys_writes, st.phys_reads, st.phys_deletes) == (2, 1, 2)
    assert st.listdir() == []


def test_counting_storage_under_queue(tmp_path):
    st = CountingStorage(str(tmp_path / "q"))
    q = TaskQueue(str(tmp_path / "q"), file_capacity=4, buffer_capacity=4,
                  storage=st)
    seeds = derive_seeds(1, 4)
    recs = make_records(gen_pull_sets(3, 40, 100), 4, seeds)
    for r in recs:
        q.enqueue(r)
    while q.fetch() is not None:
        pass
    reads, writes = q.io_counters()
    assert (st.phys_reads, st.phys_writes) == (reads, writes)
    assert st.phys_deletes == st.phys_writes


# -- workload generators ------------------------------------------------------------


def test_gen_pull_sets_shapes():
    sets_a = gen_pull_sets(7, 200, universe=300, lo=2, hi=9)
    assert sets_a == gen_pull_sets(7, 200, universe=300, lo=2, hi=9)
    assert len(sets_a) == 200
    for ids in sets_a:
        assert 1 <= len(ids) <= 9
        assert list(ids) == sorted(set(ids))
        assert all(0 <= x < 300 for x in ids)
    # overlap actually happens between neighbours (keys would be useless otherwise)
    overlaps = sum(bool(set(a) & set(b)) for a, b in zip(sets_a, sets_a[1:]))
    assert overlaps > 20


def test_make_records_keys_and_payloads():
    seeds = derive_seeds(5, 4)
    pulls = gen_pull_sets(1, 50, universe=64)
    recs = make_records(pulls, 4, seeds, payload_tag=b"x")
    assert len(recs) == 50
    tiebreaks = [r.key.tiebreak for r in recs]
    assert tiebreaks == list(range(50))
    assert all(len(r.key.sigs) == 4 for r in recs)
    assert all(r.payload.startswith(b"x") for r in recs)
    # identical pull sets produce identical signatures
    recs2 = make_records(pulls, 4, seeds)
    assert [r.key.sigs for r in recs] == [r.key.sigs for r in recs2]


def test_gen_queue_ops_schedule_is_legal_and_drains():
    ops = gen_queue_ops(11, 500)
    pending = 0
    enq = 0
    for op in ops:
        if op[0] == "enqueue":
            assert op[1] == enq
            enq += 1
            pending += 1
        else:
            pending -= 1
            assert pending >= 0
    assert pending == 0
    assert enq > 0


# -- graph generators ------------------------------------------------------------------


def test_complete_graph_shape():
    g = complete_graph(5)
    assert sorted(g.ids()) == [1, 2, 3, 4, 5]
    for v in g:
        assert len(v.adj) == 4
    check_undirected(g)


def test_gnp_graph_determinism_and_bounds():
    a = gnp_graph(40, 0.3, seed=2)
    b = gnp_graph(40, 0.3, seed=2)
    c = gnp_graph(40, 0.3, seed=3)
    assert [(v.id, v.neighbor_ids()) for v in a] \
        == [(v.id, v.neighbor_ids()) for v in b]
    assert [(v.id, v.neighbor_ids()) for v in a] \
        != [(v.id, v.neighbor_ids()) for v in c]
    check_undirected(a)
    edges = sum(v.degree for v in a) // 2
    assert 0 < edges < 40 * 39 // 2


def test_labeled_gnp_labels_from_alphabet():
    g = labeled_gnp_graph(30, 0.2, seed=9, alphabet="xyz")
    assert {v.label for v in g} <= {"x", "y", "z"}
    check_undirected(g)


def test_star_and_path_shapes():
    s = star_graph(6, center=0)
    assert s[0].degree == 6
    assert all(s[i].degree == 1 for i in range(1, 7))
    p = path_graph(5)
    degs = sorted(v.degree for v in p)
    assert degs == [1, 1, 2, 2, 2]
    check_undirected(s)
    check_undirected(p)


def test_hub_cluster_graph_shape():
    g = hub_cluster_graph(clusters=4, members=6, hubs=3, seed=17)
    check_undirected(g)
    assert g.num_vertices == 4 * 6 + 4 * 3
    hub_ids = [vid for vid in g.ids() if vid >= 24]
    for h in hub_ids:
        assert g[h].degree >= 2  # other hubs in its clique plus members


def test_fig4_replica_structure():
    g = fig4_data_graph()
    assert sorted(g.ids()) == [1, 2, 4, 5, 7, 8]
    assert g[2].label == "a"
    assert {a.nb for a in g[5].adj} == {2, 4, 7}
    check_undirected(g)


def test_fig4_written_form_parses(tmp_path):
    p = tmp_path / "fig4.graph"
    write_graph(fig4_data_graph(), p)
    text = p.read_text(encoding="utf-8")
    assert "2\ta\t" in text.replace(" ", "\t") or "a" in text
