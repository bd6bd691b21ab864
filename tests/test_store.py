"""VertexCache: reservation, pinning, LRU eviction, overflow episodes.

The randomized section replays every operation against a reference LRU
model and checks, after each step, the residency bound (the property the
whole engine leans on), the recency order, each eviction victim and the
cache's running count of evictable entries.
"""

import random
from collections import OrderedDict

import pytest

from submine.graph import Vertex
from submine.store import CacheError, VertexCache, VertexStore


def _v(vid):
    return Vertex(vid, None, [])


def _fill(cache, ids):
    assert sorted(cache.reserve(ids)) == sorted(ids)
    cache.insert_pulled([_v(vid) for vid in ids])
    cache.unpin_batch([ids])


# -- reserve -----------------------------------------------------------------


def test_reserve_all_or_nothing_accept():
    c = VertexCache(10)
    _fill(c, range(3))  # 3 resident, unpinned
    got = c.reserve(range(100, 107))  # 7 new
    assert sorted(got) == list(range(100, 107))
    assert c.resident == 10
    # an all-resident reservation succeeds with nothing to pull
    assert c.reserve(range(3)) == []
    assert c.pins_of(0) == 1


def test_reserve_rejected_when_everything_pinned():
    c = VertexCache(10)
    assert sorted(c.reserve(range(10))) == list(range(10))  # 10 placeholders
    assert c.reserve({99}) is None
    # rejection touched nothing
    assert c.resident == 10
    assert c.pins_of(99) == 0


def test_reserve_evicts_lru_first():
    c = VertexCache(3)
    _fill(c, [1, 2, 3])
    c.get(1)  # refresh 1; LRU order now 2, 3, 1
    assert sorted(c.reserve({50, 51})) == [50, 51]
    assert c.has_data(1)
    assert not c.has_data(2) and not c.has_data(3)


def test_reserve_never_evicts_its_own_ids():
    # regression: a full cache asked to re-reserve a resident unpinned id
    # must not pick that id as an eviction victim (it would be double
    # counted and push residency over capacity)
    c = VertexCache(4)
    _fill(c, [1, 2, 3, 4])  # full, all unpinned, LRU order 1 2 3 4
    got = c.reserve({1, 50})  # 1 is resident and oldest
    assert got == [50]  # only 50 needs a pull
    assert c.resident == 4
    assert c.has_data(1)  # survived, pinned in place
    assert c.pins_of(1) == 1


def test_reserve_feasibility_excludes_own_ids():
    # 2 resident both wanted by the reservation: they are not evictable
    # room for the third id, so the reserve must reject, not half-apply
    c = VertexCache(2)
    _fill(c, [1, 2])
    assert c.reserve({1, 2, 3}) is None
    assert c.resident == 2
    assert c.pins_of(1) == 0 and c.pins_of(2) == 0


class _CountingDict(OrderedDict):
    """OrderedDict that counts the entries its iterators hand out."""

    visited = 0

    def _count(self, it):
        for x in it:
            self.visited += 1
            yield x

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


def test_full_cache_reserve_visits_only_ids_and_victims():
    # regression: a reserve that had to evict used to count the evictable
    # entries over the whole cache, visiting all `capacity` entries
    cap, k = 10_000, 6
    c = VertexCache(cap)
    _fill(c, range(cap))
    c._entries = entries = _CountingDict(c._entries)
    rng = random.Random(7)
    next_id = cap
    for _round in range(10):
        batch = []
        for _task in range(8):
            # engine-shaped pull set: new ids plus one id from each end of
            # the recency order (the LRU-end one is walked past, not evicted)
            new = range(next_id, next_id + k)
            ids = set(new) | {next(iter(entries)), next(reversed(entries))}
            next_id += k
            entries.visited = 0
            evicted = c.evictions
            assert sorted(c.reserve(ids)) == list(new)
            assert entries.visited <= (c.evictions - evicted) + len(ids)
            batch.append(ids)
        c.insert_pulled([_v(vid) for ids in batch for vid in ids])
        for ids in batch:
            c.get(rng.choice(sorted(ids)))
        c.unpin_batch(batch)
    assert c.resident == cap
    c.assert_quiescent()


def test_reserve_local_id_is_protocol_error():
    c = VertexCache(4, is_local=lambda vid: vid == 7)
    with pytest.raises(CacheError, match="locally-owned"):
        c.reserve({7})


# -- insert / unpin -----------------------------------------------------------


def test_insert_requires_reservation():
    c = VertexCache(4)
    with pytest.raises(CacheError, match="unreserved"):
        c.insert_pulled([_v(1)])


def test_insert_is_idempotent():
    c = VertexCache(4)
    c.reserve({1})
    c.insert_pulled([_v(1)])
    c.insert_pulled([_v(1)])  # no-op
    assert c.resident == 1
    assert c.get(1).id == 1


def test_insert_local_id_is_protocol_error():
    c = VertexCache(4, is_local=lambda vid: vid == 3)
    c.reserve({1})
    with pytest.raises(CacheError, match="locally-owned vertex 3"):
        c.insert_pulled([_v(1), _v(3)])
    assert not c.has_data(1)  # the check comes before any fill


def test_insert_fills_one_response_in_order():
    events = []
    c = VertexCache(4, trace=events.append)
    c.reserve([1, 2, 3])
    events.clear()
    c.insert_pulled([_v(3), _v(1), _v(2)])
    assert events == [("cache_fill", 3), ("cache_fill", 1), ("cache_fill", 2)]
    assert list(c._entries) == [3, 1, 2]


def test_unpin_unpinned_is_protocol_error():
    c = VertexCache(4)
    with pytest.raises(CacheError, match="unpin"):
        c.unpin_batch([{5}])
    _fill(c, [5])
    with pytest.raises(CacheError, match="unpin"):
        c.unpin_batch([{5}])  # already back to zero


def test_shared_pin_counts():
    c = VertexCache(1)
    c.reserve({9})
    c.insert_pulled([_v(9)])
    c.reserve({9})  # second task pins the same entry
    assert c.pins_of(9) == 2
    c.unpin_batch([{9}])
    # still pinned by the other task: reserve of a new id must reject
    assert c.reserve({10}) is None
    c.unpin_batch([{9}])
    assert c.reserve({10}) == [10]


def test_unpin_batch_releases_one_pin_per_task():
    # one call per round: each task's pull set releases its own pin
    c = VertexCache(4)
    c.reserve({1, 2})
    c.reserve({2, 3})
    c.insert_pulled([_v(1), _v(2), _v(3)])
    assert c.pins_of(2) == 2
    c.unpin_batch([{1, 2}, {2, 3}])
    assert c.total_pins() == 0
    c.assert_quiescent()


def test_get_refreshes_and_counts():
    c = VertexCache(4)
    _fill(c, [1, 2])
    h0, m0 = c.hits, c.misses
    assert c.get(1).id == 1
    assert c.get(99) is None
    assert (c.hits, c.misses) == (h0 + 1, m0 + 1)


# -- frontiers ----------------------------------------------------------------


def test_resolve_reads_local_first_and_refreshes_cached_in_pull_order():
    local = {5: _v(5), 6: _v(6)}
    c = VertexCache(4, is_local=local.__contains__)
    store = VertexStore(local, c)
    _fill(c, [1, 2, 3])  # recency order 1 2 3
    h0, m0 = c.hits, c.misses
    frontier = store.resolve((2, 5, 1, 6))
    assert [v.id for v in frontier] == [2, 5, 1, 6]
    assert list(c._entries) == [3, 2, 1]  # refreshed in pull order
    assert frontier[1] is local[5] and frontier[0] is c._entries[2].vertex
    assert (c.hits, c.misses) == (h0, m0)  # a frontier counts nothing
    assert [v.id for v in store.resolve([6, 5])] == [6, 5]
    assert store.resolve(()) == []


def test_resolve_of_a_vertex_not_filled_is_an_error():
    c = VertexCache(4)
    store = VertexStore({}, c)
    c.reserve({7})  # reserved, never filled
    with pytest.raises(CacheError, match="frontier vertex 7 not resident"):
        store.resolve([7])
    with pytest.raises(CacheError, match="frontier vertex 8 not resident"):
        store.resolve([8])


# -- overflow -----------------------------------------------------------------


def test_overflow_episode_roundtrip():
    c = VertexCache(5)
    _fill(c, [1, 2, 3])
    need = list(range(100, 112))  # 12 vertices, way over capacity
    c.enter_overflow(len(need))
    assert c.in_overflow
    assert sorted(c.reserve(need)) == need
    c.insert_pulled([_v(vid) for vid in need])
    assert c.resident >= 12
    c.unpin_batch([need])
    c.exit_overflow()
    assert not c.in_overflow
    assert c.resident <= 5
    assert c.capacity == 5


def test_overflow_exit_without_excess_keeps_entries():
    c = VertexCache(5)
    _fill(c, [1, 2, 3])
    c.enter_overflow(10)
    c.exit_overflow()
    assert c.resident == 3
    assert c.has_data(1) and c.has_data(2) and c.has_data(3)


def test_overflow_misuse():
    c = VertexCache(2)
    c.enter_overflow(3)
    with pytest.raises(CacheError, match="nested"):
        c.enter_overflow(1)
    c.exit_overflow()
    with pytest.raises(CacheError, match="outside"):
        c.exit_overflow()
    with pytest.raises(ValueError):
        c.enter_overflow(-1)


def test_overflow_exit_with_pinned_residue_fails():
    c = VertexCache(2)
    c.enter_overflow(3)
    c.reserve({1, 2, 3, 4})
    c.insert_pulled([_v(vid) for vid in (1, 2, 3, 4)])
    with pytest.raises(CacheError, match="pinned residue"):
        c.exit_overflow()


# -- quiescence and metrics ---------------------------------------------------


def test_assert_quiescent_failures():
    c = VertexCache(4)
    c.reserve({1})
    with pytest.raises(CacheError, match="leftover pin"):
        c.assert_quiescent()
    c.unpin_batch([{1}])  # unpinned but never filled
    with pytest.raises(CacheError, match="unfilled"):
        c.assert_quiescent()
    c.insert_pulled([_v(1)])
    c.assert_quiescent()
    c.enter_overflow(2)
    with pytest.raises(CacheError, match="inside an overflow"):
        c.assert_quiescent()
    c.exit_overflow()
    c.assert_quiescent()


def test_assert_quiescent_checks_evictable_count():
    c = VertexCache(4)
    _fill(c, [1, 2])
    c.assert_quiescent()
    c._n_evictable += 1
    with pytest.raises(CacheError, match="evictable count"):
        c.assert_quiescent()


def test_metrics_shape():
    c = VertexCache(4)
    _fill(c, [1, 2])
    c.get(1)
    m = c.metrics()
    assert m["cache_hits"] >= 1
    assert m["cache_misses"] >= 2
    assert m["cache_peak_residency"] == 2
    assert m["cache_evictions"] == 0


def test_capacity_validation():
    with pytest.raises(ValueError):
        VertexCache(0)


# -- randomized model check ----------------------------------------------------


def _model_evict(model, count, protect=()):
    """Reference LRU eviction: the first `count` filled, unpinned,
    unprotected entries in recency order."""
    victims = [vid for vid, (pins, filled) in model.items()
               if pins == 0 and filled and vid not in protect][:count]
    for vid in victims:
        del model[vid]
    return victims


def _model_reserve(model, ids, limit):
    """Reference reserve: the victims and the ids given a new slot, or
    None on rejection."""
    new = [vid for vid in ids if vid not in model]
    free = limit - len(model)
    victims = []
    if len(new) > free:
        evictable = sum(1 for vid, (pins, filled) in model.items()
                        if pins == 0 and filled and vid not in ids)
        if len(new) > free + evictable:
            return None
        victims = _model_evict(model, len(new) - free, protect=ids)
    for vid in ids:
        if vid in model:
            model[vid][0] += 1
            model.move_to_end(vid)
        else:
            model[vid] = [1, False]
    return victims, new


def test_randomized_against_model():
    """Random reserve/fill/get/unpin/overflow traffic, checked step by step
    against a reference LRU model."""
    rng = random.Random(1234)
    for trial in range(30):
        cap = rng.randint(1, 8)
        events = []
        c = VertexCache(cap, trace=events.append)
        model = OrderedDict()  # vid -> [pins, filled], LRU first
        pinned_sets = []  # reserved batches not yet released
        unfilled = set()  # reserved ids whose vertex has not arrived
        in_overflow = False
        limit = cap
        for _ in range(300):
            events.clear()
            want_victims = []
            op = rng.random()
            if op < 0.4:
                size = rng.randint(1, min(6, max(1, limit)))
                ids = set(rng.sample(range(40), size))
                if in_overflow or not pinned_sets or rng.random() < 0.8:
                    # the cache iterates its own set(ids); so does the model
                    want = _model_reserve(model, set(ids), limit)
                    got = c.reserve(ids)
                    if want is None:
                        assert got is None
                    else:
                        want_victims, want_new = want
                        assert sorted(got) == sorted(want_new)
                        pinned_sets.append(ids)
                        unfilled |= {vid for vid in ids if not model[vid][1]}
            elif op < 0.5 and unfilled:
                for vid in rng.sample(sorted(unfilled), rng.randint(1, len(unfilled))):
                    c.insert_pulled([_v(vid)])
                    model[vid][1] = True
                    model.move_to_end(vid)
                    unfilled.discard(vid)
            elif op < 0.6:
                vid = rng.randrange(40)
                c.get(vid)
                if vid in model and model[vid][1]:
                    model.move_to_end(vid)
            elif op < 0.8 and pinned_sets:
                batch = pinned_sets.pop(rng.randrange(len(pinned_sets)))
                c.unpin_batch([batch])
                for vid in batch:
                    model[vid][0] -= 1
            elif op < 0.9 and not in_overflow and not pinned_sets:
                extra = rng.randint(1, 12)
                c.enter_overflow(extra)
                in_overflow = True
                limit = cap + extra
            elif in_overflow and not pinned_sets and not unfilled:
                c.exit_overflow()
                want_victims = _model_evict(model, max(0, len(model) - cap))
                in_overflow = False
                limit = cap
            victims = [e[1] for e in events if e[0] == "cache_evict"]
            assert victims == want_victims, trial
            assert list(c._entries) == list(model), trial
            assert c._n_evictable == sum(
                1 for e in c._entries.values()
                if e.pins == 0 and e.vertex is not None
            ), trial
            assert c.resident <= limit, (trial, c.resident, limit)
            assert c.total_pins() == sum(len(s) for s in pinned_sets)
        for vid in unfilled:
            c.insert_pulled([_v(vid)])
        for batch in pinned_sets:
            c.unpin_batch([batch])
        if in_overflow:
            c.exit_overflow()
        c.assert_quiescent()
