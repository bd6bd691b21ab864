"""Per-worker vertex storage: the read-only local table plus a bounded
LRU cache of vertices pulled from other workers.

The cache is the memory guarantee of the whole engine: its capacity is
fixed, and its residency (filled entries plus reserved slots) exceeds
it only while an oversized task's round runs.  Entries a running batch
depends on are pinned and cannot be evicted; reservation is
all-or-nothing per task so a task either gets every remote vertex it
needs held down for the round or touches nothing.

A single oversized task (pull set larger than the whole cache) is
reserved in overflow mode: it gets its slots without evicting anything,
over capacity, and `unpin_batch` -- the one place residency returns
under the bound -- trims the cache back by LRU eviction when the round
releases its pins.

Cost: in the engine's rounds, a reserve of `ids` that evicts `k` entries
visits O(|ids| + k) entries, whatever the capacity.  The cache keeps a
running count of its evictable entries (filled and unpinned), so the
feasibility check only looks at `ids`.  Eviction walks the recency order
from the head, past pinned and unfilled entries, and the engine keeps
that walk short: a round starts with every entry filled and unpinned,
each reserve of the round's reservation step moves the ids it pins to
the tail, and nothing else reorders the map until the pulls come back.
So the pinned entries form the tail, and the walk from the head meets
the victims and at most |ids| protected entries before it stops.
"""

import threading
from collections import OrderedDict
from operator import attrgetter

_vertex_id = attrgetter("id")


class CacheError(RuntimeError):
    """Protocol misuse (bad insert, unpin without pin), or pinned entries
    that keep the cache above capacity."""


class _Entry:
    __slots__ = ("vertex", "pins")  # vertex is None until the pull fills it

    def __init__(self, vertex=None, pins=0):
        self.vertex = vertex
        self.pins = pins


def check_cache_capacity(capacity):
    """The cache must hold at least one vertex."""
    if capacity < 1:
        raise ValueError("cache capacity must be >= 1")


class VertexCache:
    """Bounded LRU map id -> pulled Vertex, with pin counts.

    Only its worker's compute thread uses it: run_round decodes the pull
    responses and inserts them on that thread itself.  Map mutations
    happen under a lock.
    Metrics: hits/misses are counted at reservation and ad-hoc lookup
    time, a miss meaning "slot reserved, vertex must be fetched".
    """

    def __init__(self, capacity, is_local=None, trace=None):
        check_cache_capacity(capacity)
        self.capacity = capacity
        self._is_local = is_local or (lambda vid: False)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._n_evictable = 0  # entries that are filled and unpinned
        self.trace = trace
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_residency = 0

    # -- introspection ----------------------------------------------------

    @property
    def resident(self):
        return len(self._entries)

    def has_data(self, vid):
        e = self._entries.get(vid)
        return e is not None and e.vertex is not None

    def pins_of(self, vid):
        e = self._entries.get(vid)
        return e.pins if e else 0

    def total_pins(self):
        return sum(e.pins for e in self._entries.values())

    # -- core ops ----------------------------------------------------------

    def get(self, vid):
        """Cached vertex or None, counted as a hit or a miss; a filled hit
        refreshes recency."""
        with self._lock:
            e = self._entries.get(vid)
            if e is None or e.vertex is None:
                self.misses += 1
                return None
            self._entries.move_to_end(vid)
            self.hits += 1
            return e.vertex

    def reserve(self, ids, overflow=False):
        """All-or-nothing reservation of every id in `ids`.

        Cached ids are pinned where they sit; missing ids get a pinned
        placeholder slot each, evicting unpinned entries (LRU first) to
        make room.  Returns the list of ids given a new slot (the ids to
        pull; empty when every id was resident), or None on rejection,
        in which case nothing was touched.  With `overflow`, a set that
        cannot fit even after eviction is not rejected: its missing ids
        get their slots over capacity, evicting nothing, until
        `unpin_batch` trims the cache back.
        """
        ids = set(ids)
        if any(map(self._is_local, ids)):
            vid = next(filter(self._is_local, ids))
            raise CacheError(f"reserve of locally-owned vertex {vid}")
        with self._lock:
            new = [vid for vid in ids if vid not in self._entries]
            free = self.capacity - len(self._entries)
            if len(new) > free:
                # Resident members of `ids` must not be counted as victims:
                # evicting one would force a second slot for it right below.
                evictable = self._n_evictable
                for vid in ids:
                    e = self._entries.get(vid)
                    if e is not None and e.pins == 0 and e.vertex is not None:
                        evictable -= 1
                if len(new) <= free + evictable:
                    self._evict_locked(len(new) - free, protect=ids)
                elif not overflow:
                    return None
                elif self.trace:
                    self.trace(("overflow_enter", len(ids)))
            for vid in ids:
                e = self._entries.get(vid)
                if e is not None:
                    if e.pins == 0 and e.vertex is not None:
                        self._n_evictable -= 1
                    e.pins += 1
                    self._entries.move_to_end(vid)
                    self.hits += 1
                else:
                    self._entries[vid] = _Entry(vertex=None, pins=1)
                    self.misses += 1
                    if self.trace:
                        self.trace(("cache_slot", vid))
            self._note_peak()
            return new

    def insert_pulled(self, vertices):
        """Fill the reserved slots of one response's pulled vertices, in
        order, under one lock.

        Double insert of the same id is an idempotent no-op.  Inserting
        without a reservation, or inserting a locally-owned id, is a
        protocol error.
        """
        if any(map(self._is_local, map(_vertex_id, vertices))):
            v = next(v for v in vertices if self._is_local(v.id))
            raise CacheError(f"insert of locally-owned vertex {v.id}")
        with self._lock:
            entries = self._entries
            for v in vertices:
                vid = v.id
                e = entries.get(vid)
                if e is None:
                    raise CacheError(f"insert of unreserved vertex {vid}")
                if e.vertex is not None:
                    continue
                e.vertex = v
                if e.pins == 0:
                    self._n_evictable += 1
                entries.move_to_end(vid)
                if self.trace:
                    self.trace(("cache_fill", vid))

    def unpin_batch(self, id_sets):
        """Release one pin per id of each set in `id_sets`: each is the
        set of distinct ids one task reserved.  Then, if an overflow
        reservation left the cache above capacity, evict unpinned
        entries (LRU first) back down to it."""
        with self._lock:
            entries = self._entries
            for ids in id_sets:
                for vid in ids:
                    e = entries.get(vid)
                    if e is None or e.pins <= 0:
                        raise CacheError(f"unpin of unpinned vertex {vid}")
                    e.pins -= 1
                    if e.pins == 0 and e.vertex is not None:
                        self._n_evictable += 1
            over = len(entries) - self.capacity
            if over > 0:
                try:
                    self._evict_locked(over)
                except CacheError:
                    raise CacheError(
                        "cannot restore capacity: pinned residue "
                        f"{len(entries)} > {self.capacity}"
                    ) from None
                if self.trace:
                    self.trace(("overflow_exit",))

    def fill_frontier(self, ids, frontier):
        """Replace each None in `frontier` by the cached vertex of the
        id at the same place of `ids`, refreshing recency in that order;
        a vertex not filled in the cache is an error."""
        with self._lock:
            entries = self._entries
            for i, v in enumerate(frontier):
                if v is None:
                    vid = ids[i]
                    e = entries.get(vid)
                    if e is None or e.vertex is None:
                        raise CacheError(f"frontier vertex {vid} not resident")
                    entries.move_to_end(vid)
                    frontier[i] = e.vertex

    # -- internals -----------------------------------------------------------

    def _evict_locked(self, count, protect=()):
        victims = []
        for vid, e in self._entries.items():
            if count <= 0:
                break
            if e.pins == 0 and e.vertex is not None and vid not in protect:
                victims.append(vid)
                count -= 1
        if count > 0:
            raise CacheError("not enough evictable entries")
        for vid in victims:
            del self._entries[vid]
            self._n_evictable -= 1
            self.evictions += 1
            if self.trace:
                self.trace(("cache_evict", vid))

    def _note_peak(self):
        if len(self._entries) > self.peak_residency:
            self.peak_residency = len(self._entries)

    def assert_quiescent(self):
        """End-of-job check: no pins, no unfilled slots, within capacity,
        and the evictable count agrees with the entries."""
        with self._lock:
            for vid, e in self._entries.items():
                if e.pins:
                    raise CacheError(f"leftover pin on vertex {vid}")
                if e.vertex is None:
                    raise CacheError(f"leftover unfilled slot for vertex {vid}")
            if self._n_evictable != len(self._entries):
                raise CacheError(
                    f"evictable count {self._n_evictable} != "
                    f"{len(self._entries)} unpinned filled entries"
                )
            if len(self._entries) > self.capacity:
                raise CacheError("residency above capacity at job end")

    def metrics(self):
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "cache_peak_residency": self.peak_residency,
        }


class VertexStore:
    """A worker's view of vertex data: local table first, then cache."""

    def __init__(self, local_table, cache):
        self.local = local_table
        self.cache = cache

    def resolve(self, ids):
        """The frontier of a task that pulled `ids`: each id's vertex,
        local table first, then the cache, whose ids refresh recency in
        pull order without counting a hit.  A miss is a hard error:
        reservation guarantees a frontier's ids are resident."""
        frontier = list(map(self.local.get, ids))
        if not all(frontier):  # a Vertex is always true
            self.cache.fill_frontier(ids, frontier)
        return frontier
