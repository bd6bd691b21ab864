"""Exact triangle counting.

Every triangle {v1, v2, v3} with v1 < v2 < v3 is counted exactly once,
by the task seeded at v1: the seed pulls its larger neighbors except the
largest, and the single compute iteration checks, for each pulled v2 and
each candidate v3 > v2 among v1's larger neighbors, whether v3 appears
in v2's adjacency.  Responders send only larger-neighbor suffixes,
which is all the membership test ever looks at.
"""

import struct
from bisect import bisect_left

from ..engine import SUM_AGGREGATOR, AppSpec, Task
from ..graph import larger_neighbor_ids, respond_larger
from ..kernels import count_closing_pairs

_CTX = struct.Struct("<Q")  # the largest candidate id


def _decode_ctx(data):
    return _CTX.unpack(data)[0]


def triangle_app(emit_triangles=False) -> AppSpec:
    """Build the triangle-counting app.

    emit_triangles: also emit one "v1 v2 v3" line per triangle, for
    attribution tests; counting alone never materializes triangles.
    """

    def seed(v):
        ids = larger_neighbor_ids(v)
        if len(ids) < 2:
            return []
        return [Task(v.id, context=ids[-1], pulls=ids[:-1])]

    def compute(task, frontier):
        largest = task.context
        ids = [f.id for f in frontier]
        ids.append(largest)
        adj = [f.neighbor_ids() for f in frontier]
        adj.append(())
        found = count_closing_pairs(ids, adj)
        if emit_triangles:
            for i, f in enumerate(frontier):
                nbs = f.neighbor_ids()
                for j in range(i + 1, len(ids)):
                    k = bisect_left(nbs, ids[j])
                    if k < len(nbs) and nbs[k] == ids[j]:
                        task.emit(f"{task.seed_id} {ids[i]} {ids[j]}")
        task.aggregate(found)
        return False

    return AppSpec(
        name="triangle",
        seed=seed,
        compute=compute,
        encode_context=_CTX.pack,
        decode_context=_decode_ctx,
        respond=respond_larger,
        aggregator=SUM_AGGREGATOR,
    )
