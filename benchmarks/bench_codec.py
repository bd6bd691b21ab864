#!/usr/bin/env python3
"""Cost of the vertex, task and spill-file codec per value.

Encodes and decodes fixed, seeded values shaped like what the engine
moves: a pulled vertex of degree 20 and a hub of degree 2000, the
payload of a triangle seed task (empty subgraph, about 10 pulls), the
payload of a requeued quasi-clique task (a 2-hop ego net of about 20
vertices), and a spill file of 100 such records.  Checks every round
trip, then prints microseconds per encode and per decode (best of N).

    python3 benchmarks/bench_codec.py --repeat 5
"""

import argparse
import random
import struct
import sys
import time

from submine.graph import AdjItem, Subgraph, Vertex
from submine.minhash import TaskKey
from submine.serialize import (
    TaskWire,
    decode_file,
    decode_task,
    encode_file,
    encode_task,
    encode_vertex,
    vertex_from_bytes,
)

ID_SPACE = 50_000


def _vertex(rng, degree):
    vid = rng.randrange(ID_SPACE)
    nbs = sorted(rng.sample([i for i in range(ID_SPACE) if i != vid], degree))
    return Vertex(vid, None, [AdjItem(nb) for nb in nbs])


def _triangle_task(rng):
    seed = rng.randrange(ID_SPACE // 2)
    pulls = sorted(rng.sample(range(seed + 1, ID_SPACE), 11))
    ctx = struct.pack("<Q", pulls[-1])  # the triangle app's context
    return TaskWire(seed, 0, tuple(pulls[:-1]), ctx, Subgraph())


def _quasi_task(rng):
    """Iteration 1 of a quasi-clique task: the seed, 4 larger neighbors
    and 16 second-hop vertices, pulling the second hop."""
    seed = rng.randrange(ID_SPACE // 2)
    ids = sorted(rng.sample(range(seed + 1, ID_SPACE), 20))
    frontier, hop2 = ids[:4], ids[4:]
    sg = Subgraph()
    sg.add_vertex(seed)
    for f in frontier:
        sg.add_vertex(f)
        sg.add_edge(seed, f)
    for i, w in enumerate(hop2):
        sg.add_vertex(w)
        sg.add_edge(frontier[i % 4], w)
        if i % 3 == 0:
            sg.add_edge(frontier[(i + 1) % 4], w)
    return TaskWire(seed, 1, tuple(hop2), b"", sg)


def _same_task(a, b):
    return (a.seed_id, a.iteration, a.requested, a.context,
            a.subgraph.labels, a.subgraph.adj) == (
        b.seed_id, b.iteration, b.requested, b.context,
        b.subgraph.labels, b.subgraph.adj)


def _spill_file(rng, records=100):
    recs = []
    for i in range(records):
        key = TaskKey(tuple(rng.randrange(2**64) for _ in range(4)), i)
        recs.append((key, encode_task(_quasi_task(rng))))
    recs.sort()
    return recs


def _rows(seed):
    """(name, encode(value), decode(blob), value, is-round-trip(value, back),
    share of --loops to time)."""
    rng = random.Random(seed)
    return [
        ("vertex_deg20", encode_vertex, vertex_from_bytes,
         _vertex(rng, 20), lambda a, b: a == b, 1),
        ("vertex_hub_deg2000", encode_vertex, vertex_from_bytes,
         _vertex(rng, 2000), lambda a, b: a == b, 0.01),
        ("task_triangle_seed", encode_task, decode_task,
         _triangle_task(rng), _same_task, 1),
        ("task_quasi_requeued", encode_task, decode_task,
         _quasi_task(rng), _same_task, 1),
        ("spill_file_100", lambda recs: encode_file(100, recs),
         lambda blob: decode_file(blob)[2], _spill_file(rng),
         lambda a, b: a == b, 0.01),
    ]


def _best_us(fn, arg, loops, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best / loops * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timing repetitions; best of N is reported")
    ap.add_argument("--loops", type=int, default=2000,
                    help="calls per timing repetition (a hundredth of it "
                         "for the hub vertex and the spill file)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rows = []
    for name, enc, dec, value, same, share in _rows(args.seed):
        blob = enc(value)
        back = dec(blob)
        if not same(value, back) or enc(back) != blob:
            raise SystemExit(f"{name}: round trip failed")
        loops = max(int(args.loops * share), 1)
        rows.append((name, len(blob),
                     f"{_best_us(enc, value, loops, args.repeat):.2f}",
                     f"{_best_us(dec, blob, loops, args.repeat):.2f}"))

    header = ("shape", "bytes", "us_per_encode", "us_per_decode")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(f).ljust(w) for f, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
