"""Binary encodings: round trips, canonical form, corruption errors."""

import random
import struct

import pytest

from submine.graph import (
    AdjItem,
    Subgraph,
    Vertex,
    parse_vertex_line,
    read_graph,
    respond_larger,
)
from submine.minhash import TaskKey
from submine.serialize import (
    CorruptData,
    TaskRecord,
    TaskWire,
    decode_file,
    decode_task,
    encode_file,
    encode_subgraph,
    encode_task,
    encode_vertex,
    vertex_from_bytes,
)


def _random_vertex(rng, max_id=500):
    vid = rng.randrange(max_id)
    nbs = sorted(rng.sample([i for i in range(max_id) if i != vid],
                            rng.randint(0, 15)))
    adj = [AdjItem(nb, rng.choice([None, "a", "b9", "xyz"])) for nb in nbs]
    return Vertex(vid, rng.choice([None, "a", "lbl"]), adj)


def test_vertex_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        v = _random_vertex(rng)
        blob = encode_vertex(v)
        assert vertex_from_bytes(blob) == v
        # canonical: re-encoding the decoded value is byte-identical
        assert encode_vertex(vertex_from_bytes(blob)) == blob


def test_id_only_vertex_encodes_like_its_adjacency_twin():
    rng = random.Random(3)
    for _ in range(100):
        v = _random_vertex(rng)
        twin = Vertex(v.id, v.label, [AdjItem(nb) for nb in v.neighbor_ids()])
        plain = Vertex.from_ids(v.id, v.label, list(v.neighbor_ids()))
        assert encode_vertex(plain) == encode_vertex(twin)
    # the bytes themselves: id, degree, ids, presence, one-string label block
    assert encode_vertex(Vertex.from_ids(7, "a", [1, 9])) == (
        struct.pack("<QI2QB", 7, 2, 1, 9, 1) + struct.pack("<I", 1) + b"a")


def test_vertex_form_is_canonical_on_the_wire(tmp_path):
    # `nb:` tokens carry no attribute: the vertex holds no attribute list
    path = tmp_path / "g.txt"
    path.write_text("5\ta\t2: 7:\n2\t\t5\n7\t\t5\n", encoding="utf-8")
    v = read_graph(path)[5]
    assert v.neighbor_attrs() is None
    assert encode_vertex(v) == encode_vertex(parse_vertex_line("5\ta\t2 7"))
    # a slice whose attributes are all None drops its attribute list, so
    # its encoding has no all-None block for the decoder to reject
    pruned = respond_larger(Vertex(5, "a", [AdjItem(2, "x"), AdjItem(7), AdjItem(9)]))
    assert pruned.neighbor_attrs() is None
    assert vertex_from_bytes(encode_vertex(pruned)) == pruned
    # the bytes of an attributed vertex: id, degree, ids, presence, the
    # label block, then one length per attribute (None is 0xFFFFFFFF)
    assert encode_vertex(Vertex(7, "a", [AdjItem(1, "x"), AdjItem(9)])) == (
        struct.pack("<QI2QB", 7, 2, 1, 9, 3) + struct.pack("<I", 1) + b"a"
        + struct.pack("<2I", 1, 0xFFFFFFFF) + b"x")


def test_vertex_none_vs_empty_label():
    # None and "" are different wire values; both survive
    v_none = Vertex(1, None, [])
    blob = encode_vertex(v_none)
    assert vertex_from_bytes(blob).label is None
    v_empty = Vertex(1, "", [])
    assert vertex_from_bytes(encode_vertex(v_empty)).label == ""


def test_subgraph_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        sg = Subgraph()
        ids = rng.sample(range(100), rng.randint(1, 10))
        for vid in ids:
            sg.add_vertex(vid, rng.choice([None, "a", "b"]))
        for _ in range(rng.randint(0, 15)):
            a, b = rng.sample(ids, 2) if len(ids) > 1 else (ids[0], ids[0])
            if a != b:
                sg.add_edge(a, b)
        blob = encode_task(TaskWire(1, 0, (), b"", sg))
        back = decode_task(blob)
        assert back.subgraph.labels == sg.labels
        assert back.subgraph.adj == sg.adj
        assert encode_task(back) == blob


def test_task_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        sg = Subgraph()
        sg.add_vertex(1, "a")
        sg.add_vertex(2)
        sg.add_edge(1, 2)
        w = TaskWire(
            seed_id=rng.randrange(10**9),
            iteration=rng.randrange(5),
            requested=tuple(rng.sample(range(100), rng.randint(0, 8))),
            context=bytes(rng.randrange(256) for _ in range(rng.randint(0, 20))),
            subgraph=sg,
        )
        back = decode_task(encode_task(w))
        assert back.seed_id == w.seed_id
        assert back.iteration == w.iteration
        assert back.requested == w.requested
        assert back.context == w.context
        assert back.subgraph.labels == sg.labels
        assert back.subgraph.adj == sg.adj


def test_record_and_file_round_trip():
    rng = random.Random(4)
    records = []
    for i in range(37):
        key = TaskKey(tuple(rng.randrange(2**64) for _ in range(4)), i)
        records.append(TaskRecord(key, bytes([i]) * rng.randint(0, 9)))
    blob = encode_file(16, records)
    cap, ell, back = decode_file(blob)
    assert cap == 16 and ell == 4
    assert back == records
    assert all(type(r) is TaskRecord for r in back)


def test_decode_file_rejects_garbage():
    good = encode_file(8, [(TaskKey((1, 2, 3, 4), 0), b"x")])
    with pytest.raises(CorruptData, match="bad magic"):
        decode_file(b"XXXX" + good[4:])
    with pytest.raises(CorruptData, match="format version"):
        decode_file(good[:4] + b"\xff\x00" + good[6:])
    with pytest.raises(CorruptData, match="truncated"):
        decode_file(good[:-3])
    with pytest.raises(CorruptData, match="trailing"):
        decode_file(good + b"\x00")


# -- format version 4: layout, canonical form, strict decoding -----------------


def _vertex_shapes():
    adj = [AdjItem(3), AdjItem(9), AdjItem(40)]
    return {
        "neither": Vertex(7, None, adj),
        "label": Vertex(7, "lbl", adj),
        "attrs": Vertex(7, None, [AdjItem(3, "x"), AdjItem(9), AdjItem(40, "é")]),
        "both": Vertex(7, "", [AdjItem(3), AdjItem(9, "b9"), AdjItem(40)]),
        "isolated": Vertex(2**64 - 1, None, []),
    }


def _subgraph(labels):
    sg = Subgraph()
    for vid in (5, 1, 9, 3):
        sg.add_vertex(vid, f"L{vid}" if labels and vid != 9 else None)
    for a, b in ((1, 5), (5, 9), (3, 1)):
        sg.add_edge(a, b)
    return sg


def _task_shapes():
    shapes = {}
    for name, sg in (("empty", Subgraph()),
                     ("neither", _subgraph(False)),
                     ("labels", _subgraph(True))):
        shapes[name] = TaskWire(11, 2, (30, 4, 17), b"ctx", sg)
    return shapes


def _spill_blob():
    recs = [(TaskKey((i, 2**64 - 1 - i), i), encode_task(w))
            for i, w in enumerate(_task_shapes().values())]
    return encode_file(8, recs)


def _blobs():
    out = {f"vertex-{k}": (encode_vertex(v), vertex_from_bytes)
           for k, v in _vertex_shapes().items()}
    out.update({f"task-{k}": (encode_task(w), decode_task)
                for k, w in _task_shapes().items()})
    out["spill-file"] = (_spill_blob(), decode_file)
    return out


@pytest.mark.parametrize("name", sorted(_blobs()))
def test_every_prefix_and_extension_is_corrupt(name):
    blob, decode = _blobs()[name]
    decode(blob)
    for n in range(len(blob)):
        with pytest.raises(CorruptData):
            decode(blob[:n])
    for extra in (b"\x00", b"\x01", b"\xff"):
        with pytest.raises(CorruptData, match="trailing"):
            decode(blob + extra)


@pytest.mark.parametrize("name", sorted(_vertex_shapes()))
def test_vertex_shapes_round_trip_canonically(name):
    v = _vertex_shapes()[name]
    blob = encode_vertex(v)
    back = vertex_from_bytes(blob)
    assert back == v
    assert back.neighbor_ids() == [a.nb for a in v.adj]
    assert encode_vertex(back) == blob


@pytest.mark.parametrize("name", sorted(_task_shapes()))
def test_task_shapes_round_trip_canonically(name):
    w = _task_shapes()[name]
    blob = encode_task(w)
    back = decode_task(blob)
    assert back.requested == w.requested
    assert back.subgraph.labels == w.subgraph.labels
    assert back.subgraph.adj == w.subgraph.adj
    assert encode_task(back) == blob


def test_id_runs_have_no_per_field_overhead():
    # u64 id, u32 degree, the id run, one presence byte
    assert len(encode_vertex(Vertex(1, None, [AdjItem(i) for i in range(2, 22)]))) \
        == 8 + 4 + 20 * 8 + 1
    # the empty subgraph is a bare count
    assert encode_subgraph(Subgraph()) == b"\x00\x00\x00\x00"
    # count, ids, degrees, neighbor run, presence byte
    assert len(encode_subgraph(_subgraph(False))) == \
        4 + 4 * 8 + 4 * 4 + 6 * 8 + 1


def test_task_payload_bytes_are_pinned():
    # seed id, iteration, pull count, the pulls in pull order, context
    # length, context, then the empty subgraph; no run of pending ids
    blob = encode_task(TaskWire(11, 2, (30, 4, 17), b"ctx", Subgraph()))
    assert blob == bytes.fromhex(
        "0b00000000000000" "02000000" "03000000"
        "1e00000000000000" "0400000000000000" "1100000000000000"
        "03000000" "637478" "00000000")
    # a version 4 spill file says so in its header
    head = encode_file(8, [(TaskKey((), 0), blob)])
    assert head[:6] == b"SMQ1\x04\x00"


def test_presence_byte_must_be_canonical():
    plain = encode_vertex(Vertex(1, None, [AdjItem(2)]))
    flag_at = 8 + 4 + 8
    assert plain[flag_at] == 0
    # an attribute block that holds only None would not be written
    all_none = plain[:flag_at] + b"\x02" + plain[flag_at + 1:] + b"\xff" * 4
    with pytest.raises(CorruptData, match="only None"):
        vertex_from_bytes(all_none)
    with pytest.raises(CorruptData, match="presence"):
        vertex_from_bytes(plain[:flag_at] + b"\x04")
    # a task ends with its subgraph, whose last byte here is the presence
    # byte; a subgraph has no attribute block, so bit 1 is corrupt too
    task_blob = encode_task(_task_shapes()["neither"])
    for flag in (b"\x02", b"\x80"):
        with pytest.raises(CorruptData, match="presence"):
            decode_task(task_blob[:-1] + flag)


def test_bad_utf8_is_corrupt():
    blob = encode_vertex(Vertex(1, "a", []))
    with pytest.raises(CorruptData, match="utf-8"):
        vertex_from_bytes(blob[:-1] + b"\xff")


def test_every_flipped_byte_of_a_spill_file_is_caught():
    blob = _spill_blob()
    for i in range(len(blob)):
        bad = bytearray(blob)
        bad[i] ^= 0x01
        with pytest.raises(CorruptData):
            decode_file(bytes(bad))


def test_spill_file_header_ell_must_match_records():
    # the header's ell comes from the records' keys, which must agree
    recs = [(TaskKey((1, 2), 0), b"p")]
    with pytest.raises(ValueError, match="4 signatures, expected 2"):
        encode_file(8, recs + [(TaskKey((1, 2, 3, 4), 1), b"q")])
    assert decode_file(encode_file(8, recs))[1:] == (2, recs)
    # FIFO spill files carry no signatures at all
    bare = [(TaskKey((), 0), b"p"), (TaskKey((), 1), b"")]
    assert decode_file(encode_file(8, bare)) == (8, 0, bare)
    assert decode_file(encode_file(8, [])) == (8, 0, [])
