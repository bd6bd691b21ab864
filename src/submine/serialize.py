"""Flat little-endian binary encodings for vertices, subgraphs, task
payloads, and queue spill files (format version 4).

Every run of ids is packed or unpacked with one `struct` call, and the
string blocks (labels, neighbor attributes) are written only when some
string in them is present, behind a presence byte.  Encodings are
canonical: collections are written in sorted order and a block that
would hold only None is left out, so encode(decode(b)) == b
byte-for-byte; decoders reject a block whose presence bit is set but
which holds only None.  Every count is bounds-checked before it is
used, so a truncated or extended buffer raises CorruptData, never a
bare struct or index error.

Layouts (u8/u16/u32/u64 little-endian; ids are u64):

string block of k optional strings
    k x u32 byte lengths (0xFFFFFFFF for None), then the utf-8 bytes of
    the present strings back to back.

vertex
    u64 id, u32 degree d, d x u64 neighbor ids (adjacency order),
    u8 presence (bit 0: label is not None; bit 1: some attribute is
    not None), then the label as a one-string block if bit 0 and the
    string block of the d attributes if bit 1.

subgraph
    u32 vertex count n; the empty subgraph is this count alone.
    Otherwise n x u64 sorted vertex ids, n x u32 degrees, the sorted
    neighbor ids of every vertex as one run of sum(degrees) x u64,
    u8 presence (bit 0: some label; no other bit may be set), then the
    string block of the n labels if bit 0.  Subgraph edges carry no
    attributes.

task payload
    u64 seed id, u32 iteration, u32 r, r x u64 requested ids (pull
    order), u32 context length, the context bytes, then the subgraph.
    The ids a task still lacks are not written: the worker that decodes
    a task is the one that encoded it, and derives them from its table.

record
    u16 ell, ell x u64 minhash signatures, u64 tie-break, u32 payload
    length, then the payload.

spill file
    magic "SMQ1", u16 format version, u32 file capacity, u16 ell,
    u32 record count, u32 CRC32 (zlib) of every other byte of the file,
    then the records in key order.  The header's ell is the signature
    count of the records' keys (0 for a file of no records); every
    record carries it.
"""

import struct
import zlib
from itertools import islice, repeat
from typing import NamedTuple

from .graph import Subgraph, Vertex
from .minhash import TaskKey

MAGIC = b"SMQ1"
FORMAT_VERSION = 4

_U32 = struct.Struct("<I")
_VERTEX_HEAD = struct.Struct("<QI")
_TASK_HEAD = struct.Struct("<QII")
_FILE_HEAD = struct.Struct("<4sHIHI")
_FILE_HEAD_SIZE = _FILE_HEAD.size + 4  # the CRC follows the fixed header
_NONE_LEN = 0xFFFFFFFF
_LABEL = 1
_ATTRS = 2


class CorruptData(ValueError):
    pass


def _need(data, end):
    if end > len(data):
        raise CorruptData("truncated record")


def _check_presence(flags, allowed=_LABEL | _ATTRS):
    if flags & ~allowed:
        raise CorruptData(f"unknown presence bits {flags:#04x}")


# -- string blocks ---------------------------------------------------------


def _pack_strings(strs):
    lens = []
    raws = []
    for s in strs:
        if s is None:
            lens.append(_NONE_LEN)
        else:
            raw = s.encode("utf-8")
            lens.append(len(raw))
            raws.append(raw)
    return struct.pack(f"<{len(lens)}I", *lens) + b"".join(raws)


def _strings_at(data, off, k):
    """The k optional strings of the block at `off`, and the offset past it."""
    end = off + 4 * k
    _need(data, end)
    lens = struct.unpack_from(f"<{k}I", data, off)
    if lens.count(_NONE_LEN) == k:
        raise CorruptData("string block holds only None")
    out = []
    off = end
    try:
        for n in lens:
            if n == _NONE_LEN:
                out.append(None)
            else:
                end = off + n
                _need(data, end)
                out.append(str(data[off:end], "utf-8"))
                off = end
    except UnicodeDecodeError as e:
        raise CorruptData(f"bad utf-8 in string block: {e}") from None
    return out, off


# -- vertices --------------------------------------------------------------


def encode_vertex(v: Vertex) -> bytes:
    ids = v.neighbor_ids()
    d = len(ids)
    attrs = v.neighbor_attrs()
    flags = (_LABEL if v.label is not None else 0) | (
        _ATTRS if attrs is not None else 0)
    out = struct.pack(f"<QI{d}QB", v.id, d, *ids, flags)
    if flags & _LABEL:
        out += _pack_strings([v.label])
    if flags & _ATTRS:
        out += _pack_strings(attrs)
    return out


def _vertex_at(data, off):
    _need(data, off + 12)
    vid, d = _VERTEX_HEAD.unpack_from(data, off)
    off += 12
    end = off + 8 * d + 1
    _need(data, end)
    run = struct.unpack_from(f"<{d}QB", data, off)
    flags = run[d]
    nbs = run[:d]
    _check_presence(flags)
    off = end
    label = attrs = None
    if flags & _LABEL:
        (label,), off = _strings_at(data, off, 1)
    if flags & _ATTRS:
        attrs, off = _strings_at(data, off, d)
    return Vertex.from_ids(vid, label, list(nbs), attrs), off


def vertex_from_bytes(data: bytes) -> Vertex:
    v, off = _vertex_at(data, 0)
    if off != len(data):
        raise CorruptData("trailing bytes after vertex")
    return v


# -- subgraphs -------------------------------------------------------------


def encode_subgraph(sg: Subgraph) -> bytes:
    labels = sg.labels
    n = len(labels)
    if not n:
        return _U32.pack(0)
    ids = sorted(labels)
    adj = sg.adj
    degs = []
    nbs = []
    for vid in ids:
        row = adj[vid]
        degs.append(len(row))
        nbs += sorted(row)
    labs = [labels[vid] for vid in ids]
    flags = _LABEL if labs.count(None) != n else 0
    out = struct.pack(f"<I{n}Q{n}I{len(nbs)}QB", n, *ids, *degs, *nbs, flags)
    if flags & _LABEL:
        out += _pack_strings(labs)
    return out


def _subgraph_at(data, off):
    sg = Subgraph()
    _need(data, off + 4)
    n = _U32.unpack_from(data, off)[0]
    off += 4
    if not n:
        return sg, off
    end = off + 12 * n
    _need(data, end)
    head = struct.unpack_from(f"<{n}Q{n}I", data, off)
    ids = head[:n]
    degs = head[n:]
    total = sum(degs)
    off = end
    end = off + 8 * total + 1
    _need(data, end)
    run = struct.unpack_from(f"<{total}QB", data, off)
    flags = run[total]
    _check_presence(flags, _LABEL)
    off = end
    if flags & _LABEL:
        labs, off = _strings_at(data, off, n)
        sg.labels = dict(zip(ids, labs))
    else:
        sg.labels = dict.fromkeys(ids)
    # each islice takes the next `d` ids off the one shared iterator
    rows = map(set, map(islice, repeat(iter(run)), degs))
    sg.adj = dict(zip(ids, rows))
    return sg, off


# -- task payloads ---------------------------------------------------------


class TaskWire(NamedTuple):
    """Task state as it crosses the disk/queue boundary."""

    seed_id: int
    iteration: int
    requested: tuple
    context: bytes
    subgraph: Subgraph


def encode_task(w: TaskWire) -> bytes:
    req = w.requested
    ctx = w.context
    r = len(req)
    return (
        struct.pack(f"<QII{r}QI", w.seed_id, w.iteration, r, *req, len(ctx))
        + ctx
        + encode_subgraph(w.subgraph)
    )


def decode_task(data: bytes) -> TaskWire:
    _need(data, _TASK_HEAD.size)
    seed_id, iteration, r = _TASK_HEAD.unpack_from(data, 0)
    off = _TASK_HEAD.size
    end = off + 8 * r + 4
    _need(data, end)
    run = struct.unpack_from(f"<{r}QI", data, off)
    off = end
    end = off + run[r]
    _need(data, end)
    context = data[off:end]
    subgraph, off = _subgraph_at(data, end)
    if off != len(data):
        raise CorruptData("trailing bytes after task")
    return TaskWire(seed_id, iteration, run[:r], context, subgraph)


# -- records and spill files -----------------------------------------------


class TaskRecord(NamedTuple):
    key: TaskKey
    payload: bytes


def _record_struct(ell):
    return struct.Struct(f"<H{ell + 1}QI")


def _pack_records(ell, records):
    rec = _record_struct(ell)
    parts = []
    for key, payload in records:
        try:
            parts.append(rec.pack(ell, *key.sigs, key.tiebreak, len(payload)))
        except struct.error:
            raise ValueError(
                f"record key carries {len(key.sigs)} signatures, expected {ell}"
            ) from None
        parts.append(payload)
    return b"".join(parts)


def _records_at(data, off, ell, count):
    """`count` records that each carry `ell` signatures, and the offset
    past them."""
    rec = _record_struct(ell)
    size = rec.size
    out = []
    for _ in range(count):
        end = off + size
        _need(data, end)
        f = rec.unpack_from(data, off)
        if f[0] != ell:
            raise CorruptData(f"record carries {f[0]} signatures, expected {ell}")
        off = end + f[-1]
        _need(data, off)
        out.append(TaskRecord(TaskKey(f[1:-2], f[-2]), data[end:off]))
    return out, off


def encode_file(file_capacity, records) -> bytes:
    """A spill file: header (magic, version, capacity, ell, count, CRC)
    then the records in key order.  The header's ell is the first key's
    signature count; a record whose key disagrees raises ValueError."""
    ell = len(records[0][0].sigs) if records else 0
    head = _FILE_HEAD.pack(MAGIC, FORMAT_VERSION, file_capacity, ell, len(records))
    body = _pack_records(ell, records)
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + _U32.pack(crc) + body


def decode_file(data: bytes):
    if data[:4] != MAGIC:
        raise CorruptData("bad magic")
    _need(data, _FILE_HEAD_SIZE)
    _, version, file_capacity, ell, count = _FILE_HEAD.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise CorruptData(f"unsupported format version {version}")
    records, off = _records_at(data, _FILE_HEAD_SIZE, ell, count)
    if off != len(data):
        raise CorruptData("trailing bytes after records")
    crc = _U32.unpack_from(data, _FILE_HEAD.size)[0]
    body = memoryview(data)[_FILE_HEAD_SIZE:]
    if zlib.crc32(body, zlib.crc32(data[:_FILE_HEAD.size])) != crc:
        raise CorruptData("CRC mismatch")
    return file_capacity, ell, records
