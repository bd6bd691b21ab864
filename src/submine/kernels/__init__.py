"""Hot-path kernels with a compiled fast path.

There are three compiled modules, each hand-written C against the
CPython API, built by `setup.py` (on install, or in place by
`python setup.py build_ext --inplace`) and needing only a C compiler:
- _cliques, from _cliques.c, holds the clique searches max_clique and
  maximal_cliques;
- _pairs, from _pairs.c, holds the kernels that read or build
  adjacency lists: count_closing_pairs (the triangle app),
  edges_symmetric (graph.check_undirected, before a job starts) and
  parse_id_lines (graph.read_graph's bulk parse of the lines without
  attributes, fed the file's text in pieces of whole lines);
- _hash, from _hash.c, holds the id hashes mix64 (behind
  graph.partition_owner) and minhash_signature (the lsh queue's keys).
BACKEND is "compiled" only when all three import, and then every kernel
here is the compiled one; otherwise every kernel is the pure-python
reference in submine.kernels.pure.  Set SUBMINE_PURE_KERNELS=1 in the
environment to force the pure backend.  Both backends return identical
results (the hashes bit for bit, the clique kernels with the same
algorithms, visit order and tie-breaking); benchmarks/bench_kernels.py
compares their speed.

count_closing_pairs takes every id read_graph accepts (0 to 2**64 - 1),
edges_symmetric answers False for an id outside that range, and the
hashes hash the low 64 bits of any int.  The compiled clique kernels
size their word buffers from n, so they take ego nets of any width.
The compiled parse_id_lines returns one int object per distinct id, and
rows the cyclic garbage collector does not track (they hold only ints).
"""

import os

from . import pure

BACKEND = "pure"
count_closing_pairs = pure.count_closing_pairs
edges_symmetric = pure.edges_symmetric
minhash_signature = pure.minhash_signature
mix64 = pure.mix64
max_clique = pure.max_clique
maximal_cliques = pure.maximal_cliques
parse_id_lines = pure.parse_id_lines

if os.environ.get("SUBMINE_PURE_KERNELS") == "1":
    _cliques = _pairs = _hash = None
else:
    try:
        from . import _cliques, _hash, _pairs
    except ImportError:
        _cliques = _pairs = _hash = None

if _hash is not None:
    BACKEND = "compiled"
    count_closing_pairs = _pairs.count_closing_pairs
    edges_symmetric = _pairs.edges_symmetric
    minhash_signature = _hash.minhash_signature
    mix64 = _hash.mix64
    max_clique = _cliques.max_clique
    maximal_cliques = _cliques.maximal_cliques
    parse_id_lines = _pairs.parse_id_lines
