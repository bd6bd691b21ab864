"""Hot-path kernels with a compiled fast path.

The compiled kernels are one module, _compiled, hand-written C against
the CPython API in _compiled.c, built by `setup.py` (on install, or in
place by `python setup.py build_ext --inplace`) and needing only a C
compiler.  Its sections are:
- the id hashes mix64 (behind graph.partition_owner) and
  minhash_signature (the lsh queue's keys);
- the clique searches max_clique and maximal_cliques;
- the kernels that read or build adjacency lists: count_closing_pairs
  (the triangle app), edges_symmetric (graph.check_undirected, before a
  job starts) and parse_id_lines (graph.read_graph's bulk parse of the
  lines without attributes, fed the file's text in pieces of whole
  lines).
BACKEND is "compiled" when _compiled imports, and then every kernel here
is the compiled one; otherwise every kernel is the pure-python reference
in submine.kernels.pure.  Set SUBMINE_PURE_KERNELS=1 in the environment
to force the pure backend.  Both backends return identical results (the
hashes bit for bit, the clique kernels with the same algorithms, visit
order and tie-breaking); benchmarks/bench_kernels.py compares their
speed.

count_closing_pairs takes every id read_graph accepts (0 to 2**64 - 1),
edges_symmetric answers False for an id outside that range, and the
hashes hash the low 64 bits of any int.  The compiled clique kernels
size their word buffers from n, so they take ego nets of any width.
The compiled parse_id_lines returns one int object per distinct id, and
rows the cyclic garbage collector does not track (they hold only ints).
"""

import os

from . import pure as _backend

BACKEND = "pure"
if os.environ.get("SUBMINE_PURE_KERNELS") != "1":
    try:
        from . import _compiled as _backend
    except ImportError:
        pass
    else:
        BACKEND = "compiled"

count_closing_pairs = _backend.count_closing_pairs
edges_symmetric = _backend.edges_symmetric
minhash_signature = _backend.minhash_signature
mix64 = _backend.mix64
max_clique = _backend.max_clique
maximal_cliques = _backend.maximal_cliques
parse_id_lines = _backend.parse_id_lines
