"""Hot-path kernels with a compiled fast path.

There are three compiled modules, built by `setup.py` (on install, or in
place by `python setup.py build_ext --inplace`) and needing only a C
compiler:
- _fastpath, from the committed Cython output _fastpath.c, holds the
  clique kernels max_clique and maximal_cliques;
- _pairs, from the hand-written _pairs.c, holds the two kernels that read
  adjacency lists: count_closing_pairs (the triangle app) and
  edges_symmetric (graph.check_undirected, before a job starts);
- _hash, from the hand-written _hash.c, holds the id hashes mix64 (behind
  graph.partition_owner) and minhash_signature (the lsh queue's keys).
BACKEND is "compiled" only when all three import, and then every kernel
here is the compiled one; otherwise, or with SUBMINE_NO_EXT=1 set at
build time, every kernel is the pure-python reference in
submine.kernels.pure.  Set SUBMINE_PURE_KERNELS=1 in the environment to
force the pure backend.  Both backends return identical results (the
hashes bit for bit, the clique kernels with the same algorithms and
tie-breaking); benchmarks/bench_kernels.py compares their speed.

count_closing_pairs takes every id read_graph accepts (0 to 2**64 - 1),
edges_symmetric answers False for an id outside that range, and the
hashes hash the low 64 bits of any int.  The clique kernels'
fixed-width word arrays do not scale to very wide neighborhoods, so past
_COMPILED_N_LIMIT vertices the wrapper hands those to the pure
implementation, whose python-int bitmasks degrade gracefully.
"""

import os

from . import pure

_COMPILED_N_LIMIT = 4096

BACKEND = "pure"
count_closing_pairs = pure.count_closing_pairs
edges_symmetric = pure.edges_symmetric
minhash_signature = pure.minhash_signature
mix64 = pure.mix64
max_clique = pure.max_clique
maximal_cliques = pure.maximal_cliques

if os.environ.get("SUBMINE_PURE_KERNELS") == "1":
    _fastpath = _pairs = _hash = None
else:
    try:
        from . import _fastpath, _hash, _pairs
    except ImportError:
        _fastpath = _pairs = _hash = None

if _hash is not None:
    BACKEND = "compiled"
    count_closing_pairs = _pairs.count_closing_pairs
    edges_symmetric = _pairs.edges_symmetric
    minhash_signature = _hash.minhash_signature
    mix64 = _hash.mix64

    def max_clique(n, rows, lower_bound=0):
        if n > _COMPILED_N_LIMIT:
            return pure.max_clique(n, rows, lower_bound)
        return _fastpath.max_clique(n, rows, lower_bound)

    def maximal_cliques(n, rows, p_mask, x_mask):
        if n > _COMPILED_N_LIMIT:
            return pure.maximal_cliques(n, rows, p_mask, x_mask)
        return _fastpath.maximal_cliques(n, rows, p_mask, x_mask)
