"""Hot-path search kernels with a compiled fast path.

The extension submine.kernels._fastpath is built by `setup.py` (on
install, or in place by `python setup.py build_ext --inplace`) from the
committed Cython output _fastpath.c, which needs only a C compiler.
Without a compiler, or with SUBMINE_NO_EXT=1 set at build time, there is
no extension and the pure-python reference implementations in
submine.kernels.pure are used.  Set SUBMINE_PURE_KERNELS=1 in the
environment to force the pure backend.  Both backends implement
identical algorithms (including tie-breaking) and return identical
results; benchmarks/bench_kernels.py compares their speed.

Where the extension's fixed-width arrays cannot hold an input, the
wrapper hands it to the pure implementation: the clique kernels on very
wide neighborhoods (python-int bitmasks degrade gracefully there, the
per-level word arrays would not), and count_closing_pairs on vertex ids
of 2**63 and above, which overflow its int64 id arrays.
"""

import os

from . import pure

_COMPILED_N_LIMIT = 4096
_INT64_MAX = (1 << 63) - 1

BACKEND = "pure"
count_closing_pairs = pure.count_closing_pairs
max_clique = pure.max_clique
maximal_cliques = pure.maximal_cliques

if os.environ.get("SUBMINE_PURE_KERNELS") == "1":
    _fastpath = None
else:
    try:
        from . import _fastpath
    except ImportError:
        _fastpath = None


def _compiled_count_closing_pairs(ids, adj_lists):
    # ids ascend, so the last one bounds them.  Checked up front: the
    # extension converts ids before its cleanup block, and an overflow
    # there would leak its id array.
    if ids and ids[-1] > _INT64_MAX:
        return pure.count_closing_pairs(ids, adj_lists)
    try:
        return _fastpath.count_closing_pairs(ids, adj_lists)
    except OverflowError:  # a neighbor id >= 2**63 in adj_lists
        return pure.count_closing_pairs(ids, adj_lists)


if _fastpath is not None:
    BACKEND = "compiled"
    count_closing_pairs = _compiled_count_closing_pairs

    def max_clique(n, rows, lower_bound=0):
        if n > _COMPILED_N_LIMIT:
            return pure.max_clique(n, rows, lower_bound)
        return _fastpath.max_clique(n, rows, lower_bound)

    def maximal_cliques(n, rows, p_mask, x_mask):
        if n > _COMPILED_N_LIMIT:
            return pure.maximal_cliques(n, rows, p_mask, x_mask)
        return _fastpath.maximal_cliques(n, rows, p_mask, x_mask)
