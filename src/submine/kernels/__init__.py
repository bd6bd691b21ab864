"""Hot-path search kernels with a compiled fast path.

The Cython extension (submine.kernels._fastpath) is built at install time
when a C toolchain is available; otherwise the pure-python reference
implementations in submine.kernels.pure are used.  Set
SUBMINE_PURE_KERNELS=1 in the environment to force the pure backend.
Both backends implement identical algorithms (including tie-breaking) and
return identical results; benchmarks/bench_kernels.py compares their
speed.

For very wide neighborhoods the compiled clique kernels hand back to the
pure implementation: python-int bitmasks degrade gracefully there, while
the extension's per-level word arrays would not.
"""

import os

from . import pure

_COMPILED_N_LIMIT = 4096

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

if _fastpath is not None:
    BACKEND = "compiled"
    count_closing_pairs = _fastpath.count_closing_pairs

    def max_clique(n, rows, lower_bound=0):
        if n > _COMPILED_N_LIMIT:
            return pure.max_clique(n, rows, lower_bound)
        return _fastpath.max_clique(n, rows, lower_bound)

    def maximal_cliques(n, rows, p_mask, x_mask):
        if n > _COMPILED_N_LIMIT:
            return pure.maximal_cliques(n, rows, p_mask, x_mask)
        return _fastpath.maximal_cliques(n, rows, p_mask, x_mask)
