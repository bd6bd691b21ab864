"""MinHash scheduling keys.

A task's key is a tuple of minhash signatures of its remote pull set plus
a sequence tie-break.  Tasks with overlapping pull sets agree on each
signature with probability equal to the Jaccard similarity of the sets,
so sorting tasks by key places tasks that want the same vertices next to
each other -- that is the whole locality story of the disk queue.

Signature k is the minimum of mix64(v ^ seeds[k]) over the pull ids v.
`minhash_signature` is the kernels backend's: hand-written C (_compiled.c)
when the compiled kernels are built, else the pure twin in
kernels.pure, which gives the same tuples bit for bit.

Tasks with an empty pull set get an all-max sentinel key, which sorts
last; ordering among them falls to the tie-break.
"""

from typing import NamedTuple

from .graph import MASK64, mix64
from .kernels import minhash_signature
from .kernels.pure import SENTINEL_SIG

GOLDEN64 = 0x9E3779B97F4A7C15


def check_ell(ell):
    """A key needs at least one signature, and a spill file stores the
    signature count as a u16."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > 0xFFFF:
        raise ValueError("ell must be <= 65535")


def derive_seeds(run_seed: int, ell: int):
    """Derive `ell` signature seeds from one run seed (splitmix stream)."""
    check_ell(ell)
    out = []
    s = run_seed & MASK64
    for _ in range(ell):
        s = (s + GOLDEN64) & MASK64
        out.append(mix64(s))
    return tuple(out)


class TaskKey(NamedTuple):
    """Total order: signatures lexicographically, then tie-break.

    A tuple, so keys compare and sort in C; the queue sorts thousands."""

    sigs: tuple
    tiebreak: int
