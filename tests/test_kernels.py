"""Search kernels: pure vs compiled parity, oracle checks, backend wiring."""

import os
import random
import subprocess
import sys

import pytest

from submine import kernels
from submine.kernels import pure

HAVE_COMPILED = kernels.BACKEND == "compiled"


def _random_rows(rng, n, p):
    """Symmetric bitmask adjacency over n vertices."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _is_clique(rows, members):
    return all(rows[a] >> b & 1 for i, a in enumerate(members)
               for b in members[i + 1:])


# -- backend selection ---------------------------------------------------------


def test_backend_matches_built_extension():
    here = os.path.dirname(kernels.__file__)
    built = any(f.startswith("_fastpath") and f.endswith(".so")
                for f in os.listdir(here))
    if built:
        assert kernels.BACKEND == "compiled"
    else:
        assert kernels.BACKEND == "pure"


def test_env_var_forces_pure_backend():
    env = dict(os.environ, SUBMINE_PURE_KERNELS="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from submine import kernels; print(kernels.BACKEND)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "pure"


# -- count_closing_pairs --------------------------------------------------------


def test_count_closing_pairs_brute_force():
    rng = random.Random(6)
    for _ in range(200):
        ids = sorted(rng.sample(range(100), rng.randint(0, 12)))
        adj_lists = []
        for _v in ids:
            adj_lists.append(sorted(rng.sample(range(100), rng.randint(0, 10))))
        want = sum(
            1
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
            if ids[j] in adj_lists[i]
        )
        assert pure.count_closing_pairs(ids, adj_lists) == want
        assert kernels.count_closing_pairs(ids, adj_lists) == want


def test_count_closing_pairs_empty():
    assert kernels.count_closing_pairs([], []) == 0
    assert kernels.count_closing_pairs([1, 2], [[], []]) == 0


# -- max_clique ------------------------------------------------------------------


def _max_clique_bf(rows, n):
    best = 0
    for mask in range(1 << n):
        members = _bits(mask)
        if len(members) > best and _is_clique(rows, members):
            best = len(members)
    return best


def test_max_clique_small_bruteforce():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 10)
        rows = _random_rows(rng, n, 0.5)
        want = _max_clique_bf(rows, n)
        size, mask = kernels.max_clique(n, rows)
        if want == 0:
            assert (size, mask) == (0, 0)
        else:
            assert size == want
            members = _bits(mask)
            assert len(members) == size
            assert _is_clique(rows, members)


def test_max_clique_lower_bound_semantics():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(3, 12)
        rows = _random_rows(rng, n, 0.6)
        size, mask = kernels.max_clique(n, rows)
        if size == 0:
            continue
        # bound at the optimum: nothing strictly better exists
        assert kernels.max_clique(n, rows, lower_bound=size) == (0, 0)
        # bound just below: still found, same size
        s2, m2 = kernels.max_clique(n, rows, lower_bound=size - 1)
        assert s2 == size


def test_max_clique_witness_invariant_under_lower_bound():
    # the first optimum in search order does not depend on the bound,
    # which is what makes the engine's shared-bound pruning deterministic
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(3, 13)
        rows = _random_rows(rng, n, 0.55)
        size, mask = kernels.max_clique(n, rows)
        if size == 0:
            continue
        for lb in range(size):
            assert kernels.max_clique(n, rows, lower_bound=lb) == (size, mask)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled backend unavailable")
def test_max_clique_backend_parity():
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randint(0, 18)
        rows = _random_rows(rng, n, rng.choice([0.3, 0.5, 0.8]))
        lb = rng.randint(0, 3)
        assert kernels._fastpath.max_clique(n, rows, lb) == \
            pure.max_clique(n, rows, lb)


def test_max_clique_wide_input_falls_back():
    # beyond the compiled width limit the wrapper must agree with pure
    n = 4100
    rows = [0] * n
    for a, b in ((4090, 4091), (4090, 4092), (4091, 4092)):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    size, mask = kernels.max_clique(n, rows)
    assert size == 3
    assert sorted(_bits(mask)) == [4090, 4091, 4092]


# -- maximal_cliques -------------------------------------------------------------


def _maximal_bf(rows, n):
    out = set()
    for mask in range(1, 1 << n):
        members = _bits(mask)
        if not _is_clique(rows, members):
            continue
        extendable = any(
            all(rows[v] >> m & 1 for m in members)
            for v in range(n) if not mask >> v & 1
        )
        if not extendable:
            out.add(mask)
    return out


def test_maximal_cliques_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        rows = _random_rows(rng, n, 0.5)
        full = (1 << n) - 1
        got = kernels.maximal_cliques(n, rows, full, 0)
        assert set(got) == _maximal_bf(rows, n)
        assert len(got) == len(set(got))


def test_maximal_cliques_x_mask_suppresses():
    # triangle 0-1-2; X = {0} means cliques containing only {1,2,...}
    # extendable by 0 are suppressed
    rows = [0b110, 0b101, 0b011]
    assert set(kernels.maximal_cliques(3, rows, 0b111, 0)) == {0b111}
    got = kernels.maximal_cliques(3, rows, 0b110, 0b001)
    assert got == []  # {1,2} extends by 0, so nothing maximal without 0


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled backend unavailable")
def test_maximal_cliques_backend_parity():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(0, 16)
        rows = _random_rows(rng, n, rng.choice([0.3, 0.6]))
        pm = rng.getrandbits(n) if n else 0
        xm = rng.getrandbits(n) & ~pm if n else 0
        assert kernels._fastpath.maximal_cliques(n, rows, pm, xm) == \
            pure.maximal_cliques(n, rows, pm, xm)


def test_maximal_cliques_wide_input_falls_back():
    n = 4100
    rows = [0] * n
    rows[4098] = 1 << 4099
    rows[4099] = 1 << 4098
    got = kernels.maximal_cliques(n, rows, (1 << 4098) | (1 << 4099), 0)
    assert got == [(1 << 4098) | (1 << 4099)]


def test_bench_script_smoke():
    """The backend benchmark runs end to end and prints its table."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "benchmarks", "bench_kernels.py")
    out = subprocess.run(
        [sys.executable, script, "--repeat", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].split()[:2] == ["kernel", "calls"]
