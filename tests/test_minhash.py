"""MinHash keys: determinism, ordering, and collision fidelity."""

import random

import pytest

from submine.minhash import SENTINEL_SIG, TaskKey, derive_seeds, minhash_signature

from testkit import minhash_key


def test_derive_seeds_shape_and_determinism():
    s = derive_seeds(1, 4)
    assert len(s) == 4
    assert len(set(s)) == 4
    assert s == derive_seeds(1, 4)
    assert derive_seeds(2, 4) != s
    # a longer stream extends the shorter one
    assert derive_seeds(1, 8)[:4] == s
    with pytest.raises(ValueError):
        derive_seeds(1, 0)


def test_empty_pull_set_gets_sentinel():
    seeds = derive_seeds(7, 4)
    key = minhash_key((), 4, seeds)
    assert key.sigs == (SENTINEL_SIG,) * 4
    # sentinel sorts after any real key
    real = minhash_key((1, 2, 3), 4, seeds, tiebreak=10**9)
    assert real < key
    assert SENTINEL_SIG not in real.sigs


def test_signature_determinism_and_set_semantics():
    seeds = derive_seeds(3, 4)
    a = minhash_signature([4, 9, 17], seeds)
    assert a == minhash_signature([17, 4, 9], seeds)  # order-insensitive
    assert a == minhash_signature([4, 4, 9, 17], seeds)  # dup-insensitive
    assert a != minhash_signature([4, 9, 18], seeds)


def test_key_ordering_is_sigs_then_tiebreak():
    k1 = TaskKey((1, 2), 5)
    k2 = TaskKey((1, 2), 6)
    k3 = TaskKey((1, 3), 0)
    assert k1 < k2 < k3
    assert sorted([k3, k2, k1]) == [k1, k2, k3]


def test_minhash_key_validates_ell():
    seeds = derive_seeds(1, 4)
    with pytest.raises(ValueError, match="expected 3 seeds"):
        minhash_key((1,), 3, seeds)


def test_subset_signature_dominates():
    # each signature of a union is the min over parts
    rng = random.Random(5)
    seeds = derive_seeds(9, 6)
    for _ in range(100):
        a = set(rng.sample(range(1000), rng.randint(1, 20)))
        b = set(rng.sample(range(1000), rng.randint(1, 20)))
        sa = minhash_signature(a, seeds)
        sb = minhash_signature(b, seeds)
        su = minhash_signature(a | b, seeds)
        assert su == tuple(min(x, y) for x, y in zip(sa, sb))


def test_collision_frequency_tracks_jaccard():
    # identical sets always collide; disjoint sets essentially never do
    rng = random.Random(2)
    seeds = derive_seeds(4, 4)
    for _ in range(50):
        s = tuple(sorted(rng.sample(range(10**6), 10)))
        assert minhash_signature(s, seeds) == minhash_signature(s, seeds)
    collisions = 0
    for i in range(200):
        a = range(i * 100, i * 100 + 30)
        b = range(i * 100 + 50, i * 100 + 80)
        sa = minhash_signature(a, seeds)
        sb = minhash_signature(b, seeds)
        collisions += sum(x == y for x, y in zip(sa, sb))
    assert collisions <= 2  # 800 independent trials at p ~ 0
