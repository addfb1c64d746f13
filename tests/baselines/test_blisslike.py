"""Unit tests for the bliss-like canonical labeling hasher."""

import numpy as np

from repro.baselines import BlissLikeHasher, canonical_form_search
from repro.core import Pattern, eigen_hash
from repro.core.eigenhash import HARARY_COSPECTRAL_9
from tests.oracles import are_isomorphic


def _random_pattern(rng, max_k=6, num_labels=2):
    k = int(rng.integers(2, max_k + 1))
    mat = np.triu((rng.random((k, k)) < 0.5).astype(int), 1)
    mat = mat + mat.T
    labels = rng.integers(0, num_labels, size=k).tolist()
    return Pattern.from_adjacency(labels, mat)


def test_canonical_form_invariant():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = _random_pattern(rng)
        form, _ = canonical_form_search(p)
        perm = rng.permutation(p.num_vertices).tolist()
        form2, _ = canonical_form_search(p.permute(perm))
        assert form == form2


def test_canonical_form_complete():
    """Equal form ⟺ isomorphic, against the exact checker."""
    rng = np.random.default_rng(5)
    pats = [_random_pattern(rng, max_k=5) for _ in range(25)]
    for a in pats:
        for b in pats:
            same = canonical_form_search(a)[0] == canonical_form_search(b)[0]
            assert same == are_isomorphic(a, b)


def test_allocations_counted():
    p = Pattern.from_adjacency([0] * 5, np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    _, allocs = canonical_form_search(p)
    assert allocs > 1  # K5 needs individualization branching


def test_hasher_agrees_with_eigenhash_partition():
    """Both checkers induce the same partition into isomorphism classes."""
    rng = np.random.default_rng(8)
    pats = [_random_pattern(rng, max_k=6) for _ in range(40)]
    bliss = BlissLikeHasher()
    for a in pats:
        for b in pats:
            assert (bliss.hash_pattern(a) == bliss.hash_pattern(b)) == (
                eigen_hash(a) == eigen_hash(b)
            )


def test_hasher_separates_harary9():
    """Unlike EigenHash, the search tree handles 9+ vertices exactly."""
    a, b = HARARY_COSPECTRAL_9
    bliss = BlissLikeHasher()
    assert bliss.hash_pattern(a) != bliss.hash_pattern(b)


def test_cache_on_raw_key():
    bliss = BlissLikeHasher()
    chain = Pattern.from_adjacency([0, 0, 0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    h1 = bliss.hash_pattern(chain)
    h1b = bliss.hash_pattern(chain)
    assert h1 == h1b
    assert bliss.hits == 1 and bliss.misses == 1
    # A different raw representation of the same class misses the cache.
    h2 = bliss.hash_pattern(chain.permute([1, 0, 2]))
    assert h2 == h1
    assert bliss.misses == 2


def test_representative():
    bliss = BlissLikeHasher()
    tri = Pattern.from_adjacency([1, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    rep = bliss.representative(bliss.hash_pattern(tri))
    assert rep is not None and are_isomorphic(rep, tri)


def test_nbytes_tracks_usage():
    bliss = BlissLikeHasher()
    before = bliss.nbytes
    rng = np.random.default_rng(1)
    for _ in range(10):
        bliss.hash_pattern(_random_pattern(rng))
    assert bliss.nbytes > before
    assert bliss.total_allocations > 0
