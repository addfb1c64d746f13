"""Unit tests for exact isomorphism and canonical keys."""

import numpy as np

from repro.core import Pattern, canonical_key
from repro.core.isomorphism import automorphisms
from tests.oracles import are_isomorphic, automorphism_count


def _chain(labels):
    k = len(labels)
    mat = np.zeros((k, k), dtype=int)
    for i in range(k - 1):
        mat[i, i + 1] = mat[i + 1, i] = 1
    return Pattern.from_adjacency(labels, mat)


def _cycle(labels):
    k = len(labels)
    mat = np.zeros((k, k), dtype=int)
    for i in range(k):
        mat[i, (i + 1) % k] = mat[(i + 1) % k, i] = 1
    return Pattern.from_adjacency(labels, mat)


def test_identical_isomorphic():
    p = _chain([0, 1, 0])
    assert are_isomorphic(p, p)


def test_relabeled_isomorphic():
    p = _chain([0, 1, 2])
    assert are_isomorphic(p, p.permute([2, 1, 0]))


def test_different_sizes():
    assert not are_isomorphic(_chain([0, 0]), _chain([0, 0, 0]))


def test_different_label_multisets():
    assert not are_isomorphic(_chain([0, 0, 0]), _chain([0, 0, 1]))


def test_same_labels_different_structure():
    chain = _chain([0, 0, 0, 0])
    cycle = _cycle([0, 0, 0, 0])
    assert not are_isomorphic(chain, cycle)


def test_label_position_matters():
    # chain a-b-a vs chain a-a-b: same multiset, different structure.
    p1 = _chain([0, 1, 0])
    p2 = _chain([0, 0, 1])
    assert not are_isomorphic(p1, p2)


def test_canonical_key_invariant_under_permutation():
    rng = np.random.default_rng(3)
    p = _cycle([0, 1, 0, 1])
    for _ in range(10):
        perm = rng.permutation(4).tolist()
        assert canonical_key(p.permute(perm)) == canonical_key(p)


def test_canonical_key_separates_non_isomorphic():
    assert canonical_key(_chain([0, 0, 0, 0])) != canonical_key(_cycle([0, 0, 0, 0]))


def test_canonical_key_vs_exact_iso_random():
    rng = np.random.default_rng(11)
    pats = []
    for _ in range(40):
        k = int(rng.integers(2, 6))
        mat = np.triu((rng.random((k, k)) < 0.5).astype(int), 1)
        mat = mat + mat.T
        labels = rng.integers(0, 2, size=k).tolist()
        pats.append(Pattern.from_adjacency(labels, mat))
    for a in pats:
        for b in pats:
            assert (canonical_key(a) == canonical_key(b)) == are_isomorphic(a, b)


def test_automorphism_count_path():
    assert automorphism_count(_chain([0, 0, 0])) == 2  # reflection
    assert automorphism_count(_chain([0, 1, 0])) == 2
    assert automorphism_count(_chain([0, 1, 2])) == 1


def test_automorphism_count_cycle_and_clique():
    assert automorphism_count(_cycle([0, 0, 0])) == 6  # K3 = S3
    assert automorphism_count(_cycle([0, 0, 0, 0])) == 8  # C4 dihedral


def test_automorphisms_are_automorphisms():
    p = _cycle([0, 0, 0, 0])
    auts = automorphisms(p)
    assert len(auts) == 8
    for perm in auts:
        assert p.permute(perm) == p


def test_automorphisms_identity_present():
    p = _chain([0, 1, 2])
    assert automorphisms(p) == [(0, 1, 2)]
