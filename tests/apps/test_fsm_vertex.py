"""Unit tests for vertex-induced FSM."""

import pytest

from repro import KaleidoEngine
from repro.apps.fsm_vertex import VertexInducedFSM
from repro.apps.reference import connected_vertex_sets
from repro.core import Pattern, canonical_key
from repro.core.isomorphism import pattern_from_key
from repro.core.pattern import MAX_EIGENHASH_VERTICES
from repro.graph import from_edge_list
from tests.conftest import random_labeled_graph


def vfsm_naive(graph, k, support):
    """Brute force: induced patterns of connected k-sets, exact MNI."""
    domains = {}
    for verts in connected_vertex_sets(graph, k):
        pattern = Pattern.from_vertex_embedding(graph, verts)
        key = canonical_key(pattern)
        canon = pattern_from_key(key)
        doms = domains.setdefault(key, [set() for _ in range(k)])
        from itertools import permutations

        for perm in permutations(range(k)):
            if pattern.permute(perm) == canon:
                for pos in range(k):
                    doms[pos].add(verts[perm[pos]])
    return {
        key: min(len(d) for d in doms)
        for key, doms in domains.items()
        if min(len(d) for d in doms) >= support
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k,support", [(2, 2), (3, 2), (3, 3)])
def test_matches_naive(seed, k, support):
    graph = random_labeled_graph(11, 20, 2, seed=200 + seed)
    got = KaleidoEngine(graph).run(VertexInducedFSM(k, support, exact_mni=True))
    expected = vfsm_naive(graph, k, support)
    assert sorted(got.value.values()) == sorted(expected.values()), (seed, k, support)


def test_induced_semantics_differ_from_edge_induced(paper_graph):
    """A triangle's vertex set never supports the induced 3-chain pattern."""
    g = paper_graph.relabel([0] * 6)
    result = KaleidoEngine(g).run(VertexInducedFSM(3, 1, exact_mni=True))
    reps = {tuple(sorted(p.degree_sequence())): s
            for h, s in result.value.items()
            for p in [result.value.patterns[h]]}
    # Chain (1,1,2) and triangle (2,2,2) are separate induced patterns.
    assert (1, 1, 2) in reps and (2, 2, 2) in reps


def test_label_frequency_seed_filter():
    g = from_edge_list([(0, 1), (1, 2), (2, 3)], labels=[0, 0, 0, 5])
    # Label 5 occurs once: with support 2 it cannot seed anything.
    result = KaleidoEngine(g).run(VertexInducedFSM(2, 2, exact_mni=True))
    for pattern in result.value.patterns.values():
        assert 5 not in pattern.labels


def test_threshold_mode_same_frequent_set():
    graph = random_labeled_graph(14, 28, 2, seed=77)
    exact = KaleidoEngine(graph).run(VertexInducedFSM(3, 3, exact_mni=True))
    fast = KaleidoEngine(graph).run(VertexInducedFSM(3, 3))
    assert set(exact.value) == set(fast.value)


def test_validates():
    with pytest.raises(ValueError):
        VertexInducedFSM(1, 2)
    with pytest.raises(ValueError):
        VertexInducedFSM(3, 0)


def test_rejects_patterns_eigenhash_cannot_fingerprint():
    """Refused in the constructor, before any level is explored."""
    VertexInducedFSM(MAX_EIGENHASH_VERTICES, 1)
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        VertexInducedFSM(MAX_EIGENHASH_VERTICES + 1, 1)


def test_automorphism_placements_used(paper_graph):
    """Symmetric patterns fill domains through every automorphism."""
    g = paper_graph.relabel([0] * 6)
    result = KaleidoEngine(g).run(VertexInducedFSM(2, 1, exact_mni=True))
    # Single-edge pattern: support = number of distinct endpoint vertices.
    [(h, s)] = list(result.value.items())
    assert s == 5  # vertices 1..5 all appear in edges
