"""The optimised inline hot paths must match their reference versions."""

import numpy as np

from repro.core import CSE, eigen_hash, faddeev_leverrier, weighted_adjacency
from repro.core.explore import expand_edge_level
from repro.core.pattern import Pattern
from repro.graph.edge_index import EdgeIndex
from tests.conftest import random_labeled_graph


def test_inline_edge_expand_matches_full_recheck():
    from repro.baselines.canonical import edge_is_canonical

    for seed in range(3):
        graph = random_labeled_graph(12, 24, 2, seed=10 + seed)
        index = EdgeIndex(graph)
        cse = CSE(np.arange(index.num_edges))
        for _ in range(2):
            expand_edge_level(graph, index, cse)
        for _, emb in cse.iter_embeddings():
            edges = tuple(index.endpoints(e) for e in emb)
            assert edge_is_canonical(edges, emb)


def test_inline_eigenhash_matches_pipeline_pieces():
    """eigen_hash's inlined decode/sort/weight/poly equals the composable
    building blocks it replaced."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(2, 7))
        bits = int(rng.integers(0, 1 << (k * (k - 1) // 2)))
        labels = tuple(int(x) for x in rng.integers(0, 3, size=k))
        pattern = Pattern(labels, bits)
        normalized, _ = pattern.sorted_by_label_degree()
        poly_pipeline = faddeev_leverrier(weighted_adjacency(normalized))
        # Re-derive via the public hash twice for determinism, then check
        # the polynomial piece agrees with a from-scratch computation.
        assert eigen_hash(pattern) == eigen_hash(normalized)
        from repro.core.eigenhash import _stable_hash

        expected = (
            _stable_hash(normalized.labels)
            ^ _stable_hash(normalized.degree_sequence())
            ^ _stable_hash(poly_pipeline)
        )
        assert eigen_hash(pattern) == expected
