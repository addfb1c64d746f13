"""Unit tests for pattern matching (Figure 1)."""

import numpy as np
import pytest

from repro import KaleidoEngine, MiningApplication
from repro.apps.matching import PatternMatching
from repro.core import Pattern
from repro.apps.reference import connected_vertex_sets
from repro.graph import from_edge_list
from tests.conftest import random_labeled_graph
from tests.oracles import are_isomorphic


def _figure1_graph():
    """Figure 1's input graph: vertices 1..5, two label colors."""
    return from_edge_list(
        [(1, 2), (1, 5), (2, 5), (2, 3), (3, 4), (3, 5), (4, 5)],
        labels=[0, 1, 0, 1, 1, 0],  # vertex 0 unused; 2 and 5 share a color
    )


def test_figure1_pattern_matching():
    """Figure 1: pattern p (a 3-chain with colored endpoints) has
    embeddings a=(1,2,5)... — we verify against brute force below; here
    the chain 1-2-5 must match."""
    graph = _figure1_graph()
    # Pattern: chain x - y - z with labels like (1, 0, 0): a triangle in
    # Figure 1 is (1,2,5) with labels (1, 0, 0).
    pattern = Pattern.from_vertex_embedding(graph, [1, 2, 5])
    result = KaleidoEngine(graph).run(PatternMatching(pattern, materialize=True))
    assert result.value.count >= 1
    assert any(sorted(m) == [1, 2, 5] for m in result.value.matches)


def _naive_matches(graph, pattern):
    k = pattern.num_vertices
    return sum(
        1
        for verts in connected_vertex_sets(graph, k)
        if are_isomorphic(Pattern.from_vertex_embedding(graph, verts), pattern)
    )


@pytest.mark.parametrize("seed", range(3))
def test_matches_naive(seed):
    graph = random_labeled_graph(12, 26, 2, seed=seed)
    sets3 = connected_vertex_sets(graph, 3)
    if not sets3:
        pytest.skip("degenerate random graph")
    pattern = Pattern.from_vertex_embedding(graph, sets3[len(sets3) // 2])
    got = KaleidoEngine(graph).run(PatternMatching(pattern)).value.count
    assert got == _naive_matches(graph, pattern)


def test_label_mismatch_yields_zero():
    graph = from_edge_list([(0, 1), (1, 2)], labels=[0, 0, 0])
    pattern = Pattern.from_adjacency([7, 7, 7], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert KaleidoEngine(graph).run(PatternMatching(pattern)).value.count == 0


def test_triangle_pattern_counts_triangles(paper_graph):
    pattern = Pattern.from_adjacency([0] * 3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    result = KaleidoEngine(paper_graph).run(PatternMatching(pattern))
    assert result.value == 3


def test_induced_semantics(paper_graph):
    """A 3-chain pattern does NOT match vertex sets that induce triangles."""
    chain = Pattern.from_adjacency([0] * 3, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    result = KaleidoEngine(paper_graph).run(PatternMatching(chain))
    assert result.value == 5  # 8 connected triples - 3 triangles


def test_validates_pattern():
    with pytest.raises(ValueError):
        PatternMatching(Pattern((0,), 0))
    disconnected = Pattern.from_adjacency([0] * 4, [[0, 1, 0, 0], [1, 0, 0, 0],
                                                    [0, 0, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        PatternMatching(disconnected)
    path9 = Pattern.from_adjacency(
        [0] * 9, [[int(abs(i - j) == 1) for j in range(9)] for i in range(9)]
    )
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        PatternMatching(path9)


def test_result_equality():
    graph = _figure1_graph()
    pattern = Pattern.from_vertex_embedding(graph, [1, 2, 5])
    a = KaleidoEngine(graph).run(PatternMatching(pattern)).value
    b = KaleidoEngine(graph).run(PatternMatching(pattern)).value
    assert a == b
    assert a == a.count


class PerRowMatching(PatternMatching):
    """The per-embedding mapper as an oracle: one ``Pattern`` and one
    backtracking ``are_isomorphic`` test per row, through the default
    per-row ``map_block``."""

    map_block = MiningApplication.map_block

    def map_embedding(self, ctx, embedding, pmap):
        candidate = Pattern.from_vertex_embedding(ctx.graph, embedding)
        if are_isomorphic(candidate, self.pattern):
            if self.materialize:
                pmap.setdefault(0, []).append(embedding)
            else:
                pmap[0] = pmap.get(0, 0) + 1


def _graph(seed, k, edge_labelled):
    """A random 2-labelled 12-vertex graph with a planted label-0 K_k, so
    that complete queries have matches too."""
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.2, 0.45)
    edges = {(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < density}
    edges |= {(u, v) for u in range(k) for v in range(u + 1, k)}
    labels = rng.integers(2, size=12)
    labels[:k] = 0
    graph = from_edge_list(sorted(edges), labels=labels.tolist())
    if edge_labelled:
        graph = graph.with_edge_labels(rng.integers(2, size=graph.num_edges))
    return graph, rng


def _query(graph, k, kind, rng):
    if kind == "complete":
        return Pattern((0,) * k, (1 << k * (k - 1) // 2) - 1)
    sets = connected_vertex_sets(graph, k)
    drawn = Pattern.from_vertex_embedding(graph, sets[int(rng.integers(len(sets)))])
    return drawn if kind == "drawn" else Pattern(drawn.labels, drawn.bits)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["drawn", "stripped", "complete"])
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("edge_labelled", [False, True])
def test_block_mapper_matches_per_row_oracle(edge_labelled, k, kind, seed):
    """Counts and materialised match lists, order included, equal the
    per-row oracle's under both executors, materialised or not."""
    graph, rng = _graph(1000 * seed + 10 * k + edge_labelled, k, edge_labelled)
    pattern = _query(graph, k, kind, rng)
    oracle = KaleidoEngine(graph).run(PerRowMatching(pattern, materialize=True)).value
    for executor in ("serial", "threads"):
        with KaleidoEngine(graph, workers=2, executor=executor) as engine:
            for materialize in (False, True):
                got = engine.run(PatternMatching(pattern, materialize=materialize)).value
                assert got.count == oracle.count
                assert got.matches == (oracle.matches if materialize else None)
