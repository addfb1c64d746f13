"""Unit tests for the Pattern structure (Figure 5)."""

import numpy as np
import pytest

from repro.core import Pattern, triangle_index
from repro.errors import EmbeddingSizeError


def test_triangle_index_enumeration():
    # For k=4, the upper triangle has 6 cells in row-major order.
    cells = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert [triangle_index(i, j, 4) for i, j in cells] == list(range(6))


def test_triangle_index_validates():
    with pytest.raises(ValueError):
        triangle_index(2, 1, 4)
    with pytest.raises(ValueError):
        triangle_index(0, 4, 4)


def test_from_vertex_embedding_induced(paper_graph):
    p = Pattern.from_vertex_embedding(paper_graph, [2, 3, 5])
    assert p.num_edges == 3  # triangle: all induced edges included
    assert p.degree_sequence() == (2, 2, 2)


def test_from_vertex_embedding_chain(paper_graph):
    p = Pattern.from_vertex_embedding(paper_graph, [1, 2, 3])
    assert p.num_edges == 2
    assert sorted(p.degree_sequence()) == [1, 1, 2]


def test_from_vertex_embedding_labels(labeled_square):
    p = Pattern.from_vertex_embedding(labeled_square, [0, 1, 2])
    assert p.labels == (0, 1, 0)
    p2 = Pattern.from_vertex_embedding(labeled_square, [0, 1, 2], use_labels=False)
    assert p2.labels == (0, 0, 0)


def test_from_edge_embedding_not_induced(paper_graph):
    # Edge-induced pattern includes only the given edges, not the chord.
    p = Pattern.from_edge_embedding(paper_graph, [(2, 3), (3, 5)])
    assert p.num_edges == 2  # (2,5) edge exists in graph but is excluded


def test_from_adjacency_roundtrip():
    mat = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    p = Pattern.from_adjacency([7, 8, 9], mat)
    assert np.array_equal(p.adjacency_matrix(), np.array(mat))
    assert p.labels == (7, 8, 9)


def test_has_edge_symmetric():
    p = Pattern.from_adjacency([0, 0, 0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert p.has_edge(0, 1) and p.has_edge(1, 0)
    assert not p.has_edge(0, 2)
    assert not p.has_edge(1, 1)


def test_degree_sequence_matches_matrix():
    p = Pattern.from_adjacency([0] * 4, np.ones((4, 4)) - np.eye(4))
    assert p.degree_sequence() == (3, 3, 3, 3)
    assert p.num_edges == 6


def test_is_connected():
    chain = Pattern.from_adjacency([0] * 3, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert chain.is_connected()
    split = Pattern.from_adjacency([0] * 3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert not split.is_connected()


def test_permute_preserves_structure():
    p = Pattern.from_adjacency([1, 2, 3], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    q = p.permute([2, 1, 0])
    assert q.labels == (3, 2, 1)
    assert q.degree_sequence() == (1, 2, 1)
    assert q.permute([2, 1, 0]) == p


def test_permute_validates():
    p = Pattern((0, 0), 1)
    with pytest.raises(ValueError):
        p.permute([0, 0])


def test_sorted_by_label_degree():
    p = Pattern.from_adjacency([2, 1, 1], [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    normalized, perm = p.sorted_by_label_degree()
    assert normalized.labels == (1, 1, 2)
    # Permutation maps embedding positions: perm[t] = original position.
    assert p.permute(perm) == normalized


def test_storage_size_matches_figure5():
    # Figure 5: a 5-vertex pattern needs a 10-bit bitmap and 5 label bytes.
    p = Pattern((0, 1, 2, 3, 4), 0)
    assert p.storage_bits == 10
    assert p.nbytes == 5 + 2


def test_check_eigenhash_size():
    small = Pattern((0,) * 7, 0)
    small.check_eigenhash_size()  # no raise
    big = Pattern((0,) * 8, 0)
    with pytest.raises(EmbeddingSizeError):
        big.check_eigenhash_size()


def test_patterns_hashable_and_frozen():
    p = Pattern((0, 1), 1)
    assert p == Pattern((0, 1), 1)
    assert hash(p) == hash(Pattern((0, 1), 1))
    with pytest.raises(AttributeError):
        p.bits = 2
