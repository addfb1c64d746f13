"""Unit tests for the CSR Graph."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph import Graph, from_edge_list


def test_basic_stats(paper_graph):
    assert paper_graph.num_vertices == 6  # includes isolated vertex 0
    assert paper_graph.num_edges == 7
    assert paper_graph.average_degree == pytest.approx(14 / 6)


def test_neighbors_sorted(paper_graph):
    for v in range(paper_graph.num_vertices):
        nbrs = paper_graph.neighbors(v)
        assert np.all(np.diff(nbrs) > 0)


def test_neighbors_content(paper_graph):
    assert paper_graph.neighbors(2).tolist() == [1, 3, 5]
    assert paper_graph.neighbors(5).tolist() == [1, 2, 3, 4]
    assert paper_graph.neighbors(0).tolist() == []


def test_degree(paper_graph):
    assert paper_graph.degree(5) == 4
    assert paper_graph.degree(0) == 0
    assert paper_graph.degrees().tolist() == [0, 2, 3, 3, 2, 4]


def test_has_edge(paper_graph):
    assert paper_graph.has_edge(1, 2)
    assert paper_graph.has_edge(2, 1)
    assert not paper_graph.has_edge(1, 3)
    assert not paper_graph.has_edge(0, 1)
    assert not paper_graph.has_edge(1, 1)


def test_edges_unique_and_ordered(paper_graph):
    edges = list(paper_graph.edges())
    assert len(edges) == 7
    assert all(u < v for u, v in edges)
    assert edges == sorted(edges)


def test_edge_arrays_lexicographic(paper_graph):
    eu, ev = paper_graph.edge_arrays()
    pairs = list(zip(eu.tolist(), ev.tolist()))
    assert pairs == sorted(pairs)
    assert (1, 2) in pairs and (4, 5) in pairs


def test_common_neighbors(paper_graph):
    assert paper_graph.common_neighbors(1, 2).tolist() == [5]
    assert paper_graph.common_neighbors(3, 5).tolist() == [2, 4]
    assert paper_graph.common_neighbors(0, 1).tolist() == []


def test_labels_default_zero(paper_graph):
    assert paper_graph.labels.tolist() == [0] * 6
    assert paper_graph.num_labels == 1


def test_relabel(paper_graph):
    relabeled = paper_graph.relabel([0, 1, 2, 0, 1, 2])
    assert relabeled.label(2) == 2
    assert relabeled.num_labels == 3
    # Topology untouched.
    assert relabeled.num_edges == paper_graph.num_edges


def test_relabel_wrong_length(paper_graph):
    with pytest.raises(GraphConstructionError):
        paper_graph.relabel([0, 1])


def test_induced_subgraph_edges(paper_graph):
    edges = paper_graph.induced_subgraph_edges([2, 3, 5])
    assert edges == [(2, 3), (2, 5), (3, 5)]


def test_nbytes_positive(paper_graph):
    assert paper_graph.nbytes > 0


def test_invalid_indptr_rejected():
    with pytest.raises(GraphConstructionError):
        Graph(
            np.array([0, 2, 1]),
            np.array([1, 0], dtype=np.int32),
            np.zeros(2, dtype=np.int32),
        )


def test_indptr_label_mismatch():
    with pytest.raises(GraphConstructionError):
        Graph(
            np.array([0, 0]),
            np.zeros(0, dtype=np.int32),
            np.zeros(3, dtype=np.int32),
        )


def test_empty_graph():
    g = from_edge_list([])
    assert g.num_vertices == 0
    assert g.num_edges == 0
    assert g.average_degree == 0.0
    assert g.num_labels == 0


def test_adjacency_keys_sorted_membership(paper_graph):
    g = paper_graph
    keys = g.adjacency_keys()
    assert keys.shape == g.indices.shape
    # Globally ascending, so searchsorted answers batched membership.
    assert np.all(keys[1:] > keys[:-1])
    n = g.num_vertices
    for u in range(n):
        for v in range(n):
            packed = u * n + v
            pos = np.searchsorted(keys, packed)
            found = pos < keys.shape[0] and keys[pos] == packed
            assert found == g.has_edge(u, v)
    assert g.adjacency_keys() is keys  # cached


def _hub_first():
    """A graph whose hub is vertex 0, so ascending degree is not id order."""
    return from_edge_list(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)], labels=[5, 1, 2, 3, 4]
    )


def test_degree_ordered_view_relabels_by_ascending_degree():
    g = _hub_first().with_edge_labels([10, 11, 12, 13, 14, 15, 16])
    view = g.degree_ordered()
    order = view.input_ids
    # Degrees 4, 2, 3, 3, 2: the ties keep id order, the hub goes last.
    assert order.tolist() == [1, 4, 2, 3, 0]
    assert order.dtype == view.id_dtype
    assert np.all(np.diff(g.degrees()[order]) >= 0)
    assert view.labels.tolist() == g.labels[order].tolist()
    # Every edge and its label travel with the vertices.
    for u, v in view.edges():
        a, b = int(order[u]), int(order[v])
        assert g.has_edge(a, b)
        assert view.edge_label(u, v) == g.edge_label(a, b)
    assert view.num_edges == g.num_edges
    assert view.nbytes == g.nbytes
    sources = np.repeat(np.arange(view.num_vertices), view.degrees())
    assert view.adjacency_keys().tolist() == (sources * view.num_vertices + view.indices).tolist()
    assert g.degree_ordered() is view  # cached
    assert view.degree_ordered() is view


def test_degree_ordered_view_of_an_ascending_graph_is_the_graph(paper_graph):
    g = from_edge_list([(0, 3), (1, 3), (2, 3)])
    assert g.degree_ordered() is g
    assert g.input_ids is None
    assert paper_graph.degree_ordered() is not paper_graph


def test_invalidate_caches_drops_the_degree_ordered_view():
    g = _hub_first()
    view = g.degree_ordered()
    g.invalidate_caches()
    assert g.degree_ordered() is not view
    assert g.degree_ordered().input_ids.tolist() == view.input_ids.tolist()
