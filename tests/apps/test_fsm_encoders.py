"""The FSM block encoders against the per-embedding patterns they batch.

Each ``edge_codes`` row must be
``Pattern.from_edge_embedding(...).to_code(kmax)`` and its ``verts`` row
the embedding's vertices in first-appearance order over the edges'
``(u, v)`` endpoints, padded with zeros; each ``vertex_codes`` row must be
``Pattern.from_vertex_embedding(...).to_code(k)``.  Slabs mix vertex
counts (a 3-edge slab holds triangles and paths), so the padded label
columns and cells are checked, and a 1-row slab is checked row by row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.fsm import edge_codes
from repro.apps.fsm_vertex import edge_keys, vertex_codes
from repro.apps.reference import connected_edge_sets, connected_vertex_sets
from repro.core import Pattern
from repro.core.kernels import vertex_kernel_context
from repro.graph.edge_index import EdgeIndex
from tests.conftest import random_labeled_graph

#: Rows checked per slab: enough to mix every vertex count the graph
#: offers at each size, few enough for the per-row oracle.
ROWS = 400


def _graph(edge_labels: bool):
    graph = random_labeled_graph(8, 15, 3, seed=5)
    if edge_labels:
        rng = np.random.default_rng(5)
        graph = graph.with_edge_labels(rng.integers(1, 4, size=graph.num_edges))
    return graph


def _slab(sets: list[tuple[int, ...]], seed: int) -> np.ndarray:
    """Up to ``ROWS`` of ``sets``, each row's columns in a random order."""
    rng = np.random.default_rng(seed)
    picked = rng.permutation(len(sets))[:ROWS]
    return np.array([rng.permutation(sets[i]) for i in picked], dtype=np.int32)


def _assert_column_major(verts: np.ndarray, codes: np.ndarray) -> None:
    # Both are transposed views of (columns, rows) arrays, so a code
    # column is one contiguous array and distinct_rows reads it in place.
    assert codes.dtype == np.int64 and codes.T.flags.c_contiguous
    assert verts.dtype == np.int64


@pytest.mark.parametrize("edge_labels", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_edge_codes_match_from_edge_embedding(m, edge_labels):
    graph = _graph(edge_labels)
    index = EdgeIndex(graph)
    slab = _slab(connected_edge_sets(graph, m), seed=m)
    kmax = m + 1
    verts, codes = edge_codes(index, graph, slab)
    _assert_column_major(verts, codes)
    assert verts.shape == (slab.shape[0], kmax)
    expected_verts = []
    expected_codes = []
    for row in slab.tolist():
        edges = [index.endpoints(e) for e in row]
        order = list(dict.fromkeys(w for edge in edges for w in edge))
        expected_verts.append(order + [0] * (kmax - len(order)))
        expected_codes.append(Pattern.from_edge_embedding(graph, edges).to_code(kmax))
    assert verts.tolist() == expected_verts
    assert codes.tolist() == expected_codes
    if m >= 3:  # trees and cyclic patterns side by side: some rows padded
        assert len(set(codes[:, 0].tolist())) > 1
    for r in range(5):
        one_verts, one_codes = edge_codes(index, graph, slab[r : r + 1])
        assert one_verts.tolist() == [expected_verts[r]]
        assert one_codes.tolist() == [expected_codes[r]]


@pytest.mark.parametrize("edge_labels", [False, True])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_vertex_codes_match_from_vertex_embedding(k, edge_labels):
    graph = _graph(edge_labels)
    slab = _slab(connected_vertex_sets(graph, k), seed=k)
    kctx = vertex_kernel_context(graph)
    verts, codes = vertex_codes(kctx, graph, edge_keys(graph), slab)
    _assert_column_major(verts, codes)
    np.testing.assert_array_equal(verts, slab)
    expected = [Pattern.from_vertex_embedding(graph, row).to_code(k) for row in slab.tolist()]
    assert codes.tolist() == expected
    for r in range(5):
        assert vertex_codes(kctx, graph, edge_keys(graph), slab[r : r + 1])[1].tolist() == [
            expected[r]
        ]
