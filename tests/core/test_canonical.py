"""Unit tests for Definition-2 canonicality (vertex- and edge-induced)."""

import pytest

from repro.baselines.canonical import (
    canonical_edge_order,
    canonical_order,
    edge_is_canonical,
    is_canonical,
)
from repro.graph.edge_index import EdgeIndex

from tests.oracles import edge_extends_canonically, extends_canonically


# ----------------------------------------------------------------------
# Vertex-induced
# ----------------------------------------------------------------------
def test_paper_example_extension(paper_graph):
    # Section 3.1: s8 = <2,3>; candidates {1,4,5}; <2,3,1> rejected by
    # property (i); <2,3,4> and <2,3,5> accepted.
    assert not extends_canonically(paper_graph.adjacency_sets(), (2, 3), 1)
    assert extends_canonically(paper_graph.adjacency_sets(), (2, 3), 4)
    assert extends_canonically(paper_graph.adjacency_sets(), (2, 3), 5)


def test_duplicate_rejected(paper_graph):
    assert not extends_canonically(paper_graph.adjacency_sets(), (2, 3), 3)
    assert not extends_canonically(paper_graph.adjacency_sets(), (2, 3), 2)


def test_non_neighbor_rejected(paper_graph):
    # Vertex 0 is isolated.
    assert not extends_canonically(paper_graph.adjacency_sets(), (1, 2), 0)


def test_property_iii(paper_graph):
    # <1,5,4>: 4 adjacent to 5 (index 1), nothing after index 1, fine.
    assert extends_canonically(paper_graph.adjacency_sets(), (1, 5), 4)
    # <1,5,4> + 2: 2 is adjacent to 1 (index 0), but 5 and 4 come after
    # index 0 and are both > 2 → property (iii) violated.
    assert not extends_canonically(paper_graph.adjacency_sets(), (1, 5, 4), 2)
    # <1,2,5> + 3: 3 adjacent to 2 (index 1); 5 > 3 after it → reject.
    assert not extends_canonically(paper_graph.adjacency_sets(), (1, 2, 5), 3)


def test_canonical_order_reconstruction(paper_graph):
    assert canonical_order(paper_graph, [3, 5, 2]) == (2, 3, 5)
    assert canonical_order(paper_graph, [5, 4, 1]) == (1, 5, 4)


def test_canonical_order_disconnected(paper_graph):
    with pytest.raises(ValueError):
        canonical_order(paper_graph, [1, 4])  # 1-4 not adjacent, set size 2


def test_is_canonical_full_check(paper_graph):
    assert is_canonical(paper_graph, (2, 3, 5))
    assert not is_canonical(paper_graph, (3, 2, 5))
    assert not is_canonical(paper_graph, (2, 5, 3))
    assert not is_canonical(paper_graph, (1, 4))  # disconnected


def test_figure3_level_sets(paper_graph):
    """The canonical 3-embeddings are exactly s13..s20 of Figure 3."""
    expected = {
        (1, 2, 3), (1, 2, 5), (1, 5, 3), (1, 5, 4),
        (2, 3, 4), (2, 3, 5), (2, 5, 4), (3, 4, 5),
    }
    found = set()
    from itertools import permutations, combinations

    for verts in combinations(range(6), 3):
        for order in permutations(verts):
            if is_canonical(paper_graph, order):
                found.add(order)
    assert found == expected


def test_incremental_matches_full_recheck(paper_graph, small_random):
    """Appending via the O(k) rule ⟺ the result passes the full re-check."""
    for graph in (paper_graph, small_random):
        frontier = [(v,) for v in range(graph.num_vertices)]
        for _ in range(3):
            nxt = []
            for emb in frontier:
                for cand in range(graph.num_vertices):
                    fast = extends_canonically(graph.adjacency_sets(), emb, cand)
                    slow = is_canonical(graph, emb + (cand,))
                    assert fast == slow, (emb, cand)
                    if fast:
                        nxt.append(emb + (cand,))
            frontier = nxt[:50]


# ----------------------------------------------------------------------
# Edge-induced
# ----------------------------------------------------------------------
def test_edge_canonical_order(paper_graph):
    index = EdgeIndex(paper_graph)
    # Take edge ids of (2,3) and (3,5): canonical order starts at min id.
    e23 = index.edge_id(2, 3)
    e35 = index.edge_id(3, 5)
    ids = (e35, e23)
    edges = tuple(index.endpoints(e) for e in ids)
    assert canonical_edge_order(edges, ids) == tuple(sorted(ids))


def test_edge_is_canonical(paper_graph):
    index = EdgeIndex(paper_graph)
    e12 = index.edge_id(1, 2)
    e25 = index.edge_id(2, 5)
    ids = (e12, e25)
    edges = tuple(index.endpoints(e) for e in ids)
    assert edge_is_canonical(edges, ids)
    assert not edge_is_canonical(edges[::-1], ids[::-1])


def test_edge_extension_rules(paper_graph):
    index = EdgeIndex(paper_graph)
    e12 = index.edge_id(1, 2)
    e25 = index.edge_id(2, 5)
    e34 = index.edge_id(3, 4)
    base_ids = (e12,)
    base_edges = (index.endpoints(e12),)
    # Duplicate rejected.
    assert not edge_extends_canonically(base_edges, base_ids, (1, 2), e12)
    # Smaller id than the first edge rejected.
    bigger = (e25,)
    bigger_edges = (index.endpoints(e25),)
    assert not edge_extends_canonically(bigger_edges, bigger, (1, 2), e12)
    # Disconnected edge rejected.
    assert not edge_extends_canonically(base_edges, base_ids, (3, 4), e34)
    # Adjacent, larger id accepted.
    assert edge_extends_canonically(base_edges, base_ids, (2, 5), e25)


def test_edge_incremental_matches_full(paper_graph, small_random):
    for graph in (paper_graph, small_random):
        index = EdgeIndex(graph)
        frontier = [((eid,), (index.endpoints(eid),)) for eid in range(index.num_edges)]
        for _ in range(2):
            nxt = []
            for ids, edges in frontier:
                for cand in range(index.num_edges):
                    cand_edge = index.endpoints(cand)
                    fast = edge_extends_canonically(edges, ids, cand_edge, cand)
                    slow = edge_is_canonical(edges + (cand_edge,), ids + (cand,))
                    assert fast == slow, (ids, cand)
                    if fast:
                        nxt.append((ids + (cand,), edges + (cand_edge,)))
            frontier = nxt[:60]


def test_edge_uniqueness_and_completeness(paper_graph):
    """Canonical edge exploration enumerates every connected 3-edge set
    exactly once."""
    from repro.apps.reference import connected_edge_sets

    index = EdgeIndex(paper_graph)
    frontier = [((eid,), (index.endpoints(eid),)) for eid in range(index.num_edges)]
    for _ in range(2):
        nxt = []
        for ids, edges in frontier:
            for cand in range(index.num_edges):
                cand_edge = index.endpoints(cand)
                if edge_extends_canonically(edges, ids, cand_edge, cand):
                    nxt.append((ids + (cand,), edges + (cand_edge,)))
        frontier = nxt
    found = sorted(tuple(sorted(ids)) for ids, _ in frontier)
    expected = sorted(connected_edge_sets(paper_graph, 3))
    assert found == expected
