"""Unit tests for level expansion (exploration)."""

import numpy as np
import pytest

from repro.apps.reference import connected_edge_sets, connected_vertex_sets
from repro.core import CSE
from repro.core.explore import (
    canonical_extensions,
    even_parts,
    expand_edge_level,
    expand_vertex_level,
)
from repro.graph.edge_index import EdgeIndex

from tests.conftest import all_adjacent


def test_expand_matches_figure3(paper_graph):
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    twos = [emb for _, emb in cse.iter_embeddings()]
    assert twos == [(1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
    expand_vertex_level(paper_graph, cse)
    threes = [emb for _, emb in cse.iter_embeddings()]
    assert set(threes) == {
        (1, 2, 3), (1, 2, 5), (1, 5, 3), (1, 5, 4),
        (2, 3, 4), (2, 3, 5), (2, 5, 4), (3, 4, 5),
    }


def test_uniqueness_and_completeness_vertex(small_random):
    """Every connected k-set appears exactly once among k-embeddings."""
    cse = CSE(np.arange(small_random.num_vertices))
    for k in (2, 3, 4):
        expand_vertex_level(small_random, cse)
        found = sorted(tuple(sorted(e)) for _, e in cse.iter_embeddings())
        expected = sorted(connected_vertex_sets(small_random, k))
        assert found == expected, f"k={k}"


def test_uniqueness_and_completeness_edge(small_random):
    index = EdgeIndex(small_random)
    cse = CSE(np.arange(index.num_edges))
    for k in (2, 3):
        expand_edge_level(small_random, index, cse)
        found = sorted(tuple(sorted(e)) for _, e in cse.iter_embeddings())
        expected = sorted(connected_edge_sets(small_random, k))
        assert found == expected, f"k={k}"


def test_user_filter_applied(paper_graph):
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    # Clique filter: candidate must be adjacent to every member.
    expand_vertex_level(paper_graph, cse, block_filter=all_adjacent)
    triangles = [emb for _, emb in cse.iter_embeddings()]
    assert set(triangles) == {(1, 2, 5), (2, 3, 5), (3, 4, 5)}


def test_stats_counts(paper_graph):
    cse = CSE(np.arange(6))
    stats = expand_vertex_level(paper_graph, cse)
    assert stats.emitted == 7
    assert stats.candidates_examined >= 7
    assert stats.part_emitted == [7]
    assert stats.total_seconds >= 0


def test_parts_accounting(paper_graph):
    cse = CSE(np.arange(6))
    parts = [(0, 2), (2, 4), (4, 6)]
    stats = expand_vertex_level(paper_graph, cse, parts=parts)
    assert stats.part_bounds == parts
    assert len(stats.part_seconds) == 3
    assert sum(stats.part_emitted) == 7
    # Result identical to the unpartitioned expansion.
    assert [e for _, e in cse.iter_embeddings()] == [
        (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)
    ]


def test_parts_must_be_contiguous(paper_graph):
    cse = CSE(np.arange(6))
    with pytest.raises(ValueError):
        expand_vertex_level(paper_graph, cse, parts=[(0, 3), (4, 6)])
    with pytest.raises(ValueError):
        expand_vertex_level(paper_graph, cse, parts=[(0, 3)])


def test_even_parts():
    assert even_parts(10, 3) == [(0, 3), (3, 6), (6, 10)]
    assert even_parts(2, 4) == [(0, 0), (0, 1), (1, 1), (1, 2)]
    with pytest.raises(ValueError):
        even_parts(5, 0)


def test_canonical_extensions(paper_graph):
    assert canonical_extensions(paper_graph, (2, 3)) == [4, 5]
    assert canonical_extensions(paper_graph, (1, 2)) == [3, 5]
    assert canonical_extensions(paper_graph, (0,)) == []


def test_empty_frontier(paper_graph):
    cse = CSE(np.array([], dtype=np.int32))
    stats = expand_vertex_level(paper_graph, cse)
    assert stats.emitted == 0
    assert cse.size() == 0


def test_expand_after_filter(paper_graph):
    """Expansion composes with filter_top_level (FSM's pruning path)."""
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    keep = np.array([emb[0] == 1 for _, emb in cse.iter_embeddings()])
    cse.filter_top_level(keep)
    expand_vertex_level(paper_graph, cse)
    threes = [emb for _, emb in cse.iter_embeddings()]
    assert set(threes) == {(1, 2, 3), (1, 2, 5), (1, 5, 3), (1, 5, 4)}


def test_inmemory_sink_mixed_index_keys():
    """Mixing indexed and unindexed writes never duplicates sort keys: an
    unindexed write after an explicit index sorts after it."""
    from repro.core.explore import InMemorySink

    sink = InMemorySink()
    sink.write_part(np.array([1, 1], dtype=np.int32), index=1)
    sink.write_part(np.array([0, 0], dtype=np.int32), index=0)
    sink.write_part(np.array([2, 2], dtype=np.int32))  # unindexed -> key 2
    level = sink.finish(np.array([0, 2, 4, 6], dtype=np.int64))
    assert level.vert_array().tolist() == [0, 0, 1, 1, 2, 2]
