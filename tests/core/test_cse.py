"""Unit tests for the CSE data structure (Figure 4)."""

import numpy as np
import pytest

from repro.core import CSE, InMemoryLevel
from repro.core import cse as cse_module
from repro.core.explore import expand_vertex_level


@pytest.fixture
def paper_cse(paper_graph):
    """CSE with the Figure-3/Figure-4 levels (roots 0..5)."""
    cse = CSE(np.arange(paper_graph.num_vertices))
    expand_vertex_level(paper_graph, cse)
    expand_vertex_level(paper_graph, cse)
    return cse


def test_level_sizes(paper_cse):
    # 6 roots (incl. isolated 0), 7 2-embeddings, 8 3-embeddings.
    assert [paper_cse.size(i) for i in range(paper_cse.depth)] == [6, 7, 8]


def test_figure4_decode_example(paper_cse):
    """Section 3.1.1's example: offset 5 of level 3 decodes to <2,3,5>."""
    # With the isolated vertex 0 present the figure's offset 5 still holds
    # because vertex 0 contributes no children anywhere.
    assert paper_cse.embedding_at(2, 5) == (2, 3, 5)


def test_decode_all_against_walk(paper_cse):
    for pos, emb in paper_cse.iter_embeddings():
        assert paper_cse.embedding_at(2, pos) == emb


def test_decode_rows_gathers_block_rows(paper_cse):
    """Arbitrary order and repeats, top level and a lower level."""
    picks = np.array([7, 0, 3, 3, 5, 0])
    full = paper_cse.decode_block(0, paper_cse.size())
    np.testing.assert_array_equal(paper_cse.decode_rows(picks), full[picks])
    np.testing.assert_array_equal(
        paper_cse.decode_rows([6, 1], level_idx=1), paper_cse.decode_block(0, 7, 1)[[6, 1]]
    )
    assert paper_cse.decode_rows([]).shape == (0, 3)
    for bad in ([8], [-1]):
        with pytest.raises(IndexError):
            paper_cse.decode_rows(bad)


def test_walk_chunks_keep_storage_order(paper_cse, monkeypatch):
    """iter_embeddings over several WALK_ROWS chunks (and a ragged last
    one) yields every position once, in order, as Python-int tuples."""
    whole = list(paper_cse.iter_embeddings())
    monkeypatch.setattr(cse_module, "WALK_ROWS", 3)
    chunked = list(paper_cse.iter_embeddings())
    assert chunked == whole
    assert [pos for pos, _ in chunked] == list(range(8))
    rows = paper_cse.decode_rows(np.arange(8)).tolist()
    assert [list(emb) for _, emb in chunked] == rows
    assert all(type(v) is int for _, emb in chunked for v in emb)


def test_walk_lower_level(paper_cse):
    twos = [emb for _, emb in paper_cse.iter_embeddings(1)]
    assert twos == [(1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]


def test_embedding_at_bounds(paper_cse):
    with pytest.raises(IndexError):
        paper_cse.embedding_at(5, 0)


def test_append_level_validation():
    cse = CSE([0, 1])
    with pytest.raises(ValueError):
        cse.append_level(InMemoryLevel(np.array([1]), np.array([0, 1])))  # off too short
    with pytest.raises(ValueError):
        cse.append_level(InMemoryLevel(np.array([1]), None))


def test_level_off_invariants():
    with pytest.raises(ValueError):
        InMemoryLevel(np.array([1, 2]), np.array([0, 1]))  # does not span
    with pytest.raises(ValueError):
        InMemoryLevel(np.array([1, 2]), np.array([0, 2, 1, 2]))  # decreasing


def test_pop_level(paper_cse):
    level = paper_cse.pop_level()
    assert level.num_embeddings == 8
    assert paper_cse.depth == 2
    with pytest.raises(ValueError):
        CSE([0]).pop_level()


def test_filter_top_level(paper_cse):
    keep = np.zeros(8, dtype=bool)
    keep[[0, 3, 7]] = True
    before = [emb for _, emb in paper_cse.iter_embeddings()]
    paper_cse.filter_top_level(keep)
    after = [emb for _, emb in paper_cse.iter_embeddings()]
    assert after == [before[0], before[3], before[7]]
    assert paper_cse.size() == 3
    # offsets still consistent for random access
    for pos, emb in enumerate(after):
        assert paper_cse.embedding_at(2, pos) == emb


def test_filter_top_level_all_false(paper_cse):
    paper_cse.filter_top_level(np.zeros(8, dtype=bool))
    assert paper_cse.size() == 0
    assert list(paper_cse.iter_embeddings()) == []


def test_filter_top_level_wrong_length(paper_cse):
    with pytest.raises(ValueError):
        paper_cse.filter_top_level(np.ones(3, dtype=bool))


def test_nbytes_accounting(paper_cse):
    # Level arrays: vert int32 per entry + off int64 (parent count + 1).
    expected = (6 + 7 + 8) * 4 + (6 + 1) * 8 + (7 + 1) * 8
    assert paper_cse.nbytes_in_memory == expected
    assert paper_cse.nbytes_total == expected


def test_space_complexity_within_bound(paper_graph):
    """k-CSE stores exactly one int per embedding per level — far below the
    tuple-per-embedding alternative."""
    cse = CSE(np.arange(paper_graph.num_vertices))
    expand_vertex_level(paper_graph, cse)
    expand_vertex_level(paper_graph, cse)
    explicit = sum(
        level_idx * cse.size(level_idx) * 8 for level_idx in range(cse.depth)
    )
    assert cse.nbytes_in_memory < max(explicit, 1) * 2


def test_roots_variants():
    cse = CSE([5, 2, 9])
    assert cse.size() == 3
    assert cse.embedding_at(0, 1) == (2,)
