"""Unit tests for motif counting."""

import numpy as np
import pytest

from repro import KaleidoEngine, MotifCounting
from repro.apps.motif import MOTIF_COUNTS, extension_codes
from repro.apps.reference import count_motifs_naive
from repro.core.cse import CSE
from repro.core.explore import expand_vertex_level
from repro.core.kernels import _canonical_slabs, vertex_kernel_context
from repro.core.pattern import MAX_EIGENHASH_VERTICES
from repro.graph import from_edge_list
from tests import oracles
from tests.conftest import random_labeled_graph


def test_paper_example_3motifs(paper_graph):
    result = KaleidoEngine(paper_graph).run(MotifCounting(3))
    # Section 5.1: 5 3-chains and 3 triangles.
    assert sorted(result.value.values()) == [3, 5]
    assert result.value.total == 8


def test_motif_census_matches_naive():
    for seed in range(4):
        g = random_labeled_graph(13, 26, 3, seed=seed)
        for k in (3, 4):
            got = KaleidoEngine(g).run(MotifCounting(k)).value
            expected = count_motifs_naive(g, k)
            assert sorted(got.values()) == sorted(expected.values()), (seed, k)


def test_labels_ignored():
    g1 = from_edge_list([(0, 1), (1, 2), (0, 2)], labels=[0, 1, 2])
    g2 = from_edge_list([(0, 1), (1, 2), (0, 2)], labels=[5, 5, 5])
    r1 = KaleidoEngine(g1).run(MotifCounting(3)).value
    r2 = KaleidoEngine(g2).run(MotifCounting(3)).value
    assert dict(r1) == dict(r2)


def test_motif_kind_counts_star():
    """A star K1,4 has exactly C(4,2)=6 3-chains and nothing else."""
    star = from_edge_list([(0, i) for i in range(1, 5)])
    result = KaleidoEngine(star).run(MotifCounting(3))
    assert list(result.value.values()) == [6]


def test_4motif_kinds_on_rich_graph():
    """A graph containing all six 4-motif shapes reports six hashes."""
    g = random_labeled_graph(14, 40, 1, seed=3)
    result = KaleidoEngine(g).run(MotifCounting(4))
    assert len(result.value) <= MOTIF_COUNTS[4]
    assert len(result.value) >= 5  # dense-ish random graph has most kinds


def test_representatives_attached(paper_graph):
    result = KaleidoEngine(paper_graph).run(MotifCounting(3))
    assert set(result.value.patterns) == set(result.value)
    for pattern in result.value.patterns.values():
        assert pattern.num_vertices == 3


def test_validates_k():
    with pytest.raises(ValueError):
        MotifCounting(2)


def test_rejects_sizes_eigenhash_cannot_fingerprint():
    """Above EigenHash's bound the constructor fails, before any level is
    explored."""
    MotifCounting(MAX_EIGENHASH_VERTICES)
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        MotifCounting(MAX_EIGENHASH_VERTICES + 1)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_extension_codes_match_per_pair_oracle(k):
    """Codes built from the kernel's adjacency masks equal the per-pair
    ``has_edges`` probes over the scalar expansion, row for row."""
    graph = random_labeled_graph(22, 48, 1, seed=k)
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(k - 2):
        expand_vertex_level(graph, cse)
    block = cse.decode_block(0, cse.size()).astype(np.int64)
    kctx = vertex_kernel_context(graph)
    emitted = 0
    for start, end, bounds in _canonical_slabs(kctx, block, block):
        rows, codes = extension_codes(kctx, block[start:end], k, bounds)
        ref_rows, ref_codes = oracles.extension_codes(kctx, block[start:end], k)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(codes, ref_codes)
        emitted += rows.shape[0]
    assert emitted > 0


def test_levels_stop_at_k_minus_1(paper_graph):
    """k-Motif stores only k-1 CSE levels (Table 4's note)."""
    result = KaleidoEngine(paper_graph).run(MotifCounting(4))
    assert len(result.level_sizes) == 3


def test_name():
    assert MotifCounting(4).name == "4-Motif"
