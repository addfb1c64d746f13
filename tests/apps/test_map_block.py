"""Block mappers (``map_block``) against the brute-force references."""

import numpy as np
import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
    TriangleCounting,
)
from repro.apps.fsm_vertex import VertexInducedFSM
from repro.apps.reference import (
    count_cliques_naive,
    count_motifs_naive,
    count_triangles_naive,
)
from repro.core import kernels
from repro.core.api import EngineContext, MiningApplication
from repro.core.eigenhash import PatternHasher, eigen_hash
from repro.core.isomorphism import pattern_from_key
from repro.graph import from_edge_list
from repro.graph.edge_index import EdgeIndex
from tests.conftest import random_labeled_graph


def naive_motifs_by_hash(graph, k):
    """The reference motif census re-keyed by EigenHash, the engine's key."""
    return {
        eigen_hash(pattern_from_key(key)): count
        for key, count in count_motifs_naive(graph, k).items()
    }


def hub_graph():
    """A 20-leaf star with a few leaf-leaf chords: every row through the
    hub gathers more pairs than a tiny PAIR_BUDGET allows."""
    edges = [(0, i) for i in range(1, 21)] + [(1, 2), (2, 3), (5, 9), (9, 14)]
    return from_edge_list(edges)


@pytest.fixture
def tiny_budget(monkeypatch):
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 8)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_motif_counts_per_hash_match_naive(k):
    for seed in range(3):
        graph = random_labeled_graph(11, 22, 2, seed=seed)
        result = KaleidoEngine(graph).run(MotifCounting(k))
        assert dict(result.value) == naive_motifs_by_hash(graph, k), (seed, k)


@pytest.mark.parametrize("k", [3, 4])
def test_motif_hub_row_over_pair_budget(k, tiny_budget):
    graph = hub_graph()
    assert int(graph.degrees().max()) > kernels.PAIR_BUDGET
    result = KaleidoEngine(graph).run(MotifCounting(k))
    assert dict(result.value) == naive_motifs_by_hash(graph, k)


def test_motif_empty_level():
    """Disjoint edges have no 3-vertex connected sets: the mapper runs
    over an empty top level and finds nothing."""
    graph = from_edge_list([(0, 1), (2, 3), (4, 5)])
    result = KaleidoEngine(graph).run(MotifCounting(4))
    assert result.level_sizes[-1] == 0
    assert dict(result.value) == {}


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_motif_executors_agree(executor):
    graph = random_labeled_graph(13, 30, 1, seed=21)
    with KaleidoEngine(graph, workers=2, executor=executor) as engine:
        result = engine.run(MotifCounting(4))
    assert dict(result.value) == naive_motifs_by_hash(graph, 4)


class _CountingHasher(PatternHasher):
    def __init__(self):
        super().__init__()
        self.bitmaps = []

    def hash_pattern(self, pattern):
        self.bitmaps.append(pattern.bits)
        return super().hash_pattern(pattern)

    def hash_codes(self, codes, kmax):
        self.bitmaps.extend(codes[:, 1 + kmax].tolist())
        return super().hash_codes(codes, kmax)


@pytest.mark.parametrize("every", [False, True])
def test_motif_hash_calls(every):
    """One hash per distinct adjacency code of the (single) part, or one
    per 4-embedding under ``hash_every_embedding``."""
    graph = random_labeled_graph(13, 30, 1, seed=8)
    hasher = _CountingHasher()
    engine = KaleidoEngine(graph, hasher=hasher)
    total = engine.run(MotifCounting(4, hash_every_embedding=every)).value.total
    if every:
        assert len(hasher.bitmaps) == total
    else:
        assert len(hasher.bitmaps) == len(set(hasher.bitmaps)) < total


def test_triangle_map_block_matches_naive(tiny_budget):
    for graph in [hub_graph()] + [random_labeled_graph(12, 30, 1, seed=s) for s in range(3)]:
        assert KaleidoEngine(graph).run(TriangleCounting()).value == count_triangles_naive(graph)


@pytest.mark.parametrize("k", [3, 4])
def test_clique_map_block_matches_naive(k):
    for seed in range(3):
        graph = random_labeled_graph(12, 34, 1, seed=seed)
        result = KaleidoEngine(graph).run(CliqueDiscovery(k)).value
        assert result.count == count_cliques_naive(graph, k)


class _PerRow(MiningApplication):
    """An app that only defines ``map_embedding``: the default adaptor."""

    def iterations(self):
        return 1

    def map_embedding(self, ctx, embedding, pmap):
        pmap[embedding] = 1


@pytest.mark.parametrize(
    "app",
    [
        MotifCounting(3),
        TriangleCounting(),
        CliqueDiscovery(2),
        _PerRow(),
        FrequentSubgraphMining(2, 1),
        VertexInducedFSM(3, 1),
    ],
)
def test_map_block_on_zero_rows(app, paper_graph):
    """A stored part with no children is still mapped, in one call: every
    app leaves its map empty."""
    with KaleidoEngine(paper_graph) as engine:
        ctx = EngineContext(graph=paper_graph, engine=engine)
        if app.induced == "edge":
            ctx.edge_index = EdgeIndex(paper_graph)
        app.init(ctx)
        pmap: dict = {}
        app.map_block(ctx, np.zeros((0, 2), dtype=np.int32), pmap)
        assert pmap == {}


def test_default_adaptor_passes_int_tuples(paper_graph):
    ctx = EngineContext(graph=paper_graph, engine=None)
    pmap: dict = {}
    _PerRow().map_block(ctx, np.array([[1, 2], [3, 5]], dtype=np.int32), pmap)
    assert list(pmap) == [(1, 2), (3, 5)]
    assert all(type(v) is int for key in pmap for v in key)
