"""Unit tests for the MiningApplication API surface."""

import tracemalloc

import numpy as np
import pytest

from repro.core.api import ADAPTOR_ROWS, EngineContext, MiningApplication, MiningResult
from repro.core.engine import KaleidoEngine


def test_default_init_vertex(paper_graph):
    class App(MiningApplication):
        def iterations(self):
            return 0

        def map_embedding(self, ctx, emb, pmap):
            pmap[0] = pmap.get(0, 0) + 1

    result = KaleidoEngine(paper_graph).run(App())
    assert result.pattern_map[0] == paper_graph.num_vertices


def test_default_init_edge(paper_graph):
    class App(MiningApplication):
        induced = "edge"

        def iterations(self):
            return 0

        def map_embedding(self, ctx, emb, pmap):
            pmap[0] = pmap.get(0, 0) + 1

    result = KaleidoEngine(paper_graph).run(App())
    assert result.pattern_map[0] == paper_graph.num_edges


def test_default_reduce_merges_and_filters(paper_graph):
    class App(MiningApplication):
        def iterations(self):
            return 1

        def map_embedding(self, ctx, emb, pmap):
            key = emb[0] % 2
            pmap[key] = pmap.get(key, 0) + 1

    result = KaleidoEngine(paper_graph, workers=3).run(App())
    # The paper graph's seven 2-embeddings start at 1, 1, 2, 2, 3, 3, 4.
    assert result.pattern_map == {0: 3, 1: 4}


def test_unimplemented_hooks_raise(paper_graph):
    app = MiningApplication()
    with pytest.raises(NotImplementedError):
        app.iterations()
    ctx = EngineContext(graph=paper_graph, engine=None)
    with pytest.raises(NotImplementedError):
        app.map_embedding(ctx, (0,), {})


def test_default_filters_accept():
    app = MiningApplication()
    assert app.block_filter(None) is None
    assert app.prune(None, None, {}) is None


def test_pmap_nbytes_default():
    app = MiningApplication()
    assert app.pmap_nbytes({}) == 0
    assert app.pmap_nbytes({1: 2, 3: 4}) == 320


def test_mining_result_summary():
    result = MiningResult(
        app_name="X",
        value=1,
        pattern_map={},
        wall_seconds=1.5,
        peak_memory_bytes=2_000_000,
        level_sizes=[3, 5],
    )
    text = result.summary()
    assert "X" in text and "1.500s" in text and "2.00 MB" in text
    assert "simulated" not in text


def test_finalize_default_returns_pmap(paper_graph):
    class App(MiningApplication):
        def iterations(self):
            return 0

        def map_embedding(self, ctx, emb, pmap):
            pmap["n"] = pmap.get("n", 0) + 1

    result = KaleidoEngine(paper_graph).run(App())
    assert result.value == result.pattern_map


def test_context_hash_pattern(paper_graph):
    from repro.core import Pattern, eigen_hash

    engine = KaleidoEngine(paper_graph)
    ctx = EngineContext(graph=paper_graph, engine=engine)
    p = Pattern((0, 0), 1)
    assert ctx.hash_pattern(p) == eigen_hash(p)


class _RowRecorder(MiningApplication):
    def __init__(self):
        self.calls = []

    def map_embedding(self, ctx, emb, pmap):
        self.calls.append(emb)


def test_default_map_block_feeds_rows_in_order(paper_graph):
    """The per-row adaptor walks the part in slabs: every row arrives as a
    tuple of ints, in block order across slab boundaries."""
    block = np.random.default_rng(0).integers(0, 10**6, size=(2 * ADAPTOR_ROWS + 3, 3))
    app = _RowRecorder()
    app.map_block(EngineContext(graph=paper_graph, engine=None), block, {})
    assert app.calls == [tuple(row) for row in block.tolist()]
    assert all(type(v) is int for v in app.calls[-1])


def test_default_map_block_memory_is_bounded_by_the_slab(paper_graph):
    """A 200K-row part is never held as Python ints at once: the whole
    part would be ~16 MB of them, one slab of 2-id rows ~0.35 MB."""

    class Count(MiningApplication):
        def map_embedding(self, ctx, emb, pmap):
            pmap[0] += 1

    block = np.random.default_rng(1).integers(1000, 10**6, size=(200_000, 2))
    pmap = {0: 0}
    ctx = EngineContext(graph=paper_graph, engine=None)
    tracemalloc.start()
    try:
        Count().map_block(ctx, block, pmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pmap[0] == 200_000
    assert peak < 4_000_000, peak
