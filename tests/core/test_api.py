"""Unit tests for the MiningApplication API surface."""

import pytest

from repro.core.api import EngineContext, MiningApplication, MiningResult
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

        def pattern_filter(self, phash, value):
            return phash == 1

    result = KaleidoEngine(paper_graph, workers=3).run(App())
    assert set(result.pattern_map) == {1}


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
    assert app.pattern_filter(123, 1)
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
        simulated_seconds=1.0,
        peak_memory_bytes=2_000_000,
        level_sizes=[3, 5],
    )
    text = result.summary()
    assert "X" in text and "1.500s" in text and "2.00 MB" in text


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
