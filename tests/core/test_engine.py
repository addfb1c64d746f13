"""Unit tests for the KaleidoEngine orchestration."""

import pytest

from repro import (
    CliqueDiscovery,
    KaleidoEngine,
    MiningApplication,
    MotifCounting,
    TriangleCounting,
)
from repro.baselines import BlissLikeHasher


def test_result_fields(paper_graph):
    result = KaleidoEngine(paper_graph).run(TriangleCounting())
    assert result.value == 3
    assert result.wall_seconds > 0
    assert result.simulated_seconds > 0
    assert result.peak_memory_bytes > 0
    assert result.level_sizes == [6, 7]
    assert "explore" in result.phase_spans
    assert result.io_bytes_written == 0


def test_workers_change_schedule_not_result(paper_graph):
    r1 = KaleidoEngine(paper_graph, workers=1).run(MotifCounting(3))
    r4 = KaleidoEngine(paper_graph, workers=4).run(MotifCounting(3))
    assert dict(r1.value) == dict(r4.value)
    assert all(s.num_workers == 4 for s in r4.schedules)


def test_invalid_configuration(paper_graph):
    with pytest.raises(ValueError):
        KaleidoEngine(paper_graph, workers=0)
    with pytest.raises(ValueError):
        KaleidoEngine(paper_graph, storage_mode="bogus")


def test_prediction_toggle_same_result(paper_graph):
    on = KaleidoEngine(paper_graph, use_prediction=True).run(MotifCounting(3))
    off = KaleidoEngine(paper_graph, use_prediction=False).run(MotifCounting(3))
    assert dict(on.value) == dict(off.value)


def test_bliss_hasher_same_counts(paper_graph):
    eig = KaleidoEngine(paper_graph).run(MotifCounting(3))
    bliss = KaleidoEngine(paper_graph, hasher=BlissLikeHasher()).run(MotifCounting(3))
    assert sorted(eig.value.values()) == sorted(bliss.value.values())


def test_memory_snapshot_structure(paper_graph):
    result = KaleidoEngine(paper_graph).run(MotifCounting(3))
    assert "graph" in result.memory_snapshot
    assert "cse" in result.memory_snapshot
    assert result.peak_memory_bytes >= result.memory_snapshot["graph"]


def test_spill_last_mode(paper_graph, tmp_path):
    with KaleidoEngine(
        paper_graph,
        storage_mode="spill-last",
        spill_dir=str(tmp_path),
    ) as engine:
        result = engine.run(CliqueDiscovery(3))
        assert result.value.count == 3
        assert result.io_bytes_written > 0
        assert result.extra["spilled_levels"] >= 1


def test_unknown_induced_mode(paper_graph):
    class Bad(MiningApplication):
        induced = "hyper"

        def iterations(self):
            return 0

    with pytest.raises(ValueError):
        KaleidoEngine(paper_graph).run(Bad())


def test_utilization_bounded(paper_graph):
    result = KaleidoEngine(paper_graph, workers=2).run(MotifCounting(3))
    assert 0 < result.utilization <= 1.0


def star_filter(ctx, block, rows, candidates):
    """Keep candidates adjacent to the embedding's first vertex."""
    return ctx.has_edges(block[rows, 0], candidates)


def test_custom_app_hooks(paper_graph):
    """A user app exercising filter + custom reduce end to end."""

    class StarCount(MiningApplication):
        induced = "vertex"

        def iterations(self):
            return 2

        def block_filter(self, ctx):
            # Grow stars around the first vertex only.
            return star_filter

        def map_embedding(self, ctx, emb, pmap):
            pmap["stars"] = pmap.get("stars", 0) + 1

        def finalize(self, ctx, cse, pmap):
            return pmap.get("stars", 0)

    result = KaleidoEngine(paper_graph).run(StarCount())
    assert result.value > 0


def test_max_embeddings_guard(paper_graph):
    from repro.errors import PlanError

    with pytest.raises(PlanError, match="max_embeddings"):
        KaleidoEngine(paper_graph, max_embeddings=2).run(MotifCounting(3))
    # A generous guard never triggers.
    result = KaleidoEngine(paper_graph, max_embeddings=10**9).run(MotifCounting(3))
    assert result.value.total == 8
