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
    assert result.peak_memory_bytes > 0
    assert result.level_sizes == [6, 7]
    assert set(result.phase_spans) == {
        "plan_seconds",
        "execute_seconds",
        "aggregate_seconds",
    }
    assert 0 < result.phase_spans["execute_seconds"] <= result.wall_seconds
    assert result.io_bytes_written == 0


def test_workers_change_schedule_not_result(paper_graph):
    r1 = KaleidoEngine(paper_graph, workers=1).run(MotifCounting(3))
    r4 = KaleidoEngine(paper_graph, workers=4).run(MotifCounting(3))
    assert dict(r1.value) == dict(r4.value)
    # The default executor is serial: each level is cut into 4 parts that
    # run one after another on one worker.
    assert r4.schedules
    assert all(len(s.intervals) == 4 for s in r4.schedules)
    assert all(s.num_workers == 1 for s in r4.schedules)


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
        KaleidoEngine(paper_graph).run(MotifCounting(3), max_embeddings=2)
    # A generous guard never triggers.
    result = KaleidoEngine(paper_graph).run(MotifCounting(3), max_embeddings=10**9)
    assert result.value.total == 8


@pytest.mark.parametrize("cap", [0, -3, 2.5, True, "100"])
def test_malformed_max_embeddings_is_refused_before_level_zero(paper_graph, cap):
    class NoRoots(MotifCounting):
        def init(self, ctx):
            raise AssertionError("level 0 was built")

    with pytest.raises(ValueError, match="max_embeddings must be null or an integer"):
        KaleidoEngine(paper_graph).run(NoRoots(3), max_embeddings=cap)


@pytest.mark.parametrize("use_prediction", [True, False])
def test_max_embeddings_guard_does_not_need_prediction(use_prediction):
    """``use_prediction`` only picks balanced or even cuts: the guard
    reads the kernel's gather lengths either way.  Unguarded, this run
    builds levels [200, 900, 17865]."""
    from repro.errors import PlanError
    from repro.graph.generators import chung_lu

    engine = KaleidoEngine(chung_lu(200, 900, 3), use_prediction=use_prediction)
    with pytest.raises(PlanError, match="max_embeddings"):
        engine.run(MotifCounting(4), max_embeddings=1000)
    assert engine.run(MotifCounting(4)).level_sizes == [200, 900, 17865]
