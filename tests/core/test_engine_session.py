"""KaleidoEngine as a reusable session: repeat runs, shared resources,
and run state that does not leak from one run into the next."""

import pytest

from repro.apps import FrequentSubgraphMining, MotifCounting, TriangleCounting
from repro.core.engine import KaleidoEngine
from repro.core.eigenhash import PatternHasher
from repro.core.executor import ThreadedExecutor
from repro.errors import PlanError
from repro.graph import datasets
from repro.obs import MetricsRegistry


def test_run_many_times_same_results(paper_graph):
    engine = KaleidoEngine(paper_graph)
    first = engine.run(TriangleCounting())
    second = engine.run(TriangleCounting())
    third = engine.run(MotifCounting(3))
    assert dict(first.pattern_map) == dict(second.pattern_map)
    assert engine.runs_completed == 3
    assert third.value  # a different app on the same session works


def test_edge_index_built_once_per_session(paper_graph):
    engine = KaleidoEngine(paper_graph)
    engine.run(FrequentSubgraphMining(num_edges=2, support=1))
    index = engine._edge_index
    assert index is not None  # edge-induced run built it
    engine.run(FrequentSubgraphMining(num_edges=2, support=1))
    assert engine._edge_index is index  # and the session reused it


def test_per_run_max_embeddings_override(paper_graph):
    engine = KaleidoEngine(paper_graph)
    with pytest.raises(PlanError, match="max_embeddings"):
        engine.run(MotifCounting(3), max_embeddings=1)
    # the guard is per-run: the next run (default None) has none
    result = engine.run(MotifCounting(3))
    assert result.value


def test_caller_owned_executor_survives_engine_close(paper_graph):
    executor = ThreadedExecutor()
    try:
        engine = KaleidoEngine(paper_graph, workers=2, executor=executor)
        engine.run(TriangleCounting())
        engine.close()
        # the engine did not reap the caller's pool
        report = executor.run([lambda: 42], workers=2)
        assert list(report.results) == [42]
    finally:
        executor.close()


def test_shared_hasher_across_engines(paper_graph):
    hasher = PatternHasher()
    a = KaleidoEngine(paper_graph, hasher=hasher)
    b = KaleidoEngine(paper_graph, hasher=hasher)
    a.run(MotifCounting(3))
    warm_hits = hasher.hits
    b.run(MotifCounting(3))
    assert hasher.hits > warm_hits  # second engine reused warm entries


# ----------------------------------------------------------------------
# Run state: each run meters, spills and reports only itself
# ----------------------------------------------------------------------
#: A budget a fresh 3-motif run on citeseer/tiny fits in, and that an
#: earlier FSM run's pattern maps would overflow if they were still metered.
TIGHT_BUDGET = 20_412


def test_reused_engine_equals_fresh_engine():
    graph = datasets.load("citeseer", "tiny")
    reused = KaleidoEngine(graph, memory_limit_bytes=TIGHT_BUDGET)
    reused.run(FrequentSubgraphMining(num_edges=3, support=2))
    after_fsm = reused.run(MotifCounting(3))
    # The fresh engine's hasher is warmed by the same FSM run, so both
    # motif runs meter the same hasher cache.
    hasher = PatternHasher()
    KaleidoEngine(graph, memory_limit_bytes=TIGHT_BUDGET, hasher=hasher).run(
        FrequentSubgraphMining(num_edges=3, support=2)
    )
    fresh = KaleidoEngine(graph, memory_limit_bytes=TIGHT_BUDGET, hasher=hasher).run(
        MotifCounting(3)
    )
    assert after_fsm.pattern_map == fresh.pattern_map
    assert after_fsm.level_sizes == fresh.level_sizes
    for key in ("spilled_levels", "demoted_levels"):
        assert after_fsm.extra[key] == fresh.extra[key] == 0
    assert after_fsm.io_bytes_read == fresh.io_bytes_read
    assert after_fsm.io_bytes_written == fresh.io_bytes_written
    assert after_fsm.peak_memory_bytes == fresh.peak_memory_bytes
    assert after_fsm.memory_snapshot == fresh.memory_snapshot


def test_registry_counts_each_run_once(tmp_path):
    graph = datasets.load("citeseer", "tiny")
    registry = MetricsRegistry()
    engine = KaleidoEngine(
        graph, storage_mode="spill-last", spill_dir=str(tmp_path), metrics=registry
    )
    results = [engine.run(MotifCounting(3)) for _ in range(3)]
    assert [r.io_bytes_written for r in results] == [3_096] * 3
    assert [r.extra["spilled_levels"] for r in results] == [1] * 3
    snapshot = registry.snapshot()
    assert snapshot["io.bytes_written"]["value"] == sum(
        r.io_bytes_written for r in results
    )
    assert snapshot["storage.spilled_levels"]["value"] == 3
    assert snapshot["hasher.hits"]["value"] == engine.hasher.hits
    assert snapshot["hasher.misses"]["value"] == engine.hasher.misses


def test_runs_leave_no_spill_parts(tmp_path):
    graph = datasets.load("citeseer", "tiny")
    with KaleidoEngine(
        graph, storage_mode="spill-last", spill_dir=str(tmp_path)
    ) as engine:
        for _ in range(3):
            result = engine.run(MotifCounting(4))
            assert result.extra["spilled_levels"] == 2
            assert list(tmp_path.glob("*.npy")) == []
            assert engine.io_stats.deletes > 0
