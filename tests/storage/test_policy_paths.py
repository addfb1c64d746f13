"""StoragePolicy pressure paths, part ordering, and abort cleanup."""

import os
import threading

import numpy as np
import pytest

from repro import KaleidoEngine, MotifCounting
from repro.graph import datasets
from repro.storage import PartStore, SpillingSink


def _spill_files(directory):
    return [
        name
        for name in os.listdir(directory)
        if name.endswith(".npy")
    ]


def test_top_level_demotion_end_to_end(paper_graph, tmp_path):
    """A budget so tight that spill_level demotes the current top level.

    4-motif runs two expansion iterations.  The budget is picked so the
    first level still fits in memory (graph 136 B + roots 24 B +
    predicted 56 B = 216 B) but the accounted total after it (244 B) is
    already over budget: the second spill decision then demotes the
    in-memory top level to disk before exploring the new level.
    """
    baseline = KaleidoEngine(paper_graph, storage_mode="memory").run(MotifCounting(4))
    with KaleidoEngine(
        paper_graph,
        memory_limit_bytes=230,
        spill_dir=str(tmp_path),
    ) as engine:
        result = engine.run(MotifCounting(4))
    assert result.extra["spilled_levels"] >= 1
    assert result.extra["demoted_levels"] >= 1
    assert result.io_bytes_written > 0
    # Demotion must not change the mining result.
    assert dict(result.value) == dict(baseline.value)
    assert result.level_sizes == baseline.level_sizes


def test_spill_last_end_to_end(paper_graph, tmp_path):
    """storage_mode="spill-last" spills every explored level (Table 4)."""
    baseline = KaleidoEngine(paper_graph, storage_mode="memory").run(MotifCounting(4))
    with KaleidoEngine(
        paper_graph,
        storage_mode="spill-last",
        spill_dir=str(tmp_path),
    ) as engine:
        result = engine.run(MotifCounting(4))
    # 4-motif runs two expansion iterations; both levels must have spilled.
    assert result.extra["spilled_levels"] == 2
    assert result.io_bytes_written > 0
    assert result.io_bytes_read > 0
    assert dict(result.value) == dict(baseline.value)
    assert result.level_sizes == baseline.level_sizes


def _spill_last(graph, spill_dir, app, **kwargs):
    with KaleidoEngine(
        graph, storage_mode="spill-last", spill_dir=str(spill_dir), **kwargs
    ) as engine:
        return engine.run(app), engine.metrics.snapshot()


def test_parts_written_counts_spilled_part_files(tmp_path):
    """Every spilled part is one save, counted once in queue.parts_written
    (the perf ledger's storage.parts_written reads this counter)."""
    graph = datasets.load("citeseer", "tiny")
    result, snapshot = _spill_last(graph, tmp_path, MotifCounting(4))
    assert result.extra["spilled_levels"] == 2
    files = _spill_files(str(tmp_path))
    assert len(files) > 2
    assert snapshot["queue.parts_written"]["value"] == len(files)


def test_threads_spill_last_matches_serial(tmp_path):
    graph = datasets.load("citeseer", "tiny")
    serial, _ = _spill_last(graph, tmp_path / "serial", MotifCounting(4), workers=2)
    threads, _ = _spill_last(
        graph, tmp_path / "threads", MotifCounting(4), executor="threads", workers=2
    )
    assert serial.pattern_map == threads.pattern_map
    assert serial.level_sizes == threads.level_sizes
    assert serial.io_bytes_written == threads.io_bytes_written
    assert threads.extra["spilled_levels"] == 2


def test_serial_spill_last_starts_no_thread(tmp_path, monkeypatch):
    """Spilled parts are saved inline: a serial run writes every part on
    the calling thread and never adds one."""
    graph = datasets.load("citeseer", "tiny")
    before = threading.active_count()
    seen = []
    save = PartStore.save

    def recording_save(self, array, tag="part"):
        seen.append((threading.current_thread(), threading.active_count()))
        return save(self, array, tag=tag)

    monkeypatch.setattr(PartStore, "save", recording_save)
    result, _ = _spill_last(graph, tmp_path, MotifCounting(4))
    assert result.io_bytes_written > 0
    assert seen
    assert {thread for thread, _ in seen} == {threading.current_thread()}
    assert {count for _, count in seen} == {before}
    assert threading.active_count() == before


def test_writing_queue_orders_by_index(tmp_path):
    """Out-of-order writes reassemble by their part index."""
    store = PartStore(str(tmp_path))
    sink = SpillingSink(store)
    for index in (2, 0, 1):
        sink.write_part(np.full(3, index, dtype=np.int32), index=index)
    level = sink.finish(np.array([0, 3, 6, 9], dtype=np.int64))
    assert level.vert_array().tolist() == [0] * 3 + [1] * 3 + [2] * 3


def test_writing_queue_discard_deletes_parts(tmp_path):
    store = PartStore(str(tmp_path))
    sink = SpillingSink(store)
    sink.write_part(np.arange(4, dtype=np.int32), index=0)
    sink.write_part(np.arange(4, dtype=np.int32), index=1)
    assert len(_spill_files(str(tmp_path))) == 2
    sink.abort()
    assert _spill_files(str(tmp_path)) == []


def test_sink_abort_cleans_partial_level(tmp_path):
    store = PartStore(str(tmp_path))
    sink = SpillingSink(store)
    sink.write_part(np.arange(5, dtype=np.int32), index=0)
    assert len(_spill_files(str(tmp_path))) == 1
    sink.abort()
    assert _spill_files(str(tmp_path)) == []


def _boom_filter(ctx, block, rows, candidates):
    raise RuntimeError("injected mid-level failure")


def test_engine_failure_mid_level_cleans_spill_dir(paper_graph, tmp_path):
    """An executor raising mid-level must not leak spill temp files."""

    class Boom(MotifCounting):
        def block_filter(self, ctx):
            return _boom_filter

    with pytest.raises(RuntimeError, match="injected"):
        with KaleidoEngine(
            paper_graph,
            storage_mode="spill-last",
            spill_dir=str(tmp_path),
        ) as engine:
            engine.run(Boom(3))
    assert _spill_files(str(tmp_path)) == []


def test_part_store_context_manager_removes_tmp_dir():
    with PartStore() as store:
        directory = store.directory
        store.save(np.arange(3, dtype=np.int32))
        assert os.path.isdir(directory)
    assert not os.path.exists(directory)
