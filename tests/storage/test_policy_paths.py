"""StoragePolicy pressure paths, queue idempotence, and abort cleanup."""

import os

import numpy as np
import pytest

from repro import KaleidoEngine, MotifCounting
from repro.errors import StorageError
from repro.storage import PartStore, SpillingSink, WritingQueue


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
        synchronous_io=True,
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
        synchronous_io=True,
    ) as engine:
        result = engine.run(MotifCounting(4))
    # 4-motif runs two expansion iterations; both levels must have spilled.
    assert result.extra["spilled_levels"] == 2
    assert result.io_bytes_written > 0
    assert result.io_bytes_read > 0
    assert dict(result.value) == dict(baseline.value)
    assert result.level_sizes == baseline.level_sizes


def test_writing_queue_close_idempotent(tmp_path):
    for synchronous in (True, False):
        store = PartStore(str(tmp_path))
        queue = WritingQueue(store, synchronous=synchronous)
        queue.submit(np.arange(3, dtype=np.int32))
        first = queue.close()
        second = queue.close()
        assert [h.path for h in first] == [h.path for h in second]


def test_writing_queue_rejects_submit_after_close(tmp_path):
    store = PartStore(str(tmp_path))
    queue = WritingQueue(store, synchronous=True)
    queue.close()
    with pytest.raises(StorageError, match="closed"):
        queue.submit(np.arange(2, dtype=np.int32))


def test_writing_queue_orders_by_index(tmp_path):
    """Out-of-order submissions reassemble by their part index."""
    store = PartStore(str(tmp_path))
    queue = WritingQueue(store, synchronous=True)
    for index in (2, 0, 1):
        queue.submit(np.full(3, index, dtype=np.int32), index=index)
    handles = queue.close()
    assert [store.load(h).tolist() for h in handles] == [
        [0] * 3, [1] * 3, [2] * 3
    ]


def test_writing_queue_discard_deletes_parts(tmp_path):
    store = PartStore(str(tmp_path))
    queue = WritingQueue(store, synchronous=True)
    queue.submit(np.arange(4, dtype=np.int32))
    queue.submit(np.arange(4, dtype=np.int32))
    assert len(_spill_files(str(tmp_path))) == 2
    queue.discard()
    assert _spill_files(str(tmp_path)) == []


def test_sink_abort_cleans_partial_level(tmp_path):
    store = PartStore(str(tmp_path))
    sink = SpillingSink(store, synchronous=True)
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
            synchronous_io=True,
        ) as engine:
            engine.run(Boom(3))
    assert _spill_files(str(tmp_path)) == []


def test_part_store_context_manager_removes_tmp_dir():
    with PartStore() as store:
        directory = store.directory
        store.save(np.arange(3, dtype=np.int32))
        assert os.path.isdir(directory)
    assert not os.path.exists(directory)
