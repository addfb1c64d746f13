"""Failure injection: storage errors must surface, not corrupt results."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import PartStore, SpillingSink


class FailingStore(PartStore):
    """A PartStore whose saves start failing after `allow` writes."""

    def __init__(self, directory, allow: int):
        super().__init__(directory)
        self.allow = allow
        self.attempts = 0

    def save(self, array, tag="part"):
        self.attempts += 1
        if self.attempts > self.allow:
            raise StorageError("injected write failure")
        return super().save(array, tag=tag)


def test_queue_synchronous_error_immediate(tmp_path):
    """A failed save raises from write_part itself, not later."""
    store = FailingStore(str(tmp_path), allow=0)
    sink = SpillingSink(store)
    with pytest.raises(StorageError, match="injected"):
        sink.write_part(np.arange(3, dtype=np.int32), index=0)


def test_sink_propagates_failure(tmp_path, paper_graph):
    from repro.core import CSE
    from repro.core.explore import expand_vertex_level

    store = FailingStore(str(tmp_path), allow=0)
    cse = CSE(np.arange(6))
    sink = SpillingSink(store)
    with pytest.raises(StorageError):
        expand_vertex_level(paper_graph, cse, sink=sink)


def test_engine_error_leaves_no_partial_result(tmp_path, paper_graph, monkeypatch):
    """If spilling fails mid-run, the engine raises instead of returning a
    silently truncated result."""
    from repro import KaleidoEngine, MotifCounting
    from repro.storage import hybrid

    original = hybrid.SpillingSink

    def broken_sink(store, **kwargs):
        return SpillingSink(FailingStore(store.directory, allow=0), **kwargs)

    monkeypatch.setattr(hybrid.StoragePolicy, "sink_for_next_level",
                        lambda self, cse, predicted, bytes_per_entry=4, dtype=None:
                        broken_sink(self._ensure_store()))
    engine = KaleidoEngine(
        paper_graph, storage_mode="spill-last", spill_dir=str(tmp_path)
    )
    with pytest.raises(StorageError):
        # 4-Motif's 2-embeddings are its stored level that spills.
        engine.run(MotifCounting(4))
    assert original is hybrid.SpillingSink  # sanity: we only patched policy


def test_queue_error_then_recovers(tmp_path):
    """After a failed write is raised, the sink keeps accepting parts."""
    store = FailingStore(str(tmp_path), allow=1)
    sink = SpillingSink(store)
    sink.write_part(np.arange(2, dtype=np.int32), index=0)
    with pytest.raises(StorageError):
        sink.write_part(np.arange(2, dtype=np.int32), index=1)
    store.allow = 10**9
    sink.write_part(np.arange(2, dtype=np.int32), index=1)
    assert sink.finish(np.array([0, 2, 4], dtype=np.int64)).num_parts == 2
