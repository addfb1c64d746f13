"""Failure injection: storage errors must surface, not corrupt results."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import PartStore, SpillingSink, WritingQueue


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


def test_queue_surfaces_async_error(tmp_path):
    store = FailingStore(str(tmp_path), allow=1)
    queue = WritingQueue(store, synchronous=False)
    queue.submit(np.arange(3, dtype=np.int32))
    queue.submit(np.arange(3, dtype=np.int32))  # will fail in background
    with pytest.raises(StorageError, match="background writer failed"):
        queue.close()


def test_queue_synchronous_error_immediate(tmp_path):
    store = FailingStore(str(tmp_path), allow=0)
    queue = WritingQueue(store, synchronous=True)
    with pytest.raises(StorageError, match="injected"):
        queue.submit(np.arange(3, dtype=np.int32))


def test_sink_propagates_failure(tmp_path, paper_graph):
    from repro.core import CSE
    from repro.core.explore import expand_vertex_level

    store = FailingStore(str(tmp_path), allow=0)
    cse = CSE(np.arange(6))
    sink = SpillingSink(store, synchronous=True)
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
                        broken_sink(self._ensure_store(),
                                    synchronous=True))
    engine = KaleidoEngine(
        paper_graph, storage_mode="spill-last", spill_dir=str(tmp_path)
    )
    with pytest.raises(StorageError):
        engine.run(MotifCounting(3))
    assert original is hybrid.SpillingSink  # sanity: we only patched policy


def test_queue_error_then_recovers(tmp_path):
    """After an error is raised and consumed, the queue can keep going."""
    store = FailingStore(str(tmp_path), allow=1)
    queue = WritingQueue(store, synchronous=True)
    queue.submit(np.arange(2, dtype=np.int32))
    with pytest.raises(StorageError):
        queue.submit(np.arange(2, dtype=np.int32))
    store.allow = 10**9
    queue.submit(np.arange(2, dtype=np.int32))
    assert len(queue.close()) == 2
