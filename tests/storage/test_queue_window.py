"""Unit tests for the WritingQueue."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import FaultPlan, FaultSpec, FaultyPartStore, PartStore, WritingQueue


@pytest.mark.parametrize("synchronous", [True, False])
def test_queue_order_preserved(tmp_path, synchronous):
    store = PartStore(str(tmp_path))
    queue = WritingQueue(store, synchronous=synchronous)
    for i in range(8):
        queue.submit(np.full(4, i, dtype=np.int32))
    handles = queue.close()
    assert len(handles) == 8
    for i, handle in enumerate(handles):
        assert store.load(handle).tolist() == [i] * 4


def test_queue_mixed_indexed_and_unindexed_keys(tmp_path):
    """An unindexed submit after explicit indices must sort after them —
    the sequence counter skips past every explicit index, so mixing the
    two styles can never produce duplicate sort keys."""
    store = PartStore(str(tmp_path))
    queue = WritingQueue(store, synchronous=True)
    queue.submit(np.full(2, 1, dtype=np.int32), index=1)
    queue.submit(np.full(2, 0, dtype=np.int32), index=0)
    queue.submit(np.full(2, 2, dtype=np.int32))  # unindexed → key 2, not 1
    handles = queue.close()
    assert [store.load(h).tolist() for h in handles] == [[0, 0], [1, 1], [2, 2]]


def test_queue_flush_mid_stream(tmp_path):
    store = PartStore(str(tmp_path))
    with WritingQueue(store) as queue:
        queue.submit(np.arange(3, dtype=np.int32))
        assert len(queue.flush()) == 1
        queue.submit(np.arange(2, dtype=np.int32))
        assert len(queue.flush()) == 2


def test_queue_tracks_io(tmp_path):
    store = PartStore(str(tmp_path))
    with WritingQueue(store) as queue:
        queue.submit(np.zeros(100, dtype=np.int32))
    assert store.io.bytes_written > 400


def test_queue_bound_validated_and_enforced(tmp_path):
    store = PartStore(str(tmp_path))
    with pytest.raises(ValueError):
        WritingQueue(store, maxsize=0)
    queue = WritingQueue(store, maxsize=2)
    assert queue.maxsize == 2
    for i in range(6):  # more submissions than slots: backpressure, no loss
        queue.submit(np.full(3, i, dtype=np.int32))
    handles = queue.close()
    assert [store.load(h)[0] for h in handles] == list(range(6))


def test_discard_after_writer_error_deletes_all_parts(tmp_path):
    """The error-path contract: after a mid-level writer failure, discard()
    removes every part that *was* written — nothing leaks."""
    plan = FaultPlan([FaultSpec(op="save", kind="permanent", at=3)])
    store = FaultyPartStore(str(tmp_path), plan=plan)
    queue = WritingQueue(store, synchronous=False)
    for i in range(3):  # third save fails on the writer thread
        queue.submit(np.full(4, i, dtype=np.int32))
    with pytest.raises(StorageError):
        queue.close()
    queue.discard()
    assert not list(tmp_path.glob("*.npy"))
    assert not list(tmp_path.glob("*.tmp"))

