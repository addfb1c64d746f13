"""Unit tests for the spilled-part write path (:class:`SpillingSink`).

Each part is saved when it is written; handles are keyed by part index.
"""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import FaultPlan, FaultSpec, FaultyPartStore, PartStore, SpillingSink


@pytest.mark.parametrize("in_order", [True, False])
def test_queue_order_preserved(tmp_path, in_order):
    """Parts written in or out of index order land in index order."""
    store = PartStore(str(tmp_path))
    sink = SpillingSink(store)
    indices = range(8) if in_order else reversed(range(8))
    for i in indices:
        sink.write_part(np.full(4, i, dtype=np.int32), index=i)
    level = sink.finish(np.arange(0, 33, 4, dtype=np.int64))
    assert level.num_parts == 8
    for i, handle in enumerate(level.parts):
        assert store.load(handle).tolist() == [i] * 4


def test_queue_tracks_io(tmp_path):
    store = PartStore(str(tmp_path))
    sink = SpillingSink(store)
    sink.write_part(np.zeros(100, dtype=np.int32), index=0)
    # The part is on disk as soon as write_part returns.
    assert store.io.bytes_written > 400
    assert len(list(tmp_path.glob("*.npy"))) == 1


def test_discard_after_writer_error_deletes_all_parts(tmp_path):
    """The error-path contract: after a mid-level write failure, abort()
    removes every part that *was* written — nothing leaks."""
    plan = FaultPlan([FaultSpec(op="save", kind="permanent", at=3)])
    store = FaultyPartStore(str(tmp_path), plan=plan)
    sink = SpillingSink(store)
    sink.write_part(np.full(4, 0, dtype=np.int32), index=0)
    sink.write_part(np.full(4, 1, dtype=np.int32), index=1)
    with pytest.raises(StorageError):  # the third save fails
        sink.write_part(np.full(4, 2, dtype=np.int32), index=2)
    sink.abort()
    assert not list(tmp_path.glob("*.npy"))
    assert not list(tmp_path.glob("*.tmp"))
