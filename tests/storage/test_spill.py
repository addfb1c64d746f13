"""Unit tests for PartStore and SpilledLevel."""

import os

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import PartStore, SpilledLevel


def test_save_load_roundtrip(tmp_path):
    store = PartStore(str(tmp_path))
    data = np.arange(100, dtype=np.int32)
    handle = store.save(data)
    assert handle.length == 100
    assert os.path.exists(handle.path)
    loaded = store.load(handle)
    assert np.array_equal(loaded, data)
    assert store.io.bytes_written > 0
    assert store.io.bytes_read == store.io.bytes_written


def test_delete(tmp_path):
    store = PartStore(str(tmp_path))
    handle = store.save(np.zeros(5, dtype=np.int32))
    store.delete(handle)
    assert not os.path.exists(handle.path)
    store.delete(handle)  # idempotent


def test_tempdir_cleanup():
    store = PartStore()
    directory = store.directory
    store.save(np.zeros(3, dtype=np.int32))
    store.close()
    assert not os.path.exists(directory)


def test_explicit_dir_not_removed(tmp_path):
    store = PartStore(str(tmp_path))
    store.save(np.zeros(3, dtype=np.int32))
    store.close()
    assert os.path.exists(tmp_path)


def test_load_missing_part(tmp_path):
    store = PartStore(str(tmp_path))
    handle = store.save(np.zeros(3, dtype=np.int32))
    os.remove(handle.path)
    with pytest.raises(StorageError):
        store.load(handle)


def _spilled(tmp_path, chunks, off=None):
    store = PartStore(str(tmp_path))
    handles = [store.save(np.asarray(c, dtype=np.int32)) for c in chunks]
    return store, SpilledLevel(store, handles, off)


def test_spilled_level_basics(tmp_path):
    off = np.array([0, 2, 5], dtype=np.int64)
    store, level = _spilled(tmp_path, [[1, 2], [3, 4, 5]], off)
    assert level.num_embeddings == 5
    assert level.num_parts == 2
    assert level.vert_array().tolist() == [1, 2, 3, 4, 5]
    assert level.nbytes_in_memory == off.nbytes
    assert level.nbytes_on_disk > 0
    assert level.nbytes_total > level.nbytes_in_memory


def test_spilled_level_off_span_check(tmp_path):
    with pytest.raises(StorageError):
        _spilled(tmp_path, [[1, 2]], np.array([0, 5], dtype=np.int64))


def test_spilled_level_drop(tmp_path):
    store, level = _spilled(tmp_path, [[1], [2]], np.array([0, 1, 2]))
    paths = [p.path for p in level.parts]
    level.drop()
    assert level.num_embeddings == 0
    assert all(not os.path.exists(p) for p in paths)


def test_empty_spilled_level(tmp_path):
    store = PartStore(str(tmp_path))
    level = SpilledLevel(store, [], np.array([0], dtype=np.int64))
    assert level.num_embeddings == 0
    assert level.vert_array().shape == (0,)
