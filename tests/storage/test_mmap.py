"""Mmap-served spill parts: content, accounting, corruption, resume."""

import tempfile

import numpy as np
import pytest

from repro.apps import MotifCounting
from repro.core import CSE
from repro.core.engine import KaleidoEngine
from repro.core.explore import expand_vertex_level
from repro.errors import CorruptPartError
from repro.storage import (
    FaultPlan,
    FaultSpec,
    FaultyPartStore,
    PartStore,
    RetryPolicy,
    SpilledLevel,
)
from repro.storage.faults import _corrupt_file
from repro.storage.hybrid import spill_level
from repro.storage.spill import PartedVector


def _no_sleep_retry(attempts=4):
    return RetryPolicy(attempts=attempts, sleep=lambda _t: None)


# ----------------------------------------------------------------------
# PartStore.open_mmap / verify
# ----------------------------------------------------------------------
def test_open_mmap_content_and_accounting(tmp_path):
    store = PartStore(str(tmp_path))
    data = np.arange(1000, dtype=np.int32)
    handle = store.save(data)
    read_before = store.io.bytes_read
    mapped = store.open_mmap(handle)
    assert isinstance(mapped, np.memmap)
    assert np.array_equal(mapped, data)
    assert not mapped.flags.writeable
    # The map is accounted as one read of the part's bytes.
    assert store.io.bytes_read == read_before + handle.nbytes


def test_open_mmap_length_mismatch(tmp_path):
    store = PartStore(str(tmp_path))
    handle = store.save(np.arange(10, dtype=np.int32))
    bad = type(handle)(
        path=handle.path,
        length=handle.length + 5,
        nbytes=handle.nbytes,
        checksum=handle.checksum,
    )
    with pytest.raises(CorruptPartError):
        store.open_mmap(bad)


def test_torn_part_fails_fast_at_mmap(tmp_path):
    plan = FaultPlan(
        [FaultSpec(op="load", kind="torn", at=1)], sleep=lambda _t: None
    )
    store = FaultyPartStore(str(tmp_path), plan=plan, retry=_no_sleep_retry())
    handle = store.save(np.arange(500, dtype=np.int32))
    with pytest.raises(CorruptPartError):
        store.open_mmap(handle)


def test_byte_flip_silent_at_mmap_caught_by_verify(tmp_path):
    store = PartStore(str(tmp_path))
    data = np.arange(256, dtype=np.int32)
    handle = store.save(data)
    store.verify(handle)  # intact: no complaint
    _corrupt_file(handle.path, torn=False)
    # A flipped payload byte still maps (zero-copy reads skip the CRC)...
    mapped = store.open_mmap(handle)
    assert mapped.shape[0] == handle.length
    # ...but the explicit integrity pass catches it.
    with pytest.raises(CorruptPartError):
        store.verify(handle)
    # And the CRC-checked load path still refuses it too.
    with pytest.raises(CorruptPartError):
        store.load(handle)


def test_spilled_level_verify_sweeps_all_parts(tmp_path):
    store = PartStore(str(tmp_path))
    handles = [store.save(np.arange(8, dtype=np.int32)) for _ in range(3)]
    level = SpilledLevel(store, handles, None)
    level.verify()  # intact
    _corrupt_file(handles[1].path, torn=False)
    with pytest.raises(CorruptPartError):
        level.verify()


# ----------------------------------------------------------------------
# A spilled level read by CSE.decode_block: parts served as maps, in order
# ----------------------------------------------------------------------
def _three_part_cse(tmp_path):
    """Three roots, each with a five-entry child part on disk."""
    store = PartStore(str(tmp_path))
    handles = [store.save(np.arange(i, i + 5, dtype=np.int32)) for i in (0, 10, 20)]
    cse = CSE(np.arange(3, dtype=np.int32))
    cse.append_level(SpilledLevel(store, handles, np.array([0, 5, 10, 15])))
    return store, cse


def test_decode_block_reads_spilled_parts_in_order(tmp_path):
    _store, cse = _three_part_cse(tmp_path)
    block = cse.decode_block(0, cse.size())
    assert block[:, 0].tolist() == [0] * 5 + [1] * 5 + [2] * 5
    assert block[:, 1].tolist() == [*range(5), *range(10, 15), *range(20, 25)]
    assert np.array_equal(block[:, 1], cse.top.vert_array())


def test_decode_block_counts_each_part_read_once(tmp_path):
    store, cse = _three_part_cse(tmp_path)
    before = store.io.bytes_read
    for start in range(0, cse.size(), 4):
        cse.decode_block(start, min(start + 4, cse.size()))
    assert store.io.bytes_read == before + cse.top.nbytes_on_disk


def test_decode_block_raises_on_torn_part(tmp_path):
    """The level's parts are mapped together on first read, so a torn
    part fails every block, not only its own; the CRC-checked
    ``vert_array`` refuses it too."""
    _store, cse = _three_part_cse(tmp_path)
    _corrupt_file(cse.top.parts[1].path, torn=True)
    with pytest.raises(CorruptPartError):
        cse.decode_block(0, 5)
    with pytest.raises(CorruptPartError):
        cse.top.vert_array()


# ----------------------------------------------------------------------
# PartedVector: one virtual array over the per-part maps
# ----------------------------------------------------------------------
def test_parted_vector_matches_concatenation():
    parts = [
        np.array([3, 1, 4], dtype=np.int32),
        np.array([], dtype=np.int32),
        np.array([1, 5, 9, 2, 6], dtype=np.int32),
    ]
    flat = np.concatenate(parts)
    vec = PartedVector(parts)
    assert len(vec) == flat.shape[0]
    assert vec.shape == flat.shape
    ordered = np.arange(flat.shape[0])
    assert np.array_equal(vec[ordered], flat)
    # Arbitrary (unsorted, repeated) gathers stay correct.
    scrambled = np.array([7, 0, 3, 3, 5, 1, 6], dtype=np.int64)
    assert np.array_equal(vec[scrambled], flat[scrambled])


def test_parted_vector_empty():
    vec = PartedVector([])
    assert len(vec) == 0
    assert vec[np.array([], dtype=np.int64)].shape == (0,)
    assert vec[0:0].shape == (0,)


def _slice_parts():
    return [
        np.array([3, 1, 4], dtype=np.int32),
        np.array([], dtype=np.int32),
        np.array([1, 5, 9, 2, 6], dtype=np.int32),
        np.array([5, 3], dtype=np.int32),
    ]


def test_parted_vector_slice_within_one_part():
    parts = _slice_parts()
    vec = PartedVector(parts)
    flat = np.concatenate(parts)
    for lo, hi in ((0, 3), (1, 2), (3, 8), (4, 7), (8, 10), (9, 10)):
        got = vec[lo:hi]
        assert got.dtype == vec.dtype
        assert np.array_equal(got, flat[lo:hi]), (lo, hi)
    # Inside one part the slice is a view of that part, not a copy.
    assert np.shares_memory(vec[4:7], parts[2])


def test_parted_vector_slice_across_parts():
    vec = PartedVector(_slice_parts())
    flat = np.concatenate(_slice_parts())
    for lo in range(flat.shape[0] + 1):
        for hi in range(lo, flat.shape[0] + 1):
            assert np.array_equal(vec[lo:hi], flat[lo:hi]), (lo, hi)
    assert np.array_equal(vec[:], flat)


def test_parted_vector_slice_empty_and_widened():
    vec = PartedVector(_slice_parts(), dtype=np.int64)
    for lo in (0, 3, 10):
        empty = vec[lo:lo]
        assert empty.shape == (0,) and empty.dtype == np.int64
    assert vec[2:9].dtype == np.int64
    assert vec[4:6].dtype == np.int64
    with pytest.raises(ValueError):
        vec[0:10:2]


# ----------------------------------------------------------------------
# Mmap-backed block decode
# ----------------------------------------------------------------------
def test_spill_parity_across_executors(paper_graph):
    maps = {}
    for spec in ("serial", "threads"):
        with tempfile.TemporaryDirectory() as spill_dir:
            engine = KaleidoEngine(
                paper_graph,
                workers=2,
                executor=spec,
                storage_mode="spill-last",
                spill_dir=spill_dir,
                sanitize=True,
            )
            try:
                # 4-Motif spills its 2-embeddings; the last level is folded.
                result = engine.run(MotifCounting(4))
            finally:
                engine.close()
            assert result.extra["spilled_levels"] >= 1
            maps[spec] = result.pattern_map
    assert maps["serial"] == maps["threads"]


def test_spilled_level_block_decode_matches_walk(paper_graph, tmp_path):
    cse = CSE(np.arange(paper_graph.num_vertices))
    expand_vertex_level(paper_graph, cse)
    expand_vertex_level(paper_graph, cse)
    store = PartStore(str(tmp_path))
    top = cse.pop_level()
    expected = [(pos, emb) for pos, emb in _walk(cse, top)]
    cse.append_level(spill_level(top, store, part_entries=3))
    block = cse.decode_block(0, cse.size())
    for pos, emb in expected:
        assert tuple(int(v) for v in block[pos]) == emb
    # Picks in arbitrary order, with repeats, crossing part boundaries.
    picks = np.array([7, 0, 4, 4, 2, 7, 5])
    np.testing.assert_array_equal(cse.decode_rows(picks), block[picks])


def _spilled_cse(paper_graph, tmp_path):
    """Figure-4 CSE with both non-root levels spilled in 3-entry parts."""
    cse = CSE(np.arange(paper_graph.num_vertices))
    expand_vertex_level(paper_graph, cse)
    expand_vertex_level(paper_graph, cse)
    expected = list(cse.iter_embeddings())
    store = PartStore(str(tmp_path))
    for l in (1, 2):
        cse.levels[l] = spill_level(cse.levels[l], store, part_entries=3)
    return cse, store, expected


def _forbid_load(monkeypatch, store):
    def load(_handle):
        raise AssertionError("PartStore.load called: a spilled level was loaded whole")

    monkeypatch.setattr(store, "load", load)


def test_random_access_never_loads_spilled_level(paper_graph, tmp_path, monkeypatch):
    cse, store, expected = _spilled_cse(paper_graph, tmp_path)
    _forbid_load(monkeypatch, store)
    for pos, emb in expected:
        assert cse.embedding_at(2, pos) == emb
    assert cse.embedding_at(1, 6) == (4, 5)


def test_iter_embeddings_streams_spilled_level(paper_graph, tmp_path, monkeypatch):
    cse, store, expected = _spilled_cse(paper_graph, tmp_path)
    _forbid_load(monkeypatch, store)
    assert list(cse.iter_embeddings()) == expected


def _walk(cse, top):
    cse.append_level(top)
    try:
        yield from cse.iter_embeddings()
    finally:
        cse.pop_level()


# ----------------------------------------------------------------------
# Checkpoint resume over mmap-served levels
# ----------------------------------------------------------------------
def test_resume_from_mmap_served_levels(paper_graph, tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    with tempfile.TemporaryDirectory() as spill_dir:
        engine = KaleidoEngine(
            paper_graph,
            workers=2,
            executor="threads",
            storage_mode="spill-last",
            spill_dir=spill_dir,
            checkpoint_dir=checkpoint_dir,
        )
        try:
            baseline = engine.run(MotifCounting(3))
        finally:
            engine.close()
    with tempfile.TemporaryDirectory() as spill_dir:
        engine = KaleidoEngine(
            paper_graph,
            workers=2,
            executor="threads",
            storage_mode="spill-last",
            spill_dir=spill_dir,
            checkpoint_dir=checkpoint_dir,
        )
        try:
            resumed = engine.run(MotifCounting(3), resume=True)
        finally:
            engine.close()
    assert resumed.pattern_map == baseline.pattern_map
    assert resumed.extra["resumed_from_level"] is not None
