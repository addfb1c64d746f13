"""Zero-copy IPC primitives: shared contexts, parted vectors, level export."""

import numpy as np
import pytest

from repro.core import CSE, InMemoryLevel, shm
from repro.core.cse import decode_block_arrays
from repro.core.explore import expand_vertex_level
from repro.core.kernels import (
    edge_kernel_context,
    vertex_kernel_context,
)
from repro.graph.edge_index import EdgeIndex
from repro.storage.hybrid import spill_level
from repro.storage.spill import PartStore


@pytest.fixture
def paper_cse(paper_graph):
    cse = CSE(np.arange(paper_graph.num_vertices))
    expand_vertex_level(paper_graph, cse)
    expand_vertex_level(paper_graph, cse)
    return cse


# ----------------------------------------------------------------------
# Context fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_content_based(paper_graph):
    a = vertex_kernel_context(paper_graph)
    # A rebuilt context over *copies* of the same arrays fingerprints
    # identically — that is the key the warm pool survives on.
    b = type(a)(
        indptr=a.indptr.copy(),
        indices=a.indices.copy(),
        num_vertices=a.num_vertices,
        out_dtype=a.out_dtype,
        adjacency_keys=None if a.adjacency_keys is None else a.adjacency_keys.copy(),
    )
    assert shm.context_fingerprint(a) == shm.context_fingerprint(b)


def test_fingerprint_differs_on_content_change(paper_graph):
    a = vertex_kernel_context(paper_graph)
    indices = a.indices.copy()
    indices[0] += 1
    b = type(a)(
        indptr=a.indptr,
        indices=indices,
        num_vertices=a.num_vertices,
        out_dtype=a.out_dtype,
        adjacency_keys=a.adjacency_keys,
    )
    assert shm.context_fingerprint(a) != shm.context_fingerprint(b)


def test_fingerprint_differs_across_kinds(paper_graph):
    assert shm.context_fingerprint(
        vertex_kernel_context(paper_graph)
    ) != shm.context_fingerprint(edge_kernel_context(EdgeIndex(paper_graph)))


# ----------------------------------------------------------------------
# Shared kernel contexts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_context_roundtrip(paper_graph, kind):
    if kind == "vertex":
        ctx = vertex_kernel_context(paper_graph)
    else:
        ctx = edge_kernel_context(EdgeIndex(paper_graph))
    shared = shm.SharedKernelContext(ctx)
    try:
        attached, segment = shm.attach_context(shared.handle)
        try:
            assert type(attached) is type(ctx)
            import dataclasses

            for field in dataclasses.fields(ctx):
                original = getattr(ctx, field.name)
                rebuilt = getattr(attached, field.name)
                if isinstance(original, np.ndarray):
                    assert np.array_equal(rebuilt, original)
                    assert rebuilt.dtype == original.dtype
                    assert not rebuilt.flags.writeable
                else:
                    assert rebuilt == original
        finally:
            del attached
            segment.close()
    finally:
        shared.close()


def test_context_close_idempotent(paper_graph):
    shared = shm.SharedKernelContext(vertex_kernel_context(paper_graph))
    name = shared.handle.segment
    shared.close()
    shared.close()
    assert shared.closed
    # The segment is gone: attaching by name must fail.
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_handle_pickle_carries_no_arrays(paper_graph):
    import pickle

    ctx = vertex_kernel_context(paper_graph)
    shared = shm.SharedKernelContext(ctx)
    try:
        payload = pickle.dumps(shared.handle)
        # The handle is a name card — bounded regardless of graph size,
        # where pickling the context itself would scale with the arrays.
        assert len(payload) < 2048
    finally:
        shared.close()


# ----------------------------------------------------------------------
# PartedVector
# ----------------------------------------------------------------------
def test_parted_vector_matches_concatenation():
    parts = [
        np.array([3, 1, 4], dtype=np.int32),
        np.array([], dtype=np.int32),
        np.array([1, 5, 9, 2, 6], dtype=np.int32),
    ]
    flat = np.concatenate(parts)
    vec = shm.PartedVector(parts)
    assert len(vec) == flat.shape[0]
    assert vec.shape == flat.shape
    ordered = np.arange(flat.shape[0])
    assert np.array_equal(vec[ordered], flat)
    # Arbitrary (unsorted, repeated) gathers stay correct.
    scrambled = np.array([7, 0, 3, 3, 5, 1, 6], dtype=np.int64)
    assert np.array_equal(vec[scrambled], flat[scrambled])


def test_parted_vector_empty():
    vec = shm.PartedVector([])
    assert len(vec) == 0
    assert vec[np.array([], dtype=np.int64)].shape == (0,)


# ----------------------------------------------------------------------
# Level export / attach
# ----------------------------------------------------------------------
def _drain_levels_cache():
    while shm._LEVELS_CACHE:
        _, (segment, _, _) = shm._LEVELS_CACHE.popitem(last=False)
        if segment is not None:
            shm._release_segment(segment, unlink=False)


def test_export_levels_roundtrip_in_memory(paper_cse):
    share = shm.export_levels(paper_cse)
    assert share is not None
    try:
        verts, offs = shm.attach_levels(share.handle)
        size = paper_cse.size()
        block = decode_block_arrays(verts, offs, 0, size)
        assert np.array_equal(block, paper_cse.decode_block(0, size))
        # Partial bounds decode too.
        partial = decode_block_arrays(verts, offs, 2, 5)
        assert np.array_equal(partial, paper_cse.decode_block(2, 5))
    finally:
        _drain_levels_cache()
        share.close()
        share.close()  # idempotent


def test_export_levels_spilled_top_uses_mmap(paper_cse, tmp_path):
    store = PartStore(str(tmp_path))
    top = paper_cse.pop_level()
    paper_cse.append_level(spill_level(top, store, part_entries=3))
    share = shm.export_levels(paper_cse)
    assert share is not None
    try:
        spec = share.handle.levels[-1].vert
        assert isinstance(spec, shm.MmapVectorSpec)
        verts, offs = shm.attach_levels(share.handle)
        assert isinstance(verts[-1], shm.PartedVector)
        size = paper_cse.size()
        assert np.array_equal(
            decode_block_arrays(verts, offs, 0, size),
            paper_cse.decode_block(0, size),
        )
    finally:
        _drain_levels_cache()
        share.close()
        store.close()


def test_export_levels_refuses_unshareable_level(paper_cse):
    """A level that is neither resident nor spilled in part files (any
    other Level implementation) cannot be shared by name."""

    class ForeignLevel:
        def __init__(self, level):
            self._level = level
            self.num_embeddings = level.num_embeddings

        def vert_array(self):
            return self._level.vert_array()

        def off_array(self):
            return self._level.off_array()

    paper_cse.append_level(ForeignLevel(paper_cse.pop_level()))
    assert shm.export_levels(paper_cse) is None


def test_attach_levels_cache_bounded(paper_cse):
    _drain_levels_cache()
    shares = [shm.export_levels(paper_cse) for _ in range(4)]
    try:
        for share in shares:
            shm.attach_levels(share.handle)
        assert len(shm._LEVELS_CACHE) <= shm._LEVELS_CACHE_MAX
        # The most recent attachment is cached (same objects back).
        verts_a, _ = shm.attach_levels(shares[-1].handle)
        verts_b, _ = shm.attach_levels(shares[-1].handle)
        assert verts_a is verts_b
    finally:
        _drain_levels_cache()
        for share in shares:
            share.close()
