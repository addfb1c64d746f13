"""Property-based tests for the storage layer."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import (
    PartStore,
    SpilledLevel,
    WritingQueue,
    load_cse,
    save_cse,
)

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(
    chunks=st.lists(
        st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=0, max_size=50),
        min_size=0,
        max_size=8,
    )
)
@_slow
def test_part_roundtrip_any_chunking(tmp_path_factory, chunks):
    store = PartStore(str(tmp_path_factory.mktemp("parts")))
    handles = [store.save(np.asarray(c, dtype=np.int32)) for c in chunks]
    flat = [x for c in chunks for x in c]
    read = [int(x) for h in handles for x in store.load(h)]
    assert read == flat
    store.close()


@given(
    chunks=st.lists(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30),
        min_size=1,
        max_size=6,
    ),
)
@_slow
def test_iter_vert_chunks_preserves_order(tmp_path_factory, chunks):
    store = PartStore(str(tmp_path_factory.mktemp("win")))
    handles = [store.save(np.asarray(c, dtype=np.int32)) for c in chunks]
    level = SpilledLevel(store, handles, None)
    assert [c.tolist() for c in level.iter_vert_chunks()] == chunks
    store.close()


@given(
    arrays=st.lists(
        st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=40),
        min_size=0,
        max_size=10,
    ),
    synchronous=st.booleans(),
)
@_slow
def test_writing_queue_order(tmp_path_factory, arrays, synchronous):
    store = PartStore(str(tmp_path_factory.mktemp("q")))
    with WritingQueue(store, synchronous=synchronous) as queue:
        for arr in arrays:
            queue.submit(np.asarray(arr, dtype=np.int32))
        handles = queue.flush()
    assert [store.load(h).tolist() for h in handles] == arrays
    store.close()


@given(
    counts=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20)
)
@_slow
def test_spilled_level_off_consistency(tmp_path_factory, counts):
    """A spilled level built from arbitrary child counts walks correctly."""
    store = PartStore(str(tmp_path_factory.mktemp("lvl")))
    total = sum(counts)
    vert = np.arange(total, dtype=np.int32)
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    # Split vert into two arbitrary parts.
    cut = total // 2
    handles = [store.save(vert[:cut]), store.save(vert[cut:])]
    level = SpilledLevel(store, handles, off)
    assert level.num_embeddings == total
    assert np.array_equal(level.vert_array(), vert)
    store.close()


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4)
)
@_slow
def test_checkpoint_roundtrip_arbitrary_shapes(tmp_path_factory, sizes):
    """Synthesise a structurally-valid CSE of arbitrary level sizes and
    round-trip it through the checkpoint."""
    from repro.core import CSE, InMemoryLevel

    rng = np.random.default_rng(0)
    cse = CSE(np.arange(sizes[0], dtype=np.int32))
    for size in sizes[1:]:
        parent = cse.size()
        cuts = np.sort(rng.integers(0, size + 1, size=parent - 1)) if parent > 1 else np.zeros(0, dtype=np.int64)
        off = np.concatenate([[0], cuts, [size]]).astype(np.int64)
        cse.append_level(InMemoryLevel(rng.integers(0, 100, size=size), off))
    directory = tmp_path_factory.mktemp("ck")
    save_cse(cse, directory)
    loaded = load_cse(directory)
    assert loaded.depth == cse.depth
    for a, b in zip(loaded.levels, cse.levels):
        assert np.array_equal(a.vert_array(), b.vert_array())
