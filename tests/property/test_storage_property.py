"""Property-based tests for the storage layer."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CSE
from repro.storage import (
    PartStore,
    SpilledLevel,
    SpillingSink,
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
def test_decode_block_preserves_part_order(tmp_path_factory, chunks):
    """One root per part: decoding the spilled level gives every part's
    entries in order, each under its own root."""
    store = PartStore(str(tmp_path_factory.mktemp("win")))
    handles = [store.save(np.asarray(c, dtype=np.int32)) for c in chunks]
    off = np.cumsum([0] + [len(c) for c in chunks])
    cse = CSE(np.arange(len(chunks), dtype=np.int32))
    cse.append_level(SpilledLevel(store, handles, off))
    block = cse.decode_block(0, cse.size())
    assert block[:, 1].tolist() == [x for c in chunks for x in c]
    assert block[:, 0].tolist() == [i for i, c in enumerate(chunks) for _ in c]
    store.close()


@given(
    arrays=st.lists(
        st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=40),
        min_size=0,
        max_size=10,
    ),
    data=st.data(),
)
@_slow
def test_writing_queue_order(tmp_path_factory, arrays, data):
    """Parts written to the sink in any order finish in index order."""
    store = PartStore(str(tmp_path_factory.mktemp("q")))
    sink = SpillingSink(store)
    order = data.draw(st.permutations(range(len(arrays))))
    for index in order:
        sink.write_part(np.asarray(arrays[index], dtype=np.int32), index=index)
    off = np.cumsum([0] + [len(a) for a in arrays], dtype=np.int64)
    level = sink.finish(off)
    assert [store.load(h).tolist() for h in level.parts] == arrays
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
