"""Unit tests for SpillingSink, spill_level and the StoragePolicy."""

import numpy as np

from repro.core import CSE, InMemoryLevel
from repro.core.explore import InMemorySink, expand_vertex_level
from repro.storage import (
    MemoryBudget,
    MemoryMeter,
    PartStore,
    SpilledLevel,
    SpillingSink,
    StoragePolicy,
    spill_level,
)


def test_spilling_sink_roundtrip(tmp_path, paper_graph):
    store = PartStore(str(tmp_path))
    cse = CSE(np.arange(6))
    sink = SpillingSink(store)
    expand_vertex_level(paper_graph, cse, parts=[(0, 3), (3, 6)], sink=sink)
    top = cse.top
    assert isinstance(top, SpilledLevel)
    assert top.num_parts == 2
    assert [e for _, e in cse.iter_embeddings()] == [
        (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)
    ]


def test_spilled_then_expand_again(tmp_path, paper_graph):
    """Exploration can read a spilled level to build the next one."""
    store = PartStore(str(tmp_path))
    cse = CSE(np.arange(6))
    sink = SpillingSink(store)
    expand_vertex_level(paper_graph, cse, parts=[(0, 2), (2, 6)], sink=sink)
    expand_vertex_level(paper_graph, cse)  # reads the spilled level 2
    threes = {e for _, e in cse.iter_embeddings()}
    assert threes == {
        (1, 2, 3), (1, 2, 5), (1, 5, 3), (1, 5, 4),
        (2, 3, 4), (2, 3, 5), (2, 5, 4), (3, 4, 5),
    }


def test_spill_level_demotion(tmp_path):
    store = PartStore(str(tmp_path))
    level = InMemoryLevel(np.arange(100, dtype=np.int32), None)
    spilled = spill_level(level, store, part_entries=30)
    assert isinstance(spilled, SpilledLevel)
    assert spilled.num_parts == 4
    assert np.array_equal(spilled.vert_array(), level.vert_array())
    # Already-spilled levels pass through.
    assert spill_level(spilled, store) is spilled


def test_policy_memory_fits_in_memory(tmp_path):
    meter = MemoryMeter()
    policy = StoragePolicy(MemoryBudget(10**9), meter)
    cse = CSE(np.arange(10))
    sink = policy.sink_for_next_level(cse, predicted_entries=100)
    assert isinstance(sink, InMemorySink)
    assert policy.spilled_levels == 0


def test_policy_spills_over_budget(tmp_path):
    meter = MemoryMeter()
    meter.set("other", 900)
    policy = StoragePolicy(
        MemoryBudget(1000), meter, store=PartStore(str(tmp_path)),
    )
    cse = CSE(np.arange(10))
    sink = policy.sink_for_next_level(cse, predicted_entries=1000)
    assert isinstance(sink, SpillingSink)
    # A spilled level is counted when it lands, not when its sink is built.
    assert policy.spilled_levels == 0
    sink.write_part(np.arange(10, dtype=np.int32), index=0)
    sink.finish(np.arange(11))
    assert policy.spilled_levels == 1


def test_policy_force_spill_last(tmp_path):
    policy = StoragePolicy(
        MemoryBudget(None), MemoryMeter(), store=PartStore(str(tmp_path)),
        storage_mode="spill-last",
    )
    cse = CSE(np.arange(4))
    sink = policy.sink_for_next_level(cse, predicted_entries=1)
    assert isinstance(sink, SpillingSink)


def test_policy_demotes_top_when_pressed(tmp_path, paper_graph):
    meter = MemoryMeter()
    policy = StoragePolicy(
        MemoryBudget(1), meter, store=PartStore(str(tmp_path)),
    )
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    meter.set("cse", cse.nbytes_in_memory)
    policy.sink_for_next_level(cse, predicted_entries=100)
    assert isinstance(cse.top, SpilledLevel)


def test_policy_creates_store_lazily():
    policy = StoragePolicy(
        MemoryBudget(None), MemoryMeter(), storage_mode="spill-last",
    )
    assert policy.store is None
    cse = CSE(np.arange(2))
    policy.sink_for_next_level(cse, predicted_entries=1)
    assert policy.store is not None
    policy.close()
