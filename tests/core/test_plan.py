"""Unit tests for the Planner stage (plan → execute → aggregate)."""

from itertools import combinations

import numpy as np
import pytest

from repro.core import CSE, EngineContext, InMemorySink, KaleidoEngine, Planner
from repro.core.plan import LevelPlan
from repro.errors import PlanError
from repro.graph import from_edge_list
from repro.storage import MemoryBudget, MemoryMeter, SpillingSink, StoragePolicy


def _planner(graph, policy=None, **kwargs):
    policy = policy or StoragePolicy(MemoryBudget(None), MemoryMeter())
    return Planner(graph, policy, **kwargs)


def _ctx(graph):
    # The planner only reads ctx.edge_index; a throwaway engine suffices.
    return EngineContext(graph=graph, engine=KaleidoEngine(graph))


def test_plan_level_covers_level(paper_graph):
    planner = _planner(paper_graph, workers=6)
    cse = CSE(np.arange(6))
    plan = planner.plan_level(_ctx(paper_graph), cse)
    assert isinstance(plan, LevelPlan)
    assert plan.size == 6
    assert plan.num_parts == 6
    assert plan.part_bounds[0][0] == 0
    assert plan.part_bounds[-1][1] == 6
    for (_, e), (s, _) in zip(plan.part_bounds, plan.part_bounds[1:]):
        assert e == s
    assert plan.costs is not None
    assert plan.predicted_entries == int(plan.costs.sum())
    assert not plan.spill
    assert isinstance(plan.sink, InMemorySink)


def test_plan_without_prediction_splits_evenly(paper_graph):
    planner = _planner(paper_graph, use_prediction=False, workers=2)
    cse = CSE(np.arange(6))
    plan = planner.plan_level(_ctx(paper_graph), cse)
    assert plan.part_bounds == [(0, 3), (3, 6)]
    # The costs still size the next level: each vertex's higher
    # neighbors, so the 7 edges exactly.
    assert plan.costs.tolist() == [0, 2, 2, 2, 1, 0]
    assert plan.predicted_entries == paper_graph.num_edges == 7


def test_plan_memory_mode_skips_policy(paper_graph):
    # Memory mode never consults the budget: even a one-byte budget keeps
    # the level in memory.
    policy = StoragePolicy(MemoryBudget(1), MemoryMeter(), storage_mode="memory")
    plan = _planner(paper_graph, policy=policy).plan_level(
        _ctx(paper_graph), CSE(np.arange(6))
    )
    assert isinstance(plan.sink, InMemorySink)
    assert not plan.spill
    assert plan.io_plan is None


def test_plan_guard_raises(paper_graph):
    planner = _planner(paper_graph, max_embeddings=1)
    with pytest.raises(PlanError, match="max_embeddings"):
        planner.plan_level(_ctx(paper_graph), CSE(np.arange(6)))


def test_plan_spill_decision(paper_graph, tmp_path):
    from repro.storage import PartStore

    policy = StoragePolicy(
        MemoryBudget(1), MemoryMeter(), store=PartStore(str(tmp_path)),
    )
    planner = _planner(paper_graph, policy=policy)
    plan = planner.plan_level(_ctx(paper_graph), CSE(np.arange(6)))
    assert plan.spill
    assert isinstance(plan.sink, SpillingSink)


def test_plan_mapped_level_cut_vs_io_plan(tmp_path):
    """A stored level the app maps keeps the per-worker cut in every storage
    mode, with the prediction on or off: its mapper's parts shape the
    app's result (FSM's short-circuited supports).  A spilled level
    nothing maps still takes the I/O plan's finer cut."""
    from repro.storage import PartStore

    # K_150: 11,175 next-level entries, several minimum-size spill parts.
    graph = from_edge_list(list(combinations(range(150), 2)))
    cse = CSE(np.arange(150))
    ctx = _ctx(graph)

    def plan(mode, **kwargs):
        policy = StoragePolicy(
            MemoryBudget(1), MemoryMeter(), store=PartStore(str(tmp_path)),
            storage_mode=mode,
        )
        return _planner(graph, policy=policy, workers=2, **kwargs).plan_level(
            ctx, cse
        )

    for use_prediction in (True, False):
        memory = plan("memory", map_every_level=True, use_prediction=use_prediction)
        spilled = plan("spill-last", map_every_level=True, use_prediction=use_prediction)
        assert memory.mapped and spilled.mapped and not spilled.fold
        assert spilled.spill and spilled.io_plan is not None
        assert memory.size == spilled.size == 150
        assert spilled.part_bounds == memory.part_bounds
        assert memory.num_parts == 2
        if not use_prediction:
            assert memory.part_bounds == [(0, 75), (75, 150)]
        unmapped = plan("spill-last", use_prediction=use_prediction)
        assert not unmapped.mapped and unmapped.spill
        assert unmapped.num_parts > 2


def test_plan_folded_level_takes_no_sink(paper_graph, tmp_path):
    """The folded depth is planned like any level — costs, balanced cut,
    guard — but asks the policy for no sink, even under a one-byte
    budget that spills every stored level."""
    from repro.storage import PartStore

    policy = StoragePolicy(
        MemoryBudget(1), MemoryMeter(), store=PartStore(str(tmp_path)),
    )
    planner = _planner(paper_graph, policy=policy, fold_depth=1, workers=2)
    cse = CSE(np.arange(6))
    plan = planner.plan_level(_ctx(paper_graph), cse)
    assert plan.fold
    assert plan.sink is None and not plan.spill and plan.io_plan is None
    assert plan.predicted_entries == 7
    assert plan.part_bounds == _planner(paper_graph, workers=2).plan_level(
        _ctx(paper_graph), cse
    ).part_bounds
    assert policy.last_io_plan is None
    guarded = _planner(paper_graph, fold_depth=1, max_embeddings=1)
    with pytest.raises(PlanError, match="max_embeddings"):
        guarded.plan_level(_ctx(paper_graph), cse)
