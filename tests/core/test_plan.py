"""Unit tests for the Planner stage (plan → execute → aggregate)."""

import numpy as np
import pytest

from repro.core import CSE, EngineContext, InMemorySink, KaleidoEngine, Planner
from repro.core.plan import AggregatePlan, LevelPlan
from repro.errors import PlanError
from repro.storage import MemoryBudget, MemoryMeter, SpillingSink, StoragePolicy
from repro.apps import MotifCounting


def _planner(graph, policy=None, **kwargs):
    policy = policy or StoragePolicy(MemoryBudget(None), MemoryMeter())
    return Planner(graph, policy, **kwargs)


def _ctx(graph):
    # The planner only reads ctx.edge_index; a throwaway engine suffices.
    return EngineContext(graph=graph, engine=KaleidoEngine(graph))


def test_plan_level_covers_level(paper_graph):
    planner = _planner(paper_graph, workers=2, parts_per_worker=3)
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
    planner = _planner(paper_graph, use_prediction=False, parts_per_worker=2)
    cse = CSE(np.arange(6))
    plan = planner.plan_level(_ctx(paper_graph), cse)
    assert plan.costs is None
    assert plan.part_bounds == [(0, 3), (3, 6)]
    assert plan.predicted_entries == 6 * max(1, int(paper_graph.average_degree))


def test_plan_memory_mode_skips_policy(paper_graph):
    planner = _planner(paper_graph, storage_mode="memory")
    plan = planner.plan_level(_ctx(paper_graph), CSE(np.arange(6)))
    assert plan.sink is None
    assert not plan.spill


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


def test_plan_aggregate_even_vs_predicted(paper_graph):
    planner = _planner(paper_graph, parts_per_worker=2)
    cse = CSE(np.arange(6))
    ctx = _ctx(paper_graph)

    app = MotifCounting(3)  # mapper cost tracks candidates
    plan = planner.plan_aggregate(ctx, app, cse)
    assert isinstance(plan, AggregatePlan)
    assert plan.costs is not None

    class Uniform(MotifCounting):
        mapper_cost_tracks_candidates = False

    plan = planner.plan_aggregate(ctx, Uniform(3), cse)
    assert plan.costs is None
    assert plan.part_bounds == [(0, 3), (3, 6)]
