"""Level planning — stage 1 of the plan → execute → aggregate pipeline.

Before each expansion the planner produces a :class:`LevelPlan`: the
predicted per-embedding candidate costs (Figure 8), the balanced part
bounds derived from them, the predicted size of the next level, the
guard check against ``max_embeddings``, and the storage decision (memory
vs spilling sink, via :class:`repro.storage.StoragePolicy`).  Before each
aggregation it produces the analogous :class:`AggregatePlan` for the
mapper parts.

This logic used to be inlined in ``KaleidoEngine.run()``; pulling it out
gives every executor the same deterministic work decomposition and makes
the planning stage independently testable and timeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..balance.partition import balanced_parts
from ..balance.predict import IOPlan, predict_edge_costs, predict_vertex_costs
from ..errors import PlanError
from ..graph.graph import Graph
from .api import EngineContext, MiningApplication
from .cse import CSE
from .explore import InMemorySink, LevelSink, even_parts
from .restrictions import (
    PatternGather,
    RestrictionSet,
    compile_restrictions,
    pattern_gathers,
)

__all__ = ["LevelPlan", "AggregatePlan", "Planner"]


@dataclass
class LevelPlan:
    """One exploration iteration's plan: how to cut, where to write."""

    #: CSE depth before the expansion (the level being extended).
    depth: int
    #: Embedding count of the level being extended.
    size: int
    #: Predicted per-embedding candidate counts, or None when prediction
    #: is off (the Fig.-17 baseline splits evenly instead).
    costs: np.ndarray | None
    #: Contiguous part bounds over the level, one task per part.
    part_bounds: list[tuple[int, int]]
    #: Predicted entry count of the next level (sink sizing).
    predicted_entries: int
    #: Whether the new level goes to disk.
    spill: bool
    #: The sink to expand into; None means plain in-memory (storage_mode
    #: "memory", where no policy is consulted at all).
    sink: LevelSink | None
    #: The gather-and-probe descriptor for the vertex this level binds
    #: (see :func:`~repro.core.restrictions.pattern_gathers`), or None
    #: when the app's query pattern is not complete and uniformly
    #: labelled, or the level is past the pattern: the generic canonical
    #: expansion then runs.
    pattern_gather: PatternGather | None = None
    #: The storage policy's part-size choice for this level when it
    #: spills; None for in-memory levels.
    io_plan: IOPlan | None = None

    @property
    def num_parts(self) -> int:
        return len(self.part_bounds)


@dataclass
class AggregatePlan:
    """One aggregation pass's plan: mapper part bounds over the top level."""

    size: int
    costs: np.ndarray | None
    part_bounds: list[tuple[int, int]]

    @property
    def num_parts(self) -> int:
        return len(self.part_bounds)


class Planner:
    """Produces per-level and per-aggregation plans for the engine."""

    def __init__(
        self,
        graph: Graph,
        policy,
        *,
        workers: int = 1,
        parts_per_worker: int = 4,
        use_prediction: bool = True,
        storage_mode: str = "auto",
        max_embeddings: int | None = None,
    ) -> None:
        self.graph = graph
        self.policy = policy
        self.workers = workers
        self.parts_per_worker = parts_per_worker
        self.use_prediction = use_prediction
        self.storage_mode = storage_mode
        self.max_embeddings = max_embeddings
        #: The active app's per-position pattern gathers, set by the
        #: engine at the start of each run from :meth:`pattern_gathers`
        #: (empty between runs and for apps without a complete, uniformly
        #: labelled query pattern).
        self.active_gathers: dict[int, PatternGather] = {}
        self._pattern_cache: dict[object, RestrictionSet] = {}

    def pattern_restrictions(self, app: MiningApplication) -> RestrictionSet | None:
        """Compile (and memoise) the app's query-pattern restriction set.

        Apps expose their pattern through
        :meth:`~repro.core.api.MiningApplication.query_pattern`; apps
        that mine all patterns at once (FSM, motif counting) return
        None and get no pattern-level restrictions.
        """
        pattern = app.query_pattern()
        if pattern is None:
            return None
        cached = self._pattern_cache.get(pattern)
        if cached is None:
            cached = compile_restrictions(pattern)
            self._pattern_cache[pattern] = cached
        return cached

    def pattern_gathers(self, app: MiningApplication) -> dict[int, PatternGather]:
        """The app's per-position gather descriptors: non-empty only for a
        vertex-induced app whose query pattern is complete with every
        label equal (clique discovery, triangle counting, matching K_k)."""
        rset = self.pattern_restrictions(app)
        if rset is None or app.induced != "vertex":
            return {}
        return pattern_gathers(app.query_pattern(), rset)

    @property
    def num_parts(self) -> int:
        """Task granularity: parts per level."""
        return max(1, self.workers * self.parts_per_worker)

    # ------------------------------------------------------------------
    def predict_costs(self, ctx: EngineContext, cse: CSE) -> np.ndarray | None:
        """Figure-8 candidate-size prediction over the top level."""
        if not self.use_prediction:
            return None
        if ctx.edge_index is not None:
            return predict_edge_costs(ctx.edge_index, cse)
        return predict_vertex_costs(self.graph, cse)

    def plan_level(self, ctx: EngineContext, cse: CSE) -> LevelPlan:
        """Plan the next expansion; raises :class:`PlanError` on the guard."""
        costs = self.predict_costs(ctx, cse)
        if (
            self.max_embeddings is not None
            and costs is not None
            and int(costs.sum()) > self.max_embeddings
        ):
            raise PlanError(
                f"next level predicted at {int(costs.sum()):,} embeddings, "
                f"above the max_embeddings guard of {self.max_embeddings:,}"
            )
        if costs is not None:
            predicted_entries = int(costs.sum())
        else:
            predicted_entries = cse.size() * max(1, int(self.graph.average_degree))
        sink: LevelSink | None = None
        spill = False
        io_plan: IOPlan | None = None
        if self.storage_mode != "memory":
            # The emitted level stores ids of the exploration's id space:
            # edge ids for edge-induced apps, vertex ids otherwise.  Its
            # dtype drives both the sink's storage width and the
            # bytes-per-entry the spill decision sizes with.
            dtype = (
                ctx.edge_index.id_dtype
                if ctx.edge_index is not None
                else self.graph.id_dtype
            )
            sink = self.policy.sink_for_next_level(
                cse, predicted_entries, bytes_per_entry=dtype.itemsize, dtype=dtype
            )
            spill = not isinstance(sink, InMemorySink)
            if spill:
                io_plan = getattr(self.policy, "last_io_plan", None)
        # When the level spills, each expansion part becomes one on-disk
        # part — so the policy's part size, not the fixed
        # parts-per-worker knob, sets the cut (bounded to keep task
        # overhead sane on huge levels).
        num_parts = self.num_parts
        if io_plan is not None and predicted_entries > 0:
            target = math.ceil(predicted_entries / io_plan.part_entries)
            num_parts = max(num_parts, min(target, 64 * max(1, self.workers)))
        if costs is not None:
            part_bounds = balanced_parts(costs, num_parts)
        else:
            part_bounds = even_parts(cse.size(), num_parts)
        return LevelPlan(
            depth=cse.depth,
            size=cse.size(),
            costs=costs,
            part_bounds=part_bounds,
            predicted_entries=predicted_entries,
            spill=spill,
            sink=sink,
            # This expansion binds pattern position `depth` (0-based).
            pattern_gather=self.active_gathers.get(cse.depth),
            io_plan=io_plan,
        )

    def plan_aggregate(
        self, ctx: EngineContext, app: MiningApplication, cse: CSE
    ) -> AggregatePlan:
        """Plan the mapper parts over the top level.

        Parts follow the candidate-size prediction only when the app's
        Mapper cost tracks candidate counts (motif counting expands every
        embedding on the fly — the Figure-17 balance effect); otherwise
        per-embedding cost is uniform and an even count split is the
        better balance.
        """
        costs = (
            self.predict_costs(ctx, cse)
            if app.mapper_cost_tracks_candidates
            else None
        )
        if costs is not None:
            part_bounds = balanced_parts(costs, self.num_parts)
        else:
            part_bounds = even_parts(cse.size(), self.num_parts)
        return AggregatePlan(size=cse.size(), costs=costs, part_bounds=part_bounds)
