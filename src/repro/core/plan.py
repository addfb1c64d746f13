"""Level planning — stage 1 of the plan → execute → aggregate pipeline.

Before each expansion the planner produces a :class:`LevelPlan`: the
per-embedding candidate costs (Figure 8, read from the kernel's gather
lengths), the balanced part bounds derived from them, the predicted size
of the next level, the guard check against ``max_embeddings``, and the
sink the run's :class:`repro.storage.StoragePolicy` hands back (memory
or spilling) — except on the run's *folded* level (``fold_depth``), the
last one, which is mapped as it is produced and never stored, so it
takes no sink and no I/O-plan part cut.  A level that is stored and
mapped (``map_every_level``: the application aggregates every
iteration) takes no I/O-plan part cut either, since its mapper's part
cut shapes the application's result.  The engine builds one planner per
run, with that run's guard, pattern gathers, folded depth and mapping.

Keeping planning out of ``KaleidoEngine.run()`` gives every executor the
same deterministic work decomposition and makes the planning stage
independently testable and timeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..balance.partition import balanced_parts
from ..balance.predict import IOPlan, predict_costs
from ..errors import PlanError
from ..graph.graph import Graph
from .api import EngineContext, MiningApplication
from .cse import CSE
from .explore import InMemorySink, LevelSink, even_parts
from .kernels import edge_kernel_context, vertex_kernel_context
from .restrictions import (
    PatternGather,
    RestrictionSet,
    compile_restrictions,
    pattern_gathers,
)

__all__ = ["LevelPlan", "Planner", "check_embedding_cap"]


def check_embedding_cap(value: Any) -> None:
    """Raise ``ValueError`` unless ``value`` is a valid ``max_embeddings``:
    ``None`` (no cap) or an ``int`` >= 1 (``bool`` is not a count).
    :meth:`~repro.core.engine.KaleidoEngine.run` and the service's
    budget and quota types all check here, before any level is built."""
    if value is not None and (
        not isinstance(value, int) or isinstance(value, bool) or value < 1
    ):
        raise ValueError(
            f"max_embeddings must be null or an integer >= 1, got {value!r}"
        )


@dataclass
class LevelPlan:
    """One exploration iteration's plan: how to cut, where to write."""

    #: CSE depth before the expansion (the level being extended).
    depth: int
    #: Embedding count of the level being extended.
    size: int
    #: Per-embedding candidate costs: the pairs the kernel gathers for
    #: each row, an upper bound on its children.  They always feed the
    #: guard and ``predicted_entries``; the part cut follows them only
    #: with prediction on (the Fig.-17 baseline splits evenly).
    costs: np.ndarray
    #: Contiguous part bounds over the level, one task per part.
    part_bounds: list[tuple[int, int]]
    #: Predicted entry count of the next level, ``costs.sum()`` (sink
    #: and spill-part sizing).
    predicted_entries: int
    #: Whether the new level goes to disk.
    spill: bool
    #: The sink to expand into, as chosen by the storage policy; None on
    #: the folded level.
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
    #: Whether this is the run's folded level: its parts map their
    #: children as they are produced, and nothing is stored.
    fold: bool = False
    #: Whether the level's parts map their children (the folded level,
    #: or every level under ``map_every_level``).
    mapped: bool = False

    @property
    def num_parts(self) -> int:
        return len(self.part_bounds)


class Planner:
    """Produces one run's per-level plans.

    ``max_embeddings`` is the run's exploration guard (None: no guard);
    ``gathers`` are the run's per-position pattern gathers (from
    :meth:`pattern_gathers`; empty for apps without a complete,
    uniformly labelled query pattern); ``fold_depth`` is the CSE depth
    whose expansion is folded (None: every level is stored);
    ``map_every_level`` maps every stored level as it is produced.
    """

    def __init__(
        self,
        graph: Graph,
        policy,
        *,
        workers: int = 1,
        use_prediction: bool = True,
        max_embeddings: int | None = None,
        gathers: dict[int, PatternGather] | None = None,
        fold_depth: int | None = None,
        map_every_level: bool = False,
    ) -> None:
        self.graph = graph
        self.policy = policy
        self.workers = workers
        self.use_prediction = use_prediction
        self.max_embeddings = max_embeddings
        self.gathers = gathers or {}
        self.fold_depth = fold_depth
        self.map_every_level = map_every_level

    @staticmethod
    def pattern_restrictions(app: MiningApplication) -> RestrictionSet | None:
        """The app's query-pattern restriction set, or None for apps that
        mine all patterns at once (FSM, motif counting); compiled once
        per pattern by :func:`~repro.core.restrictions.compile_restrictions`."""
        pattern = app.query_pattern()
        return None if pattern is None else compile_restrictions(pattern)

    @staticmethod
    def pattern_gathers(app: MiningApplication) -> dict[int, PatternGather]:
        """The app's per-position gather descriptors: non-empty only for a
        vertex-induced app whose query pattern is complete with every
        label equal (clique discovery, triangle counting, matching K_k)."""
        rset = Planner.pattern_restrictions(app)
        if rset is None or app.induced != "vertex":
            return {}
        return pattern_gathers(app.query_pattern(), rset)

    # ------------------------------------------------------------------
    def predict_costs(
        self, ctx: EngineContext, cse: CSE, gather: PatternGather | None = None
    ) -> np.ndarray:
        """Figure-8 candidate-size prediction over the top level: each
        row's kernel gather length under ``gather`` (None: the canonical
        expansion), see :func:`~repro.balance.predict.predict_costs`."""
        if ctx.edge_index is not None:
            kctx = edge_kernel_context(ctx.edge_index)
        else:
            kctx = vertex_kernel_context(self.graph)
        return predict_costs(kctx, cse, gather)

    def plan_level(self, ctx: EngineContext, cse: CSE) -> LevelPlan:
        """Plan the next expansion; raises :class:`PlanError` on the guard
        (the folded level's prediction is guarded too)."""
        # This expansion binds pattern position `depth` (0-based).
        gather = self.gathers.get(cse.depth)
        costs = self.predict_costs(ctx, cse, gather)
        predicted_entries = int(costs.sum())
        if self.max_embeddings is not None and predicted_entries > self.max_embeddings:
            raise PlanError(
                f"next level predicted at {predicted_entries:,} embeddings, "
                f"above the max_embeddings guard of {self.max_embeddings:,}"
            )
        # The folded level is never stored: it asks the policy for nothing.
        fold = cse.depth == self.fold_depth
        sink: LevelSink | None = None
        if not fold:
            # The emitted level stores ids of the exploration's id space:
            # edge ids for edge-induced apps, vertex ids otherwise.  Its
            # dtype drives both the sink's storage width and the
            # bytes-per-entry the spill decision sizes with.
            dtype = (ctx.edge_index or self.graph).id_dtype
            sink = self.policy.sink_for_next_level(
                cse, predicted_entries, bytes_per_entry=dtype.itemsize, dtype=dtype
            )
        spill = sink is not None and not isinstance(sink, InMemorySink)
        io_plan: IOPlan | None = self.policy.last_io_plan if spill else None
        # One cost-balanced part per worker.  A spilled level's parts
        # are its on-disk parts, so the policy's part size may raise the
        # cut (bounded to keep task overhead sane on huge levels).  A
        # mapped level keeps the per-worker cut in every storage mode:
        # its parts shape the result (FSM's short-circuited supports).
        mapped = fold or self.map_every_level
        num_parts = self.workers
        if io_plan is not None and predicted_entries > 0 and not mapped:
            target = math.ceil(predicted_entries / io_plan.part_entries)
            num_parts = max(num_parts, min(target, 64 * max(1, self.workers)))
        if self.use_prediction:
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
            pattern_gather=gather,
            io_plan=io_plan,
            fold=fold,
            mapped=mapped,
        )
