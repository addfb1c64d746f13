"""Hybrid half-memory-half-disk storage policy (Section 4.1).

Glue between the explorer and the spill machinery:

* :class:`SpillingSink` — a :class:`repro.core.explore.LevelSink` that
  routes each exploration part through the writing queue (carrying the
  part index, so out-of-order submission from a concurrent executor still
  assembles a deterministic level) and finishes into a
  :class:`SpilledLevel`.
* :func:`spill_level` — demote an existing in-memory level to disk.
* :class:`StoragePolicy` — decides, before each expansion, whether the new
  level goes to memory or disk, given the memory budget and a size
  prediction for the next level.  The decision (:meth:`should_spill`) and
  the sink construction (:meth:`make_sink`) are separate so the planner
  can record the choice in its :class:`~repro.core.plan.LevelPlan`.

The policy is also the engine's degradation lever: when the device runs
out of space mid-level (:class:`~repro.errors.DiskFullError`) or the
memory budget cannot be honoured, :meth:`StoragePolicy.degrade` steps the
I/O mode down to synchronous writes (no background writer, so at most one
part is ever buffered) and the engine re-plans the failed iteration under
the reduced mode before giving up.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..balance.predict import IOPlan, plan_io
from ..core.cse import CSE, InMemoryLevel, Level
from ..core.explore import InMemorySink, LevelSink
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .meter import MemoryBudget, MemoryMeter
from .queue import WritingQueue
from .retry import RetryPolicy
from .spill import PartStore, SpilledLevel

__all__ = ["SpillingSink", "spill_level", "StoragePolicy"]


class SpillingSink(LevelSink):
    """Writes expansion parts to disk through the writing queue.

    ``on_finish`` runs once the level has landed, so a level whose first
    attempt aborted and was re-planned is reported once, not per sink.
    """

    def __init__(
        self,
        store: PartStore,
        synchronous: bool = False,
        tag: str = "vert",
        dtype: np.dtype | None = None,
        on_finish: Callable[[], None] | None = None,
    ) -> None:
        self.store = store
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._queue = WritingQueue(store, synchronous=synchronous)
        self._tag = tag
        self._on_finish = on_finish

    def write_part(self, vert: np.ndarray, index: int | None = None) -> None:
        self._queue.submit(vert, tag=self._tag, index=index)

    def finish(self, off: np.ndarray) -> Level:
        handles = self._queue.close()
        level = SpilledLevel(self.store, handles, off, dtype=self.dtype)
        if self._on_finish is not None:
            self._on_finish()
        return level

    def abort(self) -> None:
        """Stop the queue and delete the partial level's files."""
        self._queue.discard()


def spill_level(
    level: Level,
    store: PartStore,
    part_entries: int = 1 << 16,
) -> SpilledLevel:
    """Write an in-memory level's vertex array to disk in fixed-size parts."""
    if isinstance(level, SpilledLevel):
        return level
    vert = level.vert_array()
    handles = []
    for start in range(0, max(1, vert.shape[0]), part_entries):
        chunk = vert[start : start + part_entries]
        if chunk.shape[0] == 0 and handles:
            break
        handles.append(store.save(chunk, tag="demoted"))
    return SpilledLevel(store, handles, level.off_array(), dtype=vert.dtype)


class StoragePolicy:
    """Chooses memory vs disk for each new CSE level.

    The prediction of the next level's size (sum of predicted candidate
    counts, 4 bytes per emitted vertex as an upper bound before filtering)
    is compared against the budget headroom; when it does not fit, the new
    level is spilled — and if that is still not enough, the current top
    level is demoted too (deep explorations spill several levels, per the
    paper).
    """

    def __init__(
        self,
        budget: MemoryBudget,
        meter: MemoryMeter,
        store: PartStore | None = None,
        synchronous_io: bool = False,
        force_spill_last: bool = False,
        retry: "RetryPolicy | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.budget = budget
        self.meter = meter
        self.store = store
        self.synchronous_io = synchronous_io
        self.force_spill_last = force_spill_last
        self.retry = retry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: The part-size choice for the last spilled level (an
        #: :class:`~repro.balance.predict.IOPlan`), surfaced in the engine
        #: result's ``extra["io_plan"]``.
        self.last_io_plan: IOPlan | None = None
        if store is not None:
            # The engine constructs the store before the policy; share
            # the observability hooks so queue and retry events flow.
            store.tracer = self.tracer
            store.metrics = metrics
        self.spilled_levels = 0
        self.demoted_levels = 0
        #: Degradation steps applied so far, in order.
        self.degradations: list[str] = []

    def _ensure_store(self) -> PartStore:
        if self.store is None:
            self.store = PartStore(
                retry=self.retry, tracer=self.tracer, metrics=self.metrics
            )
        return self.store

    @property
    def io_mode(self) -> str:
        """Current write mode, ``"async"`` or ``"sync"`` (recorded per plan)."""
        return "sync" if self.synchronous_io else "async"

    def degrade(self) -> str | None:
        """Step the I/O mode down after a disk-full or budget failure.

        Returns the step applied (``"synchronous-io"`` drops the
        background writer so at most one part is ever buffered), or
        ``None`` when already fully degraded — the caller should give up
        and re-raise.
        """
        if not self.synchronous_io:
            self.synchronous_io = True
            self.degradations.append("synchronous-io")
            return "synchronous-io"
        return None

    def should_spill(self, predicted_entries: int, bytes_per_entry: int = 4) -> bool:
        """Whether the next level must go to disk."""
        if self.force_spill_last:
            return True
        predicted_bytes = predicted_entries * bytes_per_entry
        return not self.budget.fits(self.meter.current_bytes, predicted_bytes)

    def plan_io(self, predicted_entries: int, bytes_per_entry: int = 4) -> IOPlan:
        """Choose the part size for the next spilled level.

        Follows :func:`repro.balance.predict.plan_io` over the budget
        headroom; the plan is recorded on ``last_io_plan`` and traced.
        """
        plan = plan_io(
            predicted_entries,
            bytes_per_entry,
            headroom_bytes=self.budget.headroom(self.meter.current_bytes),
        )
        self.last_io_plan = plan
        if self.tracer.enabled:
            self.tracer.instant("io-plan", part_entries=plan.part_entries)
        return plan

    def make_sink(self, cse: CSE, dtype=None, io_plan: IOPlan | None = None) -> "SpillingSink":
        """Build the spilling sink, demoting the top level when pressed.

        If even the offsets of existing levels blow the budget, the
        current top level is demoted to disk as well.  ``dtype`` is the
        produced level's id storage width, recorded on the
        :class:`SpilledLevel` so empty levels reload at the right width.
        ``io_plan`` (from :meth:`plan_io`) sets the part granularity for
        the demotion.  ``spilled_levels`` counts the level when its
        sink finishes, so a degraded re-plan does not count it twice.
        """
        store = self._ensure_store()
        if self.tracer.enabled:
            self.tracer.instant("spill", depth=cse.depth, io_mode=self.io_mode)
        if not self.budget.fits(self.meter.current_bytes, 0) and cse.depth > 1:
            top = cse.levels[-1]
            if isinstance(top, InMemoryLevel):
                cse.levels[-1] = spill_level(
                    top,
                    store,
                    part_entries=(
                        io_plan.part_entries if io_plan is not None else 1 << 16
                    ),
                )
                self.demoted_levels += 1
                if self.tracer.enabled:
                    self.tracer.instant("demote", depth=cse.depth)
        return SpillingSink(
            store,
            synchronous=self.synchronous_io,
            tag=f"vert{cse.depth + 1}",
            dtype=dtype,
            on_finish=self._count_spilled_level,
        )

    def _count_spilled_level(self) -> None:
        self.spilled_levels += 1

    def sink_for_next_level(
        self,
        cse: CSE,
        predicted_entries: int,
        bytes_per_entry: int = 4,
        dtype=None,
    ) -> LevelSink:
        """Sink for the upcoming expansion, spilling when needed.

        ``dtype`` is the produced level's id storage width (the planner
        derives it from the graph / edge-index size so ids past the
        ``int32`` boundary widen instead of overflowing).  When the level
        spills, :meth:`plan_io` picks its part size first.
        """
        if not self.should_spill(predicted_entries, bytes_per_entry):
            return InMemorySink(dtype=dtype)
        io_plan = self.plan_io(predicted_entries, bytes_per_entry)
        return self.make_sink(cse, dtype=dtype, io_plan=io_plan)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
