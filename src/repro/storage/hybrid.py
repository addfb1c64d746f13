"""Hybrid half-memory-half-disk storage policy (Section 4.1).

Glue between the explorer and the spill machinery:

* :class:`SpillingSink` — a :class:`repro.core.explore.LevelSink` that
  saves each exploration part to disk as it arrives, keyed by its part
  index (so out-of-order delivery from a concurrent executor still
  assembles a deterministic level), and finishes into a
  :class:`SpilledLevel`.
* :func:`spill_level` — demote an existing in-memory level to disk.
* :class:`StoragePolicy` — decides, before each expansion, whether the new
  level goes to memory or disk, given the storage mode, the memory budget
  and a size prediction for the next level; the planner only records the
  sink it hands back in its :class:`~repro.core.plan.LevelPlan`.  One
  policy serves one engine run and drops that run's spill parts when it
  closes.

A storage failure mid-level aborts the sink (its parts are deleted) and
propagates out of the run; checkpoints and ``run(resume=True)`` are the
recovery path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..balance.predict import IOPlan, plan_io
from ..core.cse import CSE, InMemoryLevel, Level
from ..core.explore import InMemorySink, LevelSink
from ..errors import TransientStorageError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .checkpoint import RunCheckpoint
from .meter import MemoryBudget, MemoryMeter
from .retry import RetryPolicy
from .spill import PartHandle, PartStore, SpilledLevel

__all__ = ["SpillingSink", "spill_level", "StoragePolicy"]

#: Sink-level re-attempts on top of the store's per-syscall retries, so
#: a burst of transient faults longer than the store's budget still
#: lands the part instead of aborting the level.
_WRITE_RETRY = RetryPolicy(attempts=2)


class SpillingSink(LevelSink):
    """Saves each expansion part to disk when it is written.

    Parts go through :meth:`PartStore.save` on the calling thread (the
    executor's coordinating thread); a save the store gave up on with a
    :class:`~repro.errors.TransientStorageError` is re-attempted once
    more under :data:`_WRITE_RETRY`.  ``on_finish`` receives the level
    once it has landed, so an aborted level is never counted.
    """

    def __init__(
        self,
        store: PartStore,
        tag: str = "vert",
        dtype: np.dtype | None = None,
        on_finish: Callable[[SpilledLevel], None] | None = None,
    ) -> None:
        self.store = store
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._tag = tag
        self._on_finish = on_finish
        self._handles: dict[int, PartHandle] = {}

    def write_part(self, vert: np.ndarray, index: int) -> None:
        for attempt in range(_WRITE_RETRY.attempts):
            try:
                handle = self.store.save(vert, tag=self._tag)
                break
            except TransientStorageError:
                if attempt + 1 >= _WRITE_RETRY.attempts:
                    raise
                _WRITE_RETRY.backoff(attempt)
        self._handles[index] = handle
        if self.store.metrics is not None:
            self.store.metrics.counter("queue.parts_written").inc()

    def finish(self, off: np.ndarray) -> Level:
        handles = [self._handles[i] for i in sorted(self._handles)]
        level = SpilledLevel(self.store, handles, off, dtype=self.dtype)
        if self._on_finish is not None:
            self._on_finish(level)
        return level

    def abort(self) -> None:
        """Delete every part written so far."""
        for handle in self._handles.values():
            self.store.delete(handle)
        self._handles.clear()


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
    """Chooses memory vs disk for each new CSE level of one run.

    ``storage_mode`` is ``"memory"`` (never spill; the budget is
    ignored), ``"spill-last"`` (always spill the new level — the Table-4
    hybrid configuration) or ``"auto"``: the prediction of the next
    level's size (sum of predicted candidate counts times the id width,
    an upper bound before filtering) is compared against the budget
    headroom; when it does not fit, the new level is spilled — and if
    that is still not enough, the current top level is demoted too (deep
    explorations spill several levels, per the paper).

    :meth:`close` drops every level the policy spilled or demoted, so a
    finished run leaves no parts behind.
    """

    def __init__(
        self,
        budget: MemoryBudget,
        meter: MemoryMeter,
        store: PartStore | None = None,
        storage_mode: str = "auto",
        retry: "RetryPolicy | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.budget = budget
        self.meter = meter
        self.store = store
        self.storage_mode = storage_mode
        self.retry = retry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: The part-size choice for the last spilled level (an
        #: :class:`~repro.balance.predict.IOPlan`), surfaced in the engine
        #: result's ``extra["io_plan"]``.
        self.last_io_plan: IOPlan | None = None
        self.spilled_levels = 0
        self.demoted_levels = 0
        #: Every level this policy put on disk (spilled or demoted).
        self._levels: list[SpilledLevel] = []

    def _ensure_store(self) -> PartStore:
        if self.store is None:
            self.store = PartStore(
                retry=self.retry, tracer=self.tracer, metrics=self.metrics
            )
        return self.store

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

    def sink_for_next_level(
        self,
        cse: CSE,
        predicted_entries: int,
        bytes_per_entry: int = 4,
        dtype=None,
    ) -> LevelSink:
        """Sink for the upcoming expansion: in memory, or spilling.

        A spilling level gets its part size from :meth:`plan_io`; if even
        the existing levels blow the budget, the current top level is
        demoted to disk too, in parts of that size.  ``dtype`` is the
        produced level's id storage width (the planner derives it from
        the graph / edge-index size so ids past the ``int32`` boundary
        widen instead of overflowing), recorded on the
        :class:`SpilledLevel` so empty levels reload at the right width.
        ``spilled_levels`` counts the level when its sink finishes, so an
        aborted level is not counted.
        """
        if self.storage_mode == "memory" or (
            self.storage_mode == "auto"
            and self.budget.fits(
                self.meter.current_bytes, predicted_entries * bytes_per_entry
            )
        ):
            return InMemorySink(dtype=dtype)
        io_plan = self.plan_io(predicted_entries, bytes_per_entry)
        store = self._ensure_store()
        if self.tracer.enabled:
            self.tracer.instant("spill", depth=cse.depth)
        top = cse.levels[-1]
        if (
            not self.budget.fits(self.meter.current_bytes, 0)
            and cse.depth > 1
            and isinstance(top, InMemoryLevel)
        ):
            cse.levels[-1] = spill_level(top, store, part_entries=io_plan.part_entries)
            self._levels.append(cse.levels[-1])
            self.demoted_levels += 1
            if self.tracer.enabled:
                self.tracer.instant("demote", depth=cse.depth)
        return SpillingSink(
            store,
            tag=f"vert{cse.depth + 1}",
            dtype=dtype,
            on_finish=self._count_spilled_level,
        )

    def restore(self, checkpoints: RunCheckpoint) -> tuple[int, CSE, bytes] | None:
        """``checkpoints.latest()``, with each level that was on disk reopened
        in this policy's store and owned like a level it spilled (so
        :meth:`close` drops the links, never the checkpoint's files); in
        ``"memory"`` mode every level loads into memory."""
        store = None if self.storage_mode == "memory" else self._ensure_store()
        restored = checkpoints.latest(store)
        if restored is not None:
            levels = restored[1].levels
            self._levels.extend(level for level in levels if isinstance(level, SpilledLevel))
        return restored

    def _count_spilled_level(self, level: SpilledLevel) -> None:
        self._levels.append(level)
        self.spilled_levels += 1

    def close(self) -> None:
        """Drop every level this policy spilled or demoted (a level
        dropped already is a no-op), then remove the spill directory if
        the store created one."""
        for level in self._levels:
            level.drop()
        self._levels.clear()
        if self.store is not None:
            self.store.close()
