"""Schedules, and a deterministic work-stealing scheduler model.

:class:`Schedule` is what an executor reports: the measured interval of
every part on its worker's timeline.  The paper's engine runs native
threads; a pure-Python reproduction cannot show real multi-core speedups
under the GIL, so the scalability figures (Figs. 14, 17 and 18) *model*
them: :func:`replay` takes a run's measured part times and replays them
through a work-stealing schedule — each task is claimed, in queue order,
by the worker that becomes free first, which is exactly the behaviour of
a work-stealing pool on a shared deque.  The replayed schedule yields the
makespan (modelled parallel runtime), per-worker busy times, and the
CPU-utilization time series of Figure 18.  The engine never replays: a
run reports only measured time.  DESIGN.md records this substitution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = ["TaskInterval", "Schedule", "simulate_work_stealing", "replay", "utilization_series"]


@dataclass(frozen=True)
class TaskInterval:
    """One task placed on one worker's timeline."""

    worker: int
    start: float
    end: float
    task_index: int


@dataclass
class Schedule:
    """Task intervals on ``num_workers`` worker timelines, measured or
    replayed."""

    num_workers: int
    intervals: list[TaskInterval] = field(default_factory=list)

    @property
    def span_seconds(self) -> float:
        """Makespan: when the last worker finishes."""
        return max((iv.end for iv in self.intervals), default=0.0)

    @property
    def busy_seconds(self) -> float:
        return sum(iv.end - iv.start for iv in self.intervals)

    def worker_busy(self) -> list[float]:
        busy = [0.0] * self.num_workers
        for iv in self.intervals:
            busy[iv.worker] += iv.end - iv.start
        return busy

    @property
    def utilization(self) -> float:
        """Average CPU utilization over the span (1.0 = all workers busy)."""
        span = self.span_seconds
        if span == 0:
            return 1.0
        return self.busy_seconds / (span * self.num_workers)


def simulate_work_stealing(durations: list[float], num_workers: int) -> Schedule:
    """Replay task durations through a work-stealing pool.

    Tasks are claimed in order by whichever worker becomes idle first
    (ties broken by worker id, making the schedule deterministic).
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    schedule = Schedule(num_workers=num_workers)
    heap: list[tuple[float, int]] = [(0.0, w) for w in range(num_workers)]
    heapq.heapify(heap)
    for idx, duration in enumerate(durations):
        free_at, worker = heapq.heappop(heap)
        end = free_at + max(0.0, duration)
        schedule.intervals.append(
            TaskInterval(worker=worker, start=free_at, end=end, task_index=idx)
        )
        heapq.heappush(heap, (end, worker))
    return schedule


def replay(schedules: list[Schedule], workers: int) -> list[Schedule]:
    """Replay each measured schedule's interval lengths, in task order,
    onto ``workers`` modelled workers (:func:`simulate_work_stealing`)."""
    return [
        simulate_work_stealing([iv.end - iv.start for iv in schedule.intervals], workers)
        for schedule in schedules
    ]


def utilization_series(
    schedules: list[Schedule], bins: int = 40
) -> list[tuple[float, float]]:
    """Concatenate schedules (phases) into one utilization-over-time curve.

    Returns ``(time, utilization)`` points, the Figure-18 trace.  Phases
    are laid back to back, as they execute.
    """
    segments: list[tuple[float, float, int]] = []  # (start, end, workers)
    offset = 0.0
    for schedule in schedules:
        for iv in schedule.intervals:
            segments.append((offset + iv.start, offset + iv.end, schedule.num_workers))
        offset += schedule.span_seconds
    if not segments or offset <= 0:
        return []
    width = offset / bins
    busy = [0.0] * bins
    capacity = [0.0] * bins
    # Capacity per bin comes from each phase's worker count.
    phase_offset = 0.0
    for schedule in schedules:
        start_bin = int(phase_offset / width)
        end_time = phase_offset + schedule.span_seconds
        end_bin = min(bins - 1, int(end_time / width))
        for b in range(start_bin, end_bin + 1):
            lo = max(phase_offset, b * width)
            hi = min(end_time, (b + 1) * width)
            if hi > lo:
                capacity[b] += (hi - lo) * schedule.num_workers
        phase_offset = end_time
    for start, end, _workers in segments:
        first = int(start / width)
        last = min(bins - 1, int(end / width))
        for b in range(first, last + 1):
            lo = max(start, b * width)
            hi = min(end, (b + 1) * width)
            if hi > lo:
                busy[b] += hi - lo
    out: list[tuple[float, float]] = []
    for b in range(bins):
        if capacity[b] > 0:
            out.append(((b + 0.5) * width, min(1.0, busy[b] / capacity[b])))
    return out
