"""Pluggable part executors — stage 2 of the plan → execute → aggregate
pipeline.

The planner (:mod:`repro.core.plan`) cuts a level into contiguous parts;
an executor runs one task per part and hands the per-part results back in
*part order*, whatever order they finished in.  Three executors ship:

* :class:`SerialExecutor` — runs parts one after another on the calling
  thread and reports the real one-worker timeline.
* :class:`ThreadedExecutor` — a :class:`concurrent.futures.ThreadPoolExecutor`
  backed executor.  Parts run concurrently (numpy candidate kernels and the
  spill I/O release the GIL); completed parts are delivered to the caller's
  ``on_result`` callback from the coordinating thread as they finish, so
  sinks never need locks, and the reported schedule carries the measured
  wall-clock intervals.  Like the paper's Kaleido, real parallelism is
  per-thread parts over one shared graph in one process.
* :class:`SimulatedSchedule` — wraps another executor (serial by default)
  and replays its measured part durations through the deterministic
  work-stealing model (:func:`repro.balance.simulate_work_stealing`).
  This is the engine default and preserves the modelled-parallelism
  behaviour every Fig. 14/17/18 benchmark is built on.

Tasks must be pure functions of their part (no shared mutable state) so an
executor may run them in any order; result merging is deterministic because
it always happens in part-index order.
"""

from __future__ import annotations

import threading
import time
from concurrent import futures as _futures
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..balance.worksteal import Schedule, TaskInterval, simulate_work_stealing
from ..obs.trace import Tracer

__all__ = [
    "ExecutionReport",
    "PartExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "SimulatedSchedule",
    "emit_part_spans",
    "resolve_executor",
    "EXECUTOR_CHOICES",
]

#: Called with ``(part_index, result)`` as each part completes — possibly
#: out of part order for concurrent executors, but always from the
#: coordinating thread.
ResultCallback = Callable[[int, Any], None]


@dataclass
class ExecutionReport:
    """What one executor run produced.

    ``results`` and ``durations`` are indexed by *task order* (part index),
    regardless of the order parts completed in.
    """

    results: list[Any] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    schedule: Schedule = field(default_factory=lambda: Schedule(num_workers=1))


def emit_part_spans(
    tracer: "Tracer | None",
    schedule: Schedule,
    phase: str,
    base: float,
) -> None:
    """Emit one ``part`` complete-span per schedule interval.

    Each interval becomes a span on its worker's track (``worker-N``),
    offset by ``base`` — the tracer time at which the executor run
    started — so the worker tracks line up with the engine's stack spans
    in the exported timeline.  For the work-stealing replay the interval
    times are *modelled*, which is exactly the Fig.-17/18 view the
    benchmarks plot; for the thread pool they are measured wall clock.
    """
    if tracer is None or not tracer.enabled:
        return
    for interval in schedule.intervals:
        tracer.complete(
            "part",
            start=base + interval.start,
            end=base + interval.end,
            track=f"worker-{interval.worker}",
            parent=phase,
            task=interval.task_index,
            worker=interval.worker,
        )


class PartExecutor:
    """Runs per-part tasks and reports results in deterministic part order.

    ``tracer``/``phase`` are the observability hooks: when a real tracer
    is passed, the executor emits one ``part`` span per schedule interval
    on a per-worker track (via :func:`emit_part_spans`) after the run.
    """

    name = "base"

    def run(
        self,
        tasks: Iterable[Callable[[], Any]],
        workers: int = 1,
        on_result: ResultCallback | None = None,
        tracer: "Tracer | None" = None,
        phase: str = "execute",
    ) -> ExecutionReport:  # pragma: no cover - protocol
        raise NotImplementedError

    def close(self) -> None:
        """Release executor-held resources (worker pools).  Idempotent."""


class SerialExecutor(PartExecutor):
    """Runs every part on the calling thread, in part order."""

    name = "serial"

    def run(
        self,
        tasks: Iterable[Callable[[], Any]],
        workers: int = 1,
        on_result: ResultCallback | None = None,
        tracer: "Tracer | None" = None,
        phase: str = "execute",
    ) -> ExecutionReport:
        base = tracer.now() if tracer is not None and tracer.enabled else 0.0
        report = ExecutionReport(schedule=Schedule(num_workers=1))
        clock = 0.0
        for index, task in enumerate(tasks):
            started = time.perf_counter()
            result = task()
            elapsed = time.perf_counter() - started
            report.results.append(result)
            report.durations.append(elapsed)
            report.schedule.intervals.append(
                TaskInterval(worker=0, start=clock, end=clock + elapsed, task_index=index)
            )
            clock += elapsed
            if on_result is not None:
                on_result(index, result)
        emit_part_spans(tracer, report.schedule, phase, base)
        return report


class SimulatedSchedule(PartExecutor):
    """Work-stealing replay over another executor's measured durations.

    The inner executor (serial by default) produces the part results; the
    reported schedule is the deterministic work-stealing replay of its part
    durations onto ``workers`` modelled workers.  It is the default, so
    the simulated-parallel benchmarks (Fig. 14/17/18) model ``workers``
    workers on any box.
    """

    name = "simulated"

    def __init__(self, inner: PartExecutor | None = None) -> None:
        self.inner = inner if inner is not None else SerialExecutor()

    def run(
        self,
        tasks: Iterable[Callable[[], Any]],
        workers: int = 1,
        on_result: ResultCallback | None = None,
        tracer: "Tracer | None" = None,
        phase: str = "execute",
    ) -> ExecutionReport:
        # The inner executor runs untraced: the part spans that matter
        # are the replayed (modelled-parallel) intervals, emitted below.
        base = tracer.now() if tracer is not None and tracer.enabled else 0.0
        report = self.inner.run(tasks, workers=1, on_result=on_result)
        report.schedule = simulate_work_stealing(report.durations, workers)
        emit_part_spans(tracer, report.schedule, phase, base)
        return report


class ThreadedExecutor(PartExecutor):
    """Real thread-pool execution of parts.

    Parts are submitted as the task iterable yields them and may complete
    out of order; ``on_result`` fires from the coordinating thread on each
    completion, and the final report is re-ordered by part index.  The
    schedule holds the measured wall-clock intervals, with each pool thread
    mapped to a stable worker slot.

    The worker pool *persists across* ``run`` calls: it is created
    lazily on the first run and only released by :meth:`close` — per-run
    pool spin-up is pure overhead once an executor serves many runs of a
    reused engine.  The pool is sized to each run's ``workers`` and
    transparently rebuilt when an *idle* executor is asked for a
    different size; a run that overlaps another (``submit`` is
    thread-safe) shares the pool as it is.  A failing run cancels only
    its own queued parts — the pool survives for concurrent and future
    runs.
    """

    name = "threads"

    def __init__(self) -> None:
        self._pool: _futures.ThreadPoolExecutor | None = None  # guarded-by: _pool_lock
        self._pool_size = 0  # guarded-by: _pool_lock
        self._active_runs = 0  # guarded-by: _pool_lock
        self._pool_lock = threading.Lock()

    @property
    def pool_size(self) -> int:
        """Current pool capacity (0 before first use / after close)."""
        return self._pool_size

    def _acquire_pool(self, pool_size: int) -> tuple[_futures.ThreadPoolExecutor, int]:
        """Get the persistent pool, (re)building it when allowed.

        A size mismatch only rebuilds when no other run is in flight;
        otherwise the existing pool is shared as-is (capacity is a
        resource bound, not a correctness knob).
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = _futures.ThreadPoolExecutor(
                    max_workers=pool_size, thread_name_prefix="kaleido-part"
                )
                self._pool_size = pool_size
            elif pool_size != self._pool_size and self._active_runs == 0:
                self._pool.shutdown(wait=True)
                self._pool = _futures.ThreadPoolExecutor(
                    max_workers=pool_size, thread_name_prefix="kaleido-part"
                )
                self._pool_size = pool_size
            self._active_runs += 1
            return self._pool, self._pool_size

    def _release_pool(self) -> None:
        with self._pool_lock:
            self._active_runs -= 1

    def close(self) -> None:
        """Shut the persistent pool down (idempotent).

        Must not be called while a run is in flight; a later ``run``
        lazily builds a fresh pool, so a closed executor remains usable.
        """
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
                self._pool_size = 0

    def run(
        self,
        tasks: Iterable[Callable[[], Any]],
        workers: int = 1,
        on_result: ResultCallback | None = None,
        tracer: "Tracer | None" = None,
        phase: str = "execute",
    ) -> ExecutionReport:
        requested = max(1, workers)
        base = tracer.now() if tracer is not None and tracer.enabled else 0.0
        epoch = time.perf_counter()

        def timed(index: int, task: Callable[[], Any]):
            started = time.perf_counter()
            result = task()
            ended = time.perf_counter()
            return index, result, started - epoch, ended - epoch, threading.get_ident()

        pool, pool_size = self._acquire_pool(requested)

        # Bounded in-flight window: the task iterable decodes a part's
        # embeddings lazily as it is pulled, so submitting everything up
        # front would materialise the whole level (defeating the spilled
        # streaming bound).  Keep at most ~2x the pool in flight, pulling
        # the next task only as completions drain.
        window = 2 * pool_size
        task_iter = enumerate(tasks)
        records: dict[int, tuple[Any, float, float, int]] = {}

        def fill(pending: set) -> None:
            while len(pending) < window:
                try:
                    index, task = next(task_iter)
                except StopIteration:
                    return
                pending.add(pool.submit(timed, index, task))

        pending: set = set()
        try:
            fill(pending)
            while pending:
                done, pending = _futures.wait(
                    pending, return_when=_futures.FIRST_COMPLETED
                )
                for future in done:
                    index, result, started, ended, ident = future.result()
                    records[index] = (result, started, ended, ident)
                    if on_result is not None:
                        on_result(index, result)
                fill(pending)
        except BaseException:
            # Cancel only this run's queued parts; the shared pool and
            # any concurrent runs on it stay healthy.
            for future in pending:
                future.cancel()
            raise
        finally:
            self._release_pool()

        report = ExecutionReport(schedule=Schedule(num_workers=pool_size))
        slots: dict[int, int] = {}
        for index in range(len(records)):
            result, started, ended, ident = records[index]
            slot = slots.setdefault(ident, len(slots))
            report.results.append(result)
            report.durations.append(ended - started)
            report.schedule.intervals.append(
                TaskInterval(worker=slot, start=started, end=ended, task_index=index)
            )
        emit_part_spans(tracer, report.schedule, phase, base)
        return report


#: Executor specs accepted by the engine and the CLI's ``--executor`` flag.
EXECUTOR_CHOICES = ("serial", "threads")


def resolve_executor(spec: "str | PartExecutor") -> PartExecutor:
    """Turn an executor spec (name or instance) into a :class:`PartExecutor`.

    ``"serial"`` is the default: serial execution with the work-stealing
    replay (:class:`SimulatedSchedule` around :class:`SerialExecutor`).
    ``"threads"`` runs parts on a real thread pool sized to the engine's
    worker count.
    """
    if isinstance(spec, PartExecutor):
        return spec
    if spec == "serial":
        return SimulatedSchedule(SerialExecutor())
    if spec == "threads":
        return ThreadedExecutor()
    raise ValueError(
        f"unknown executor {spec!r} (choose from {', '.join(EXECUTOR_CHOICES)})"
    )
