"""Unit tests for the pluggable part executors."""

import threading
import time

import pytest

from repro.core.executor import (
    SerialExecutor,
    ThreadedExecutor,
    resolve_executor,
)


def _make_tasks(values, delays=None):
    delays = delays or [0.0] * len(values)

    def make(v, d):
        def task():
            if d:
                time.sleep(d)
            return v

        return task

    return [make(v, d) for v, d in zip(values, delays)]


def test_serial_results_and_callbacks_in_order():
    seen = []
    report = SerialExecutor().run(
        _make_tasks([10, 20, 30]), on_result=lambda i, r: seen.append((i, r))
    )
    assert report.results == [10, 20, 30]
    assert seen == [(0, 10), (1, 20), (2, 30)]
    intervals = report.schedule.intervals
    assert [iv.task_index for iv in intervals] == [0, 1, 2]
    assert report.schedule.num_workers == 1
    # Serial timeline: intervals laid back to back on one worker.
    assert all(iv.worker == 0 for iv in intervals)
    for prev, nxt in zip(intervals, intervals[1:]):
        assert nxt.start >= prev.end - 1e-12


def test_threaded_results_ordered_despite_completion_order():
    # First task is the slowest, so it completes last — results must
    # still come back in part order.
    delays = [0.05, 0.0, 0.0, 0.0]
    seen = []
    report = ThreadedExecutor().run(
        _make_tasks([0, 1, 2, 3], delays),
        workers=4,
        on_result=lambda i, r: seen.append(i),
    )
    assert report.results == [0, 1, 2, 3]
    assert sorted(seen) == [0, 1, 2, 3]
    assert report.schedule.num_workers == 4
    assert len(report.schedule.intervals) == 4


def test_threaded_uses_multiple_workers():
    delays = [0.02] * 4
    report = ThreadedExecutor().run(_make_tasks(list(range(4)), delays), workers=4)
    workers_used = {iv.worker for iv in report.schedule.intervals}
    assert len(workers_used) > 1
    # Real overlap: the span is shorter than the serial sum.
    assert report.schedule.span_seconds < report.schedule.busy_seconds


def test_threaded_bounded_inflight_window():
    """The task iterable is pulled lazily: at most ~2x the pool size of
    tasks exist without having completed, so a lazily-decoding generator
    never materialises the whole level up front."""
    pool = 2
    lock = threading.Lock()
    created = 0
    completed = 0
    max_outstanding = 0

    def make_task(i):
        def task():
            nonlocal completed
            time.sleep(0.001)
            with lock:
                completed += 1
            return i

        return task

    def tasks():
        nonlocal created, max_outstanding
        for i in range(40):
            with lock:
                created += 1
                max_outstanding = max(max_outstanding, created - completed)
            yield make_task(i)

    report = ThreadedExecutor().run(tasks(), workers=pool)
    assert report.results == list(range(40))
    assert max_outstanding <= 2 * pool


def test_threaded_propagates_task_errors():
    def boom():
        raise RuntimeError("part failed")

    with pytest.raises(RuntimeError, match="part failed"):
        ThreadedExecutor().run([boom], workers=2)


def test_resolve_executor():
    assert isinstance(resolve_executor("serial"), SerialExecutor)
    assert isinstance(resolve_executor("threads"), ThreadedExecutor)
    inner = SerialExecutor()
    assert resolve_executor(inner) is inner
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor("fibers")


def test_resolve_executor_rejects_processes():
    with pytest.raises(ValueError, match=r"'processes' \(choose from serial, threads\)"):
        resolve_executor("processes")


def test_empty_task_list():
    for executor in (SerialExecutor(), ThreadedExecutor()):
        report = executor.run([], workers=2)
        assert report.results == []
        assert report.schedule.span_seconds == 0.0
