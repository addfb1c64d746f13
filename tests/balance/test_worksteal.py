"""Unit tests for the work-stealing scheduler model."""

import time

import pytest

from repro.balance import Schedule, replay, simulate_work_stealing, utilization_series
from repro.core.executor import SerialExecutor


def test_single_worker_serial():
    schedule = simulate_work_stealing([1.0, 2.0, 3.0], 1)
    assert schedule.span_seconds == pytest.approx(6.0)
    assert schedule.busy_seconds == pytest.approx(6.0)
    assert schedule.utilization == pytest.approx(1.0)


def test_even_tasks_scale_ideally():
    durations = [1.0] * 8
    for workers in (2, 4, 8):
        schedule = simulate_work_stealing(durations, workers)
        assert schedule.span_seconds == pytest.approx(8.0 / workers)


def test_skewed_tasks_bound_by_largest():
    schedule = simulate_work_stealing([10.0, 1.0, 1.0, 1.0], 4)
    assert schedule.span_seconds == pytest.approx(10.0)
    assert schedule.utilization < 0.4


def test_work_stealing_fills_idle_workers():
    # Queue order: long task first; the other workers drain the tail.
    schedule = simulate_work_stealing([4.0] + [1.0] * 8, 3)
    busy = schedule.worker_busy()
    assert max(busy) == pytest.approx(4.0)
    assert schedule.span_seconds == pytest.approx(4.0)


def test_deterministic():
    a = simulate_work_stealing([3.0, 1.0, 2.0, 2.0], 2)
    b = simulate_work_stealing([3.0, 1.0, 2.0, 2.0], 2)
    assert [(i.worker, i.start, i.end) for i in a.intervals] == [
        (i.worker, i.start, i.end) for i in b.intervals
    ]


def test_zero_and_negative_durations_clamped():
    schedule = simulate_work_stealing([0.0, -1.0, 2.0], 2)
    assert schedule.span_seconds == pytest.approx(2.0)


def test_invalid_workers():
    with pytest.raises(ValueError):
        simulate_work_stealing([1.0], 0)


def test_empty_tasks():
    schedule = simulate_work_stealing([], 4)
    assert schedule.span_seconds == 0.0
    assert schedule.utilization == 1.0


def test_utilization_series_full_load():
    schedule = simulate_work_stealing([1.0] * 4, 2)
    series = utilization_series([schedule], bins=4)
    assert series
    assert all(u == pytest.approx(1.0) for _, u in series)


def test_utilization_series_tail_idle():
    schedule = simulate_work_stealing([4.0, 1.0], 2)
    series = utilization_series([schedule], bins=8)
    # Early bins fully utilised, late bins half (one worker idle).
    assert series[0][1] == pytest.approx(1.0)
    assert series[-1][1] == pytest.approx(0.5)


def test_utilization_series_multiphase():
    s1 = simulate_work_stealing([1.0] * 2, 2)
    s2 = simulate_work_stealing([2.0], 2)
    series = utilization_series([s1, s2], bins=6)
    assert series[0][1] > series[-1][1]


def test_utilization_series_empty():
    assert utilization_series([], bins=4) == []


def test_replay_of_a_serial_report():
    """``replay`` puts a measured schedule's interval lengths, in task
    order, through the work-stealing model."""

    def task(value, delay):
        def run():
            time.sleep(delay)
            return value

        return run

    delays = [0.004, 0.001, 0.002, 0.001]
    report = SerialExecutor().run([task(i, d) for i, d in enumerate(delays)])
    assert report.results == [0, 1, 2, 3]
    measured = report.schedule
    assert measured.num_workers == 1
    replayed, empty = replay([measured, Schedule(num_workers=1)], 2)
    assert replayed == simulate_work_stealing(
        [iv.end - iv.start for iv in measured.intervals], 2
    )
    assert replayed.num_workers == empty.num_workers == 2
    assert {iv.worker for iv in replayed.intervals} == {0, 1}
    assert replayed.busy_seconds == pytest.approx(measured.busy_seconds)
    assert replayed.span_seconds < measured.span_seconds
    assert empty.intervals == []
