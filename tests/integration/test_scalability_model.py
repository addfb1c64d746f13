"""Integration: the scheduler model reproduces Figure 14's scaling shapes.

Tier-1 asserts the shapes over *fixed synthetic part durations*: the
engine supplies what is deterministic — how many parts each phase was
cut into for the worker count — and every phase is given one second of
work split evenly over its parts (plus a fixed serial reduce per
reduce the run makes), replayed through :func:`simulate_work_stealing`.
The same shapes over measured wall-clock part times, replayed with
:func:`replay`, are ``slow`` checks: they depend on the machine, not on
the code.  The engine itself reports only measured time.
"""

import pytest

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.balance.worksteal import replay, simulate_work_stealing
from repro.graph import datasets

#: Synthetic seconds of parallel work per phase / of serial reduce per
#: reduce the run makes.
PHASE_WORK = 1.0
SERIAL_REDUCE = 0.25


@pytest.fixture(scope="module")
def graph():
    return datasets.load("patent", "tiny")


def _run(graph, app, workers):
    return KaleidoEngine(graph, workers=workers).run(app)


def _replayed_seconds(graph, app, workers):
    """The run's measured part times replayed onto ``workers`` workers,
    plus its measured aggregation."""
    result = _run(graph, app, workers)
    spans = sum(s.span_seconds for s in replay(result.schedules, workers))
    return spans + result.phase_spans["aggregate_seconds"]


def _synthetic_seconds(graph, app, workers):
    """Replay the run's real part structure with fixed part durations."""
    result = _run(graph, app, workers)
    total = 0.0
    for schedule in result.schedules:
        parts = len(schedule.intervals)
        if parts:
            total += simulate_work_stealing(
                [PHASE_WORK / parts] * parts, workers
            ).span_seconds
        # An app that aggregates every iteration reduces each level.
        if app.aggregate_every_iteration:
            total += SERIAL_REDUCE
    if not app.aggregate_every_iteration:
        # One reduce, of the folded last level.
        total += SERIAL_REDUCE
    return total


def test_motif_scales_with_workers(graph):
    """3-Motif exploration+aggregation span shrinks as workers grow."""
    t1 = _synthetic_seconds(graph, MotifCounting(3), 1)
    t4 = _synthetic_seconds(graph, MotifCounting(3), 4)
    assert t4 < t1
    # Not super-linear either.
    assert t4 > t1 / 16


def test_fsm_scales_sublinearly(graph):
    """FSM's serial reduce keeps it from ideal scaling (Figure 14)."""
    t1 = _synthetic_seconds(graph, FrequentSubgraphMining(2, 3), 1)
    t8 = _synthetic_seconds(graph, FrequentSubgraphMining(2, 3), 8)
    assert t8 < t1
    assert t1 / t8 < 8.0


@pytest.mark.slow
def test_motif_wall_clock_replay_scales(graph):
    t1 = _replayed_seconds(graph, MotifCounting(3), 1)
    t4 = _replayed_seconds(graph, MotifCounting(3), 4)
    assert t1 / 16 < t4 < t1


@pytest.mark.slow
def test_fsm_wall_clock_replay_scales_sublinearly(graph):
    t1 = _replayed_seconds(graph, FrequentSubgraphMining(2, 3), 1)
    t8 = _replayed_seconds(graph, FrequentSubgraphMining(2, 3), 8)
    assert t8 <= t1
    assert t1 / max(t8, 1e-9) < 8.0


def test_fsm_memory_grows_with_workers(graph):
    """Per-worker pattern maps make FSM memory grow with threads."""
    m1 = _run(graph, FrequentSubgraphMining(2, 3), 1).peak_memory_bytes
    m8 = _run(graph, FrequentSubgraphMining(2, 3), 8).peak_memory_bytes
    assert m8 >= m1


def test_schedule_utilization_reported(graph):
    """A serial run reports one measured worker per level, busy for its
    whole span; the replay onto 4 workers leaves some of them idle."""
    result = _run(graph, MotifCounting(3), 4)
    assert result.schedules
    for schedule in result.schedules:
        assert schedule.num_workers == 1
        assert schedule.utilization == pytest.approx(1.0)
    for schedule in replay(result.schedules, 4):
        assert schedule.num_workers == 4
        assert 0 < schedule.utilization <= 1.0
