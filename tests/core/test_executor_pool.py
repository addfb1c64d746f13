"""ThreadedExecutor's persistent worker pool, sized per run."""

import threading

import pytest

from repro.core.executor import ThreadedExecutor


def tasks(n):
    return [lambda i=i: i * i for i in range(n)]


def test_pool_persists_across_runs():
    executor = ThreadedExecutor()
    try:
        executor.run(tasks(4), workers=2)
        first_pool = executor._pool
        assert first_pool is not None
        executor.run(tasks(4), workers=2)
        assert executor._pool is first_pool
        assert executor.pool_size == 2
    finally:
        executor.close()


def test_close_releases_then_rebuilds_lazily():
    executor = ThreadedExecutor()
    executor.run(tasks(2), workers=2)
    executor.close()
    assert executor.pool_size == 0
    report = executor.run(tasks(3), workers=2)
    assert [r for r in report.results] == [0, 1, 4]
    assert executor.pool_size == 2
    executor.close()
    executor.close()  # idempotent


def test_unpinned_pool_resizes_only_when_idle():
    executor = ThreadedExecutor()
    try:
        executor.run(tasks(2), workers=2)
        assert executor.pool_size == 2
        executor.run(tasks(2), workers=3)
        assert executor.pool_size == 3
    finally:
        executor.close()


def test_failing_run_leaves_pool_usable():
    executor = ThreadedExecutor()

    def boom():
        raise RuntimeError("task failed")

    try:
        with pytest.raises(RuntimeError, match="task failed"):
            executor.run([boom], workers=2)
        report = executor.run(tasks(3), workers=2)
        assert list(report.results) == [0, 1, 4]
    finally:
        executor.close()


def test_concurrent_runs_share_one_pool():
    executor = ThreadedExecutor()
    barrier = threading.Barrier(2)
    reports = {}

    def drive(name):
        barrier.wait(timeout=30)
        reports[name] = executor.run(tasks(6), workers=3)

    threads = [
        threading.Thread(target=drive, args=(f"run{i}",)) for i in range(2)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert list(reports["run0"].results) == [i * i for i in range(6)]
        assert list(reports["run1"].results) == [i * i for i in range(6)]
        assert executor.pool_size == 3
    finally:
        executor.close()
