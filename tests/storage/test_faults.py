"""Deterministic fault injection against the storage recovery machinery.

Every test drives faults through :class:`FaultyPartStore`'s raw I/O hooks,
underneath the retry and checksum layers, so what is exercised here is the
production recovery path — not a mock of it.
"""

import numpy as np
import pytest

from repro.errors import (
    CorruptPartError,
    DiskFullError,
    StorageError,
    TransientStorageError,
)
from repro.storage import (
    FaultPlan,
    FaultSpec,
    FaultyPartStore,
    RetryPolicy,
    SpillingSink,
)


def _no_sleep_policy(attempts=4, recorder=None):
    sleeps = recorder if recorder is not None else []
    return RetryPolicy(attempts=attempts, sleep=sleeps.append), sleeps


def _store(tmp_path, specs, attempts=4, seed=0):
    plan = FaultPlan(specs, seed=seed, sleep=lambda _t: None)
    retry, sleeps = _no_sleep_policy(attempts)
    store = FaultyPartStore(str(tmp_path), plan=plan, retry=retry)
    return store, plan, sleeps


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan semantics
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(op="format", kind="transient")
    with pytest.raises(ValueError):
        FaultSpec(op="save", kind="explode")
    with pytest.raises(ValueError):
        FaultSpec(op="save", kind="transient", at=0)
    with pytest.raises(ValueError):
        FaultSpec(op="save", kind="transient", repeat=0)
    with pytest.raises(ValueError):
        FaultSpec(op="save", kind="transient", probability=1.5)


def test_plan_at_and_repeat_window():
    plan = FaultPlan([FaultSpec(op="save", kind="transient", at=2, repeat=2)])
    hits = [plan.draw("save") is not None for _ in range(5)]
    assert hits == [False, True, True, False, False]
    assert plan.calls("save") == 5
    assert [(op, count) for op, _kind, count in plan.fired] == [("save", 2), ("save", 3)]


def test_plan_probability_is_seed_deterministic():
    spec = FaultSpec(op="load", kind="transient", probability=0.5)
    draws_a = [FaultPlan([spec], seed=7).draw("load") for _ in range(1)]
    plan_a = FaultPlan([spec], seed=7)
    plan_b = FaultPlan([spec], seed=7)
    seq_a = [plan_a.draw("load") is not None for _ in range(50)]
    seq_b = [plan_b.draw("load") is not None for _ in range(50)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)
    del draws_a


# ----------------------------------------------------------------------
# Transient faults: retried to success with bounded backoff
# ----------------------------------------------------------------------
def test_transient_save_retried_to_success(tmp_path):
    store, plan, sleeps = _store(
        tmp_path, [FaultSpec(op="save", kind="transient", at=1, repeat=2)]
    )
    array = np.arange(16, dtype=np.int32)
    handle = store.save(array)
    # Two failed attempts, then success — each retry slept the policy's
    # capped exponential delay.
    assert plan.calls("save") == 3
    assert sleeps == [store.retry.delay(0), store.retry.delay(1)]
    assert store.io.retries == 2
    assert store.load(handle).tolist() == array.tolist()


def test_transient_load_retried_to_success(tmp_path):
    store, plan, sleeps = _store(
        tmp_path, [FaultSpec(op="load", kind="transient", at=1)]
    )
    handle = store.save(np.arange(5, dtype=np.int32))
    assert store.load(handle).tolist() == list(range(5))
    assert plan.calls("load") == 2
    assert store.io.retries == 1


def test_backoff_is_capped():
    policy = RetryPolicy(attempts=6, base_delay=0.01, max_delay=0.04, sleep=lambda _t: None)
    assert [policy.delay(i) for i in range(5)] == [0.01, 0.02, 0.04, 0.04, 0.04]


def test_transient_exhaustion_raises_and_leaves_no_file(tmp_path):
    store, plan, sleeps = _store(
        tmp_path,
        [FaultSpec(op="save", kind="transient", at=1, repeat=10)],
        attempts=3,
    )
    with pytest.raises(TransientStorageError):
        store.save(np.arange(4, dtype=np.int32))
    assert plan.calls("save") == 3  # every configured attempt was used
    assert len(sleeps) == 2  # no sleep after the final attempt
    # The atomic write cleaned up after itself: no final file, no temp.
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Permanent / disk-full faults: classified, never retried
# ----------------------------------------------------------------------
def test_permanent_fault_not_retried(tmp_path):
    store, plan, sleeps = _store(
        tmp_path, [FaultSpec(op="save", kind="permanent", at=1)]
    )
    with pytest.raises(StorageError) as info:
        store.save(np.arange(4, dtype=np.int32))
    assert not isinstance(info.value, TransientStorageError)
    assert plan.calls("save") == 1
    assert sleeps == []


def test_disk_full_maps_to_diskfullerror(tmp_path):
    store, _plan, _ = _store(tmp_path, [FaultSpec(op="save", kind="full", at=1)])
    with pytest.raises(DiskFullError):
        store.save(np.arange(4, dtype=np.int32))


# ----------------------------------------------------------------------
# Corruption: detected, never a silent wrong answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["torn", "corrupt"])
def test_damaged_part_raises_corrupterror(tmp_path, kind):
    store, _plan, _ = _store(tmp_path, [FaultSpec(op="load", kind=kind, at=1)])
    handle = store.save(np.arange(100, dtype=np.int32))
    with pytest.raises(CorruptPartError):
        store.load(handle)
    # The damage is on disk, not in the handle: every later read of the
    # same part keeps failing loudly too.
    with pytest.raises(CorruptPartError):
        store.load(handle)


def test_corrupted_at_write_time_detected_on_read(tmp_path):
    store, _plan, _ = _store(tmp_path, [FaultSpec(op="save", kind="corrupt", at=1)])
    handle = store.save(np.arange(100, dtype=np.int32))
    with pytest.raises(CorruptPartError):
        store.load(handle)


# ----------------------------------------------------------------------
# Slow faults: injectable latency, no real waiting
# ----------------------------------------------------------------------
def test_slow_fault_uses_injected_sleep(tmp_path):
    naps = []
    plan = FaultPlan(
        [FaultSpec(op="save", kind="slow", at=1, delay_seconds=60.0)],
        sleep=naps.append,
    )
    retry, _ = _no_sleep_policy()
    store = FaultyPartStore(str(tmp_path), plan=plan, retry=retry)
    handle = store.save(np.arange(8, dtype=np.int32))
    assert naps == [60.0]
    assert store.load(handle).tolist() == list(range(8))


# ----------------------------------------------------------------------
# Delete faults: counted and logged, never fatal
# ----------------------------------------------------------------------
def test_failed_delete_is_counted_not_raised(tmp_path):
    store, _plan, _ = _store(tmp_path, [FaultSpec(op="delete", kind="permanent", at=1)])
    handle = store.save(np.arange(4, dtype=np.int32))
    store.delete(handle)  # injected EACCES swallowed
    assert store.io.failed_deletes == 1
    assert store.io.deletes == 1
    store.delete(handle)  # second try has no fault planned
    assert store.io.failed_deletes == 1
    assert store.io.deletes == 2
    assert not list(tmp_path.glob("*.npy"))


def test_delete_missing_file_counts_ok(tmp_path):
    store, _plan, _ = _store(tmp_path, [])
    handle = store.save(np.arange(4, dtype=np.int32))
    store.delete(handle)
    store.delete(handle)  # already gone: FileNotFoundError is a success
    assert store.io.deletes == 2
    assert store.io.failed_deletes == 0


# ----------------------------------------------------------------------
# Through the spilling sink
# ----------------------------------------------------------------------
def test_queue_writer_retries_exhausted_transients(tmp_path):
    # The store itself gives up (attempts=1) but the sink's own retry
    # layer re-attempts the save, so the burst still drains through.
    store, plan, _ = _store(
        tmp_path, [FaultSpec(op="save", kind="transient", at=1)], attempts=1
    )
    sink = SpillingSink(store)
    sink.write_part(np.arange(4, dtype=np.int32), index=0)
    level = sink.finish(np.array([0, 4], dtype=np.int64))
    assert level.num_parts == 1
    assert level.vert_array().tolist() == list(range(4))
    assert plan.calls("save") == 2


# ----------------------------------------------------------------------
# Through the engine: the failure contract
# ----------------------------------------------------------------------
def _engine_with_faults(graph, tmp_path, specs, **engine_kwargs):
    from repro import KaleidoEngine

    retry, _ = _no_sleep_policy()
    engine = KaleidoEngine(graph, storage_mode="spill-last", **engine_kwargs)
    plan = FaultPlan(specs, sleep=lambda _t: None)
    engine._store = FaultyPartStore(str(tmp_path), plan=plan, retry=retry)
    return engine, plan


def test_engine_disk_full_aborts_run_then_next_run_is_correct(tmp_path, paper_graph):
    """A full device fails the run cleanly; the same engine then recovers.

    The failed level's parts are deleted and DiskFullError propagates —
    nothing is retried or degraded.  Once space is back (the fault was
    one-shot), the next run on the same engine matches the in-memory
    answer, and the aborted level was never counted as spilled.
    """
    from repro import KaleidoEngine, MotifCounting

    # 4-Motif's 2-embeddings are its stored level that spills.
    expected = KaleidoEngine(paper_graph).run(MotifCounting(4))
    engine, plan = _engine_with_faults(
        paper_graph, tmp_path, [FaultSpec(op="save", kind="full", at=1)]
    )
    with engine:
        with pytest.raises(DiskFullError):
            engine.run(MotifCounting(4))
        assert not list(tmp_path.glob("*.npy"))
        assert not list(tmp_path.glob("*.tmp"))
        result = engine.run(MotifCounting(4))
    assert [kind for _op, kind, _count in plan.fired] == ["full"]
    assert result.pattern_map == expected.pattern_map
    assert result.level_sizes == expected.level_sizes
    assert result.extra["spilled_levels"] == 1
    assert engine.metrics.snapshot()["storage.spilled_levels"]["value"] == 1


def test_engine_permanent_fault_aborts_level_without_leaks(tmp_path, paper_graph):
    from repro import MotifCounting

    engine, plan = _engine_with_faults(
        paper_graph,
        tmp_path,
        [FaultSpec(op="save", kind="permanent", at=2)],
        workers=4,
    )
    with engine, pytest.raises(StorageError):
        engine.run(MotifCounting(4))
    assert plan.calls("save") >= 2
    # abort() deleted the parts written before the permanent fault.
    assert not list(tmp_path.glob("*.npy"))
    assert not list(tmp_path.glob("*.tmp"))
