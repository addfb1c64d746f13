"""Unit tests for memory metering, budgets and I/O stats."""

import pytest

from repro.storage import IOStats, MemoryBudget, MemoryMeter


def test_meter_set_and_peak():
    meter = MemoryMeter()
    meter.set("a", 100)
    meter.set("b", 50)
    assert meter.current_bytes == 150
    meter.set("a", 10)
    assert meter.current_bytes == 60
    assert meter.peak_bytes == 150


def test_meter_add_and_release():
    meter = MemoryMeter()
    meter.add("x", 30)
    meter.add("x", 20)
    assert meter.current_bytes == 50
    meter.release("x")
    assert meter.current_bytes == 0
    meter.release("never-set")  # no raise


def test_meter_negative_rejected():
    meter = MemoryMeter()
    with pytest.raises(ValueError):
        meter.set("a", -1)


def test_meter_snapshot_is_copy():
    meter = MemoryMeter()
    meter.set("a", 5)
    snap = meter.snapshot()
    snap["a"] = 999
    assert meter.current_bytes == 5


def test_budget_unlimited():
    budget = MemoryBudget(None)
    assert budget.fits(10**15)
    assert budget.headroom(123) is None


def test_budget_limits():
    budget = MemoryBudget(100)
    assert budget.fits(60, 40)
    assert not budget.fits(60, 41)
    assert budget.headroom(70) == 30
    assert budget.headroom(170) == 0


def test_budget_validates():
    with pytest.raises(ValueError):
        MemoryBudget(0)


def test_iostats_record_and_rates():
    io = IOStats()
    io.record("write", 1000, 0.1)
    io.record("read", 500, 0.05)
    assert io.bytes_written == 1000
    assert io.bytes_read == 500
    assert io.write_seconds == pytest.approx(0.1)
    series = io.rate_series("write", bins=4)
    assert len(series) == 4
    assert sum(mb for _, mb in series) > 0


def test_iostats_bad_kind():
    with pytest.raises(ValueError):
        IOStats().record("copy", 1, 0.0)


def test_rate_series_empty():
    assert IOStats().rate_series("read") == []
