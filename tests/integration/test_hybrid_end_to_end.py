"""Integration: hybrid storage produces identical results with real I/O."""

import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
    TriangleCounting,
)
from repro.graph import datasets


@pytest.fixture(scope="module")
def graph():
    return datasets.load("citeseer", "tiny")


def _run(graph, app, **kwargs):
    with KaleidoEngine(graph, **kwargs) as engine:
        return engine.run(app)


@pytest.mark.parametrize(
    "app_factory",
    [
        lambda: MotifCounting(3),
        lambda: CliqueDiscovery(4),
        lambda: TriangleCounting(),
    ],
    ids=["motif", "clique", "tc"],
)
def test_spill_last_matches_memory(graph, app_factory, tmp_path):
    in_mem = _run(graph, app_factory(), storage_mode="memory")
    hybrid = _run(
        graph,
        app_factory(),
        storage_mode="spill-last",
        spill_dir=str(tmp_path),
    )
    if isinstance(in_mem.value, dict):
        assert dict(in_mem.value) == dict(hybrid.value)
    else:
        assert in_mem.value == hybrid.value
    assert hybrid.io_bytes_written > 0


def test_budget_triggers_spill(graph, tmp_path):
    """A tight budget spills automatically and still gets the answer."""
    unlimited = _run(graph, MotifCounting(4), storage_mode="memory")
    capped = _run(
        graph,
        MotifCounting(4),
        memory_limit_bytes=int(unlimited.peak_memory_bytes * 0.5),
        storage_mode="auto",
        spill_dir=str(tmp_path),
    )
    assert dict(unlimited.value) == dict(capped.value)
    assert capped.extra["spilled_levels"] >= 1
    assert capped.io_bytes_written > 0


def test_generous_budget_never_spills(graph):
    result = _run(
        graph, MotifCounting(3), memory_limit_bytes=1 << 34, storage_mode="auto"
    )
    assert result.extra["spilled_levels"] == 0
    assert result.io_bytes_written == 0


def test_hybrid_memory_reduced(graph, tmp_path):
    """Accounted in-memory footprint shrinks when the last level spills
    (Table 4's 4-FSM rows)."""
    in_mem = _run(graph, FrequentSubgraphMining(3, 3), storage_mode="memory")
    hybrid = _run(
        graph,
        FrequentSubgraphMining(3, 3),
        storage_mode="spill-last",
        spill_dir=str(tmp_path),
    )
    assert dict(in_mem.value) == dict(hybrid.value)

