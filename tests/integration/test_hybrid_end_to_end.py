"""Integration: hybrid storage produces identical results with real I/O."""

import math

import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
)
from repro.apps.fsm_vertex import VertexInducedFSM
from repro.graph import datasets


@pytest.fixture(scope="module")
def graph():
    return datasets.load("citeseer", "tiny")


def _run(graph, app, **kwargs):
    with KaleidoEngine(graph, **kwargs) as engine:
        return engine.run(app)


# Each app stores a level past the roots for spill-last to write: the
# last level is folded, never stored.  TriangleCounting stores only its
# roots, so the "tc" case counts the triangles as 3-cliques, whose edge
# level spills.
@pytest.mark.parametrize(
    "app_factory",
    [
        lambda: MotifCounting(4),
        lambda: CliqueDiscovery(4),
        lambda: CliqueDiscovery(3),
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



#: The parity runs' worker counts, and an ``auto`` budget that spills
#: the last level in parts far smaller than it (about 6K entries).
PARITY_WORKERS = (1, 2, 4)
PARITY_BUDGET = 300_000


@pytest.mark.parametrize(
    "app_factory",
    [lambda: FrequentSubgraphMining(3, 3), lambda: VertexInducedFSM(4, 3)],
    ids=["fsm", "vfsm"],
)
def test_short_circuit_fsm_parity_across_storage_and_executors(
    graph, app_factory, tmp_path
):
    """Short-circuited MNI supports depend on the mapper's part cut, so a
    level the app maps is cut the same way in every storage mode: the
    I/O plan, which would cut a spilled level finer, does not apply.
    Checked at 1, 2 and 4 workers, each against its own memory-mode
    serial run."""
    for workers in PARITY_WORKERS:
        results = {}
        for mode, budget in (("memory", None), ("spill-last", None), ("auto", PARITY_BUDGET)):
            for executor in ("serial", "threads"):
                results[workers, mode, executor] = _run(
                    graph,
                    app_factory(),
                    workers=workers,
                    executor=executor,
                    storage_mode=mode,
                    memory_limit_bytes=budget,
                    spill_dir=str(tmp_path / f"{workers}-{mode}-{executor}"),
                )
        auto = results[workers, "auto", "serial"]
        assert auto.extra["spilled_levels"] >= 1
        # The predicted entries bound the last level from above, so the
        # I/O plan's part target for it is at least this.
        target = math.ceil(auto.level_sizes[-1] / auto.extra["io_plan"]["part_entries"])
        assert target > workers
        base = results[workers, "memory", "serial"]
        for key, result in results.items():
            assert dict(result.value) == dict(base.value), key
            assert result.pattern_map == base.pattern_map, key
            assert result.level_sizes == base.level_sizes, key
