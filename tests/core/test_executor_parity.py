"""Executor parity: every executor must produce byte-identical results.

The acceptance bar for the executor seam: triangle counting, 3-motif,
FSM (both induced modes, whose per-iteration prune depends on the
*positional* order of mapper side outputs) and materialised pattern
matching on a seeded random graph give identical results under the
serial (work-stealing replay) executor and the real thread-pool executor
— handing the part maps to ``reduce`` in part-index order
makes completion order irrelevant.
"""

import numpy as np
import pytest

from repro import (
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
    TriangleCounting,
)
from repro.apps import PatternMatching, VertexInducedFSM
from repro.graph import chung_lu


@pytest.fixture(scope="module")
def seeded_graph():
    return chung_lu(120, 420, seed=42, num_labels=2)


@pytest.mark.parametrize(
    "make_app",
    [
        TriangleCounting,
        lambda: MotifCounting(3),
        lambda: FrequentSubgraphMining(3, support=8),
        lambda: VertexInducedFSM(3, support=8),
    ],
)
def test_serial_and_threads_identical(seeded_graph, make_app):
    serial = KaleidoEngine(seeded_graph, workers=4, executor="serial").run(make_app())
    threads = KaleidoEngine(seeded_graph, workers=4, executor="threads").run(make_app())
    assert serial.pattern_map == threads.pattern_map
    assert serial.level_sizes == threads.level_sizes
    if isinstance(serial.value, dict):
        assert dict(serial.value) == dict(threads.value)
    else:
        assert serial.value == threads.value
    assert serial.extra["executor"] == "simulated"
    assert threads.extra["executor"] == "threads"


def test_fsm_counters_and_hashes_parity(seeded_graph):
    """FSM's positional side outputs survive out-of-order part completion.

    ``prune`` masks embeddings by position from the mapper's hash list, so
    any interleaving across pool threads would silently drop the wrong
    embeddings; the deterministic cost counters must match too.
    """
    apps = {}
    for name in ("serial", "threads"):
        apps[name] = app = FrequentSubgraphMining(3, support=8)
        KaleidoEngine(seeded_graph, workers=4, executor=name).run(app)
    assert apps["serial"].total_insertions == apps["threads"].total_insertions
    assert apps["serial"].total_mapped == apps["threads"].total_mapped


def test_materialized_matches_parity(seeded_graph):
    """Materialised match lists come back in level order, not completion
    order."""
    from repro import Pattern

    triangle = Pattern.from_adjacency([0, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    results = {}
    for name in ("serial", "threads"):
        results[name] = KaleidoEngine(seeded_graph, workers=4, executor=name).run(
            PatternMatching(triangle, materialize=True)
        )
    assert results["serial"].value.count == results["threads"].value.count
    assert results["serial"].value.matches == results["threads"].value.matches


def test_parity_under_spilling(seeded_graph, tmp_path):
    """Out-of-order part completion must not scramble a spilled level.

    The threaded executor submits parts to the async writing queue as
    they finish; the part indices carried through the queue must
    reassemble the level in storage order.
    """
    results = {}
    for name in ("serial", "threads"):
        with KaleidoEngine(
            seeded_graph,
            workers=4,
            executor=name,
            storage_mode="spill-last",
            spill_dir=str(tmp_path / name),
        ) as engine:
            results[name] = engine.run(MotifCounting(3))
        assert results[name].io_bytes_written > 0
    assert results["serial"].pattern_map == results["threads"].pattern_map
    assert results["serial"].level_sizes == results["threads"].level_sizes


def test_explicit_executor_instance(seeded_graph):
    from repro.core.executor import SerialExecutor, ThreadedExecutor

    raw = KaleidoEngine(seeded_graph, executor=SerialExecutor()).run(TriangleCounting())
    pooled = KaleidoEngine(
        seeded_graph, workers=3, executor=ThreadedExecutor()
    ).run(TriangleCounting())
    assert raw.value == pooled.value
    assert raw.level_sizes == pooled.level_sizes
