"""Workload runners shared by the benchmark files.

One function per (system, application) that returns a
:class:`~repro.bench.record.RunRecord`; the Table-2 grid iterates these.
Dataset profile and the support/k grids are chosen so a full benchmark run
finishes in minutes in pure Python while preserving the paper's ranking
shapes (see DESIGN.md substitutions).
"""

from __future__ import annotations

import os
import tempfile
from typing import Any

from ..apps import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    MotifCounting,
    TriangleCounting,
)
from ..baselines import ArabesqueLikeEngine, RStreamLikeEngine
from ..core.api import MiningResult
from ..core.engine import KaleidoEngine
from ..graph import datasets
from ..graph.graph import Graph
from .record import RunRecord

__all__ = [
    "PROFILE",
    "bench_graph",
    "run_kaleido",
    "run_arabesque",
    "run_rstream",
    "digest",
    "TABLE2_GRID",
]

#: Dataset profile used across the benchmark harness; override with the
#: REPRO_PROFILE environment variable (tiny / bench / large).
PROFILE = os.environ.get("REPRO_PROFILE", "bench")

#: Supports used in the FSM sweeps per dataset (scaled from the paper's
#: 300/500/1000/5000 grid to the stand-in graph sizes).
FSM_SUPPORTS = {
    "citeseer": [3, 5, 10, 50],
    "mico": [3, 5, 10, 50],
    "patent": [3, 5, 10, 50],
    "youtube": [3, 5, 10, 50],
}

#: The Table-2 application grid: (app kind, option) pairs.
TABLE2_GRID: list[tuple[str, Any]] = (
    [("fsm", s) for s in (3, 5, 10, 50)]
    + [("motif", 3), ("motif", 4)]
    + [("clique", 3), ("clique", 4), ("clique", 5)]
    + [("tc", None)]
)


def bench_graph(name: str) -> Graph:
    return datasets.load(name, PROFILE)


def digest(value: Any) -> Any:
    """Comparable digest of an app result for cross-system agreement.

    FSM results compare by frequent-pattern count: Kaleido's production
    counter short-circuits supports at the threshold while the baselines
    report exact values, and the pattern hashes come from different
    fingerprint functions — the frequent *set size* is the invariant.
    """
    from ..apps.fsm import FSMResult

    if isinstance(value, FSMResult):
        return len(value)
    if isinstance(value, dict):
        return sorted(value.values())
    if hasattr(value, "count"):
        return value.count
    return value


def _record(system: str, dataset: str, options: str, result: MiningResult) -> RunRecord:
    return RunRecord(
        system=system,
        app=result.app_name,
        dataset=dataset,
        options=options,
        seconds=result.wall_seconds,
        memory_bytes=result.peak_memory_bytes,
        io_read_bytes=result.io_bytes_read,
        io_write_bytes=result.io_bytes_written,
        value_digest=digest(result.value),
    )


def _make_app(kind: str, option: Any):
    if kind == "fsm":
        return FrequentSubgraphMining(num_edges=2, support=int(option))
    if kind == "motif":
        return MotifCounting(int(option))
    if kind == "clique":
        return CliqueDiscovery(int(option))
    if kind == "tc":
        return TriangleCounting()
    raise ValueError(f"unknown app kind {kind!r}")


def _options_str(kind: str, option: Any) -> str:
    if kind == "fsm":
        return f"support={option}"
    if kind in ("motif", "clique"):
        return f"k={option}"
    return ""


def run_kaleido(
    graph: Graph,
    kind: str,
    option: Any,
    dataset: str,
    executor: str = "serial",
    **engine_kwargs,
) -> RunRecord:
    """Run one Kaleido workload.

    ``executor`` selects the part executor ("serial" runs parts one after
    another; "threads" runs them on a real thread pool).
    """
    app = _make_app(kind, option)
    with KaleidoEngine(graph, executor=executor, **engine_kwargs) as engine:
        result = engine.run(app)
    return _record("kaleido", dataset, _options_str(kind, option), result)


def run_arabesque(graph: Graph, kind: str, option: Any, dataset: str) -> RunRecord:
    engine = ArabesqueLikeEngine(graph)
    if kind == "fsm":
        result = engine.run_fsm(2, int(option))
    elif kind == "motif":
        result = engine.run_motif(int(option))
    elif kind == "clique":
        result = engine.run_clique(int(option))
    elif kind == "tc":
        result = engine.run_triangles()
    else:
        raise ValueError(kind)
    return _record("arabesque", dataset, _options_str(kind, option), result)


def run_rstream(
    graph: Graph,
    kind: str,
    option: Any,
    dataset: str,
    max_intermediate_bytes: int | None = None,
) -> RunRecord:
    with tempfile.TemporaryDirectory(prefix="rstream-") as tmp:
        with RStreamLikeEngine(
            graph, spill_dir=tmp, max_intermediate_bytes=max_intermediate_bytes
        ) as engine:
            if kind == "fsm":
                result = engine.run_fsm(2, int(option))
            elif kind == "motif":
                result = engine.run_motif(int(option))
            elif kind == "clique":
                result = engine.run_clique(int(option))
            elif kind == "tc":
                result = engine.run_triangles()
            else:
                raise ValueError(kind)
    return _record("rstream", dataset, _options_str(kind, option), result)
