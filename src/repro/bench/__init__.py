"""Benchmark harness: run records, reporting, shared workloads."""

from .record import RunRecord, geomean, speedup
from .report import comparison_table, format_series, format_table, geomean_block
from .workloads import (
    PROFILE,
    TABLE2_GRID,
    bench_graph,
    digest,
    run_arabesque,
    run_kaleido,
    run_rstream,
)

__all__ = [
    "RunRecord",
    "geomean",
    "speedup",
    "format_table",
    "format_series",
    "comparison_table",
    "geomean_block",
    "PROFILE",
    "TABLE2_GRID",
    "bench_graph",
    "digest",
    "run_kaleido",
    "run_arabesque",
    "run_rstream",
]
