"""Shared benchmark plumbing.

Every benchmark writes its paper-style table/series to
``benchmarks/out/<name>.txt`` and prints it, so the EXPERIMENTS.md
paper-vs-measured comparison can be refreshed by re-running
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os

import pytest

from repro.balance import Schedule, replay

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.fixture(scope="session")
def report_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


@pytest.fixture
def emit(report_dir, request):
    """Write a report block to the benchmark's output file and stdout."""

    def _emit(text: str, name: str | None = None) -> None:
        stem = name or request.node.name
        path = os.path.join(report_dir, f"{stem}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print("\n" + text)

    return _emit


def run_once(benchmark, fn):
    """Run a workload exactly once under pytest-benchmark timing.

    These are macro-benchmarks (whole mining runs); statistical rounds
    would multiply minutes of runtime for no insight.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def replayed(result, workers: int) -> tuple[list[Schedule], float]:
    """A run's measured part times replayed onto ``workers`` modelled
    workers (the scalability figures' model; the engine reports only
    measured time).  Returns the replayed schedules and the modelled
    seconds: their makespans plus the run's measured aggregation."""
    schedules = replay(result.schedules, workers)
    seconds = sum(s.span_seconds for s in schedules)
    return schedules, seconds + result.phase_spans["aggregate_seconds"]
