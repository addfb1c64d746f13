"""Figure 18: CPU-utilization traces with and without prediction.

The paper plots per-second CPU utilization of 4-FSM over Patent (supports
50k and 100k) for the prediction and non-prediction configurations; the
dotted boxes mark the exploration phase, where non-prediction shows deep
utilization valleys.  Here the trace is modelled by this benchmark: each
run measures its parts serially, and their times are replayed onto the
workers through the work-stealing schedule (busy worker-time per bin /
capacity of the replayed schedules).
"""

import tempfile

import pytest

from repro import FrequentSubgraphMining, KaleidoEngine
from repro.balance import utilization_series
from repro.bench import PROFILE, bench_graph, format_series

from conftest import replayed, run_once

WORKERS = 8
SUPPORTS = [20, 30]


def _trace(graph, support, use_prediction):
    with tempfile.TemporaryDirectory(prefix="fig18-") as tmp:
        with KaleidoEngine(
            graph,
            # The engine cuts each level into one part per worker (the
            # default), as on-disk parts are not stealable — each thread
            # owns the part it writes/loads (Figure 7); this is
            # precisely where the size prediction earns its keep.
            workers=WORKERS,
            use_prediction=use_prediction,
            storage_mode="spill-last",
            spill_dir=tmp,
        ) as engine:
            result = engine.run(FrequentSubgraphMining(3, support))
    # The paper's dotted boxes mark the embedding exploration phase —
    # that is where the partitioning strategy acts.  Every schedule is an
    # exploration level's (each level is mapped inside its expansion
    # parts, under the same cut).
    schedules, _ = replayed(result, WORKERS)
    series = utilization_series(schedules, bins=30)
    average = (
        sum(u for _, u in series) / len(series) if series else 0.0
    )
    return series, average, result


@pytest.mark.benchmark(group="fig18")
def test_fig18_cpu_utilization(benchmark, emit):
    blocks = []
    averages = {}

    def run_cases():
        graph = bench_graph("patent")
        for support in SUPPORTS:
            for use_prediction in (True, False):
                series, average, _ = _trace(graph, support, use_prediction)
                mode = "prediction" if use_prediction else "non-prediction"
                averages[(support, use_prediction)] = average
                blocks.append(
                    format_series(
                        f"4-FSM(s={support}) {mode} "
                        f"(avg {average * 100:.0f}%)",
                        series,
                        "t (s)",
                        "replayed utilization",
                    )
                )
        return averages

    run_once(benchmark, run_cases)
    emit(
        f"Figure 18 — replayed CPU utilization traces, {WORKERS} workers "
        f"(profile: {PROFILE})\n\n" + "\n\n".join(blocks),
        name="fig18_cpu_utilization",
    )

    # Paper shape: prediction lifts average utilization for each support.
    for support in SUPPORTS:
        assert averages[(support, True)] >= averages[(support, False)] * 0.95, (
            support,
            averages,
        )
