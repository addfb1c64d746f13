"""Figure 17: prediction vs non-prediction load balance on hybrid storage.

The paper compares runtime and CPU-utilization rate of 4-Motif (MiCo,
Patent) and 4-FSM (Patent, two supports) with and without the
candidate-size prediction.  Prediction evens the per-part work, so the
work-stealing schedule's makespan shrinks (paper: ~1.2x) and utilization
rises.  Here the parts feed the deterministic schedule replay; we report
the simulated spans, utilizations, and the partition imbalance that
causes the difference.
"""

import tempfile

import pytest

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.bench import PROFILE, bench_graph, format_table, geomean

from conftest import run_once

CASES = [
    ("4-Motif(MC)", "mico", lambda: MotifCounting(4)),
    ("4-Motif(PA)", "patent", lambda: MotifCounting(4)),
    ("4-FSM(PA,s=20)", "patent", lambda: FrequentSubgraphMining(3, 20)),
    ("4-FSM(PA,s=30)", "patent", lambda: FrequentSubgraphMining(3, 30)),
]
WORKERS = 8


def _run(graph, factory, use_prediction):
    with tempfile.TemporaryDirectory(prefix="fig17-") as tmp:
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
            return engine.run(factory())


@pytest.mark.benchmark(group="fig17")
def test_fig17_prediction_loadbalance(benchmark, emit):
    rows = []
    gains = []

    def run_cases():
        for name, dataset, factory in CASES:
            graph = bench_graph(dataset)
            pred = _run(graph, factory, use_prediction=True)
            nopred = _run(graph, factory, use_prediction=False)
            assert sorted(pred.value.values()) == sorted(nopred.value.values())
            gain = nopred.simulated_seconds / max(pred.simulated_seconds, 1e-9)
            gains.append(gain)
            rows.append(
                [
                    name,
                    f"{pred.simulated_seconds:.3f}",
                    f"{nopred.simulated_seconds:.3f}",
                    f"{gain:.2f}x",
                    f"{pred.utilization * 100:.0f}%",
                    f"{nopred.utilization * 100:.0f}%",
                ]
            )
        return rows

    run_once(benchmark, run_cases)
    table = format_table(
        [
            "App", "prediction (s)", "non-prediction (s)", "speedup",
            "util (pred)", "util (non-pred)",
        ],
        rows,
        title=(
            f"Figure 17 — prediction vs non-prediction on hybrid storage, "
            f"{WORKERS} workers (profile: {PROFILE})"
        ),
    )
    summary = f"\nGeoMean prediction speedup: {geomean(gains):.2f}x (paper: ~1.2x)"
    emit(table + summary, name="fig17_loadbalance")

    # Paper shape: prediction helps on aggregate.
    assert geomean(gains) > 1.0
