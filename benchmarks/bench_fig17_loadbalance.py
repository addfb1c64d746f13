"""Figure 17: prediction vs non-prediction load balance on hybrid storage.

The paper compares runtime and CPU-utilization rate of 4-Motif (MiCo,
Patent) and 4-FSM (Patent, two supports) with and without the
candidate-size prediction.  Prediction evens the per-part work, so the
work-stealing schedule's makespan shrinks (paper: ~1.2x) and utilization
rises.  Here each run measures its parts serially and this benchmark
replays their times onto the workers through the deterministic
work-stealing schedule; we report the replayed spans (plus the measured
aggregation) and the replayed utilizations.
"""

import tempfile

import pytest

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.bench import PROFILE, bench_graph, format_table, geomean

from conftest import replayed, run_once

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
            result = engine.run(factory())
    schedules, seconds = replayed(result, WORKERS)
    capacity = sum(s.span_seconds * s.num_workers for s in schedules)
    busy = sum(s.busy_seconds for s in schedules)
    return result, seconds, busy / capacity if capacity else 1.0


@pytest.mark.benchmark(group="fig17")
def test_fig17_prediction_loadbalance(benchmark, emit):
    rows = []
    gains = []

    def run_cases():
        for name, dataset, factory in CASES:
            graph = bench_graph(dataset)
            pred, pred_s, pred_util = _run(graph, factory, use_prediction=True)
            nopred, nopred_s, nopred_util = _run(graph, factory, use_prediction=False)
            assert sorted(pred.value.values()) == sorted(nopred.value.values())
            gain = nopred_s / max(pred_s, 1e-9)
            gains.append(gain)
            rows.append(
                [
                    name,
                    f"{pred_s:.3f}",
                    f"{nopred_s:.3f}",
                    f"{gain:.2f}x",
                    f"{pred_util * 100:.0f}%",
                    f"{nopred_util * 100:.0f}%",
                ]
            )
        return rows

    run_once(benchmark, run_cases)
    table = format_table(
        [
            "App", "replayed pred (s)", "replayed non-pred (s)", "speedup",
            "replayed util (pred)", "replayed util (non-pred)",
        ],
        rows,
        title=(
            f"Figure 17 — prediction vs non-prediction on hybrid storage, "
            f"{WORKERS} workers (profile: {PROFILE})"
        ),
    )
    summary = (
        f"\nGeoMean replayed prediction speedup: {geomean(gains):.2f}x (paper: ~1.2x)"
    )
    emit(table + summary, name="fig17_loadbalance")

    # Paper shape: prediction helps on aggregate.
    assert geomean(gains) > 1.0
