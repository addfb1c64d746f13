"""Figure 14: scalability in 2..32 workers.

The paper runs 3-FSM (support 5000), 3-Motif and 5-Clique over Patent at
2..32 threads.  In this reproduction the speedup is modelled here, not by
the engine (DESIGN.md substitution): each run cuts every level into N
parts and measures them serially; this benchmark replays those part
times onto N workers through the deterministic work-stealing schedule.
The reported time is the replayed makespans plus the measured
aggregation.

Paper shapes asserted: Motif and Clique scale near-ideally; FSM is
sublinear (serial per-thread pattern-map merge) and its memory *grows*
with the worker count (per-thread hashmaps).
"""

import pytest

from repro import CliqueDiscovery, FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.bench import PROFILE, bench_graph, format_table

from conftest import replayed, run_once

WORKERS = [2, 4, 8, 16, 32]
FSM_SUPPORT = 5


def _apps():
    return {
        f"3-FSM-{FSM_SUPPORT}": lambda: FrequentSubgraphMining(2, FSM_SUPPORT),
        "3-Motif": lambda: MotifCounting(3),
        "5-Clique": lambda: CliqueDiscovery(5),
    }


@pytest.mark.benchmark(group="fig14")
def test_fig14_scalability(benchmark, emit):
    results: dict[str, list[tuple[int, float, float]]] = {}

    def run_grid():
        graph = bench_graph("patent")
        for name, factory in _apps().items():
            series = []
            for workers in WORKERS:
                result = KaleidoEngine(graph, workers=workers).run(factory())
                _, seconds = replayed(result, workers)
                series.append((workers, seconds, result.peak_memory_bytes / 1e6))
            results[name] = series
        return results

    run_once(benchmark, run_grid)

    rows = []
    for name, series in results.items():
        base = series[0][1] * series[0][0]  # ~serial work estimate
        for workers, seconds, mem in series:
            ideal = base / workers
            rows.append(
                [name, str(workers), f"{seconds:.3f}", f"{ideal:.3f}", f"{mem:.2f}"]
            )
    table = format_table(
        ["App", "workers", "replayed (s)", "ideal (s)", "memory (MB)"],
        rows,
        title=f"Figure 14 — scalability, Patent (profile: {PROFILE})",
    )
    emit(table, name="fig14_scalability")

    for name, series in results.items():
        times = [t for _, t, _ in series]
        # More workers never slower (modulo tiny jitter).
        assert times[-1] <= times[0] * 1.10, (name, times)
        speedup_2_to_32 = times[0] / max(times[-1], 1e-9)
        if name.startswith("3-FSM"):
            # Sublinear: far from the 16x ideal between 2 and 32 workers.
            assert speedup_2_to_32 < 12.0, (name, speedup_2_to_32)
            mems = [m for _, _, m in series]
            assert mems[-1] >= mems[0]  # per-thread maps grow memory
        else:
            # Near-ideal-ish: at least 3x from 2 to 32 workers.
            assert speedup_2_to_32 > 3.0, (name, speedup_2_to_32)
