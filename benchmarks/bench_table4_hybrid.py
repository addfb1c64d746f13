"""Table 4: in-memory vs hybrid storage.

The paper runs 4-FSM over Patent (supports 50k / 100k) and 4-Motif over
Patent and MiCo, in memory and with the last CSE level spilled to SSD.
Paper shape: results identical, runtime penalty below ~30%, and the
accounted in-memory footprint drops for FSM (the spilled level is the
big one) while 4-Motif's footprint barely moves (the paper's stores
k-1 levels; this engine folds every app's last level, so 4-Motif stores
and spills only up to its 2-embeddings, level k-2).
"""

import tempfile

import pytest

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.bench import PROFILE, bench_graph, format_table

from conftest import run_once

#: Paper supports 50k/100k scale to the stand-in graphs' edge counts.
CASES = [
    ("4-FSM(PA,s=20)", "patent", lambda: FrequentSubgraphMining(3, 20)),
    ("4-FSM(PA,s=30)", "patent", lambda: FrequentSubgraphMining(3, 30)),
    ("4-Motif(PA)", "patent", lambda: MotifCounting(4)),
    ("4-Motif(MC)", "mico", lambda: MotifCounting(4)),
]


@pytest.mark.benchmark(group="table4")
def test_table4_hybrid_storage(benchmark, emit):
    rows = []
    penalties = []

    def run_cases():
        for name, dataset, factory in CASES:
            graph = bench_graph(dataset)
            with KaleidoEngine(graph, storage_mode="memory") as engine:
                mem = engine.run(factory())
            with tempfile.TemporaryDirectory(prefix="tbl4-") as tmp:
                with KaleidoEngine(
                    graph, storage_mode="spill-last", spill_dir=tmp
                ) as engine:
                    hyb = engine.run(factory())
            assert sorted(mem.value.values()) == sorted(hyb.value.values())
            penalty = hyb.wall_seconds / max(mem.wall_seconds, 1e-9)
            penalties.append((name, penalty))
            rows.append(
                [
                    name, "Yes", f"{mem.wall_seconds:.3f}",
                    f"{mem.peak_memory_bytes / 1e6:.2f}", "-",
                ]
            )
            rows.append(
                [
                    name, "No", f"{hyb.wall_seconds:.3f}",
                    f"{hyb.peak_memory_bytes / 1e6:.2f}",
                    f"{hyb.io_bytes_written / 1e6:.2f}",
                ]
            )
        return rows

    run_once(benchmark, run_cases)
    table = format_table(
        ["App", "In-Memory", "Time (s)", "Memory (MB)", "Disk written (MB)"],
        rows,
        title=f"Table 4 — hybrid storage (profile: {PROFILE})",
    )
    summary = "\n".join(
        f"  {name}: hybrid/in-memory runtime = {p:.2f}x" for name, p in penalties
    )
    emit(table + "\nPenalties (paper: < 1.3x, < 1.7x for 4-Motif):\n" + summary,
         name="table4_hybrid")

    # Acceptable attenuation: generous 3x bound for pure-Python I/O paths.
    for name, penalty in penalties:
        assert penalty < 3.0, (name, penalty)
