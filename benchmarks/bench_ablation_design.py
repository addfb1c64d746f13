"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these quantify the contribution of each mechanism:

1. CSE vs an explicit tuple store (space per embedding).
2. EigenHash memoisation on/off (the production cache vs the paper's
   per-embedding hashing).
3. Async (background) vs synchronous part writer for spilled levels.
4. Prediction-based vs contiguous even partitioning (part-cost variance).
"""

import tempfile

import numpy as np
import pytest

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.balance import balanced_parts, partition_quality, predict_vertex_costs
from repro.bench import PROFILE, bench_graph, format_table
from repro.core import CSE
from repro.core.explore import even_parts, expand_vertex_level

from conftest import run_once


@pytest.mark.benchmark(group="ablation")
def test_ablation_cse_vs_tuple_store(benchmark, emit):
    """CSE stores one int32 per embedding per level; a tuple store pays
    CPython object overhead per embedding."""

    def measure():
        graph = bench_graph("patent")
        cse = CSE(np.arange(graph.num_vertices))
        expand_vertex_level(graph, cse)
        expand_vertex_level(graph, cse)
        embeddings = [emb for _, emb in cse.iter_embeddings()]
        tuple_bytes = len(embeddings) * (56 + 8 * 3 + 8)
        return cse.nbytes_in_memory, tuple_bytes, len(embeddings)

    cse_bytes, tuple_bytes, count = run_once(benchmark, measure)
    factor = tuple_bytes / cse_bytes
    emit(
        format_table(
            ["store", "bytes", "bytes/embedding"],
            [
                ["CSE (all levels)", f"{cse_bytes:,}", f"{cse_bytes / count:.1f}"],
                ["tuple store (top level only)", f"{tuple_bytes:,}",
                 f"{tuple_bytes / count:.1f}"],
            ],
            title=f"Ablation — CSE vs tuple store over {count:,} 3-embeddings "
                  f"(profile: {PROFILE})",
        )
        + f"\nCSE advantage: {factor:.1f}x",
        name="ablation_cse_store",
    )
    assert factor > 3.0


@pytest.mark.benchmark(group="ablation")
def test_ablation_hash_memoisation(benchmark, emit):
    """The normalised-structure cache vs the paper's per-embedding regime."""

    def measure():
        graph = bench_graph("mico")
        cached = KaleidoEngine(graph).run(MotifCounting(3))
        uncached = KaleidoEngine(graph).run(
            MotifCounting(3, hash_every_embedding=True)
        )
        assert dict(cached.value) == dict(uncached.value)
        return cached.wall_seconds, uncached.wall_seconds

    cached_s, uncached_s = run_once(benchmark, measure)
    emit(
        f"Ablation — pattern-hash memoisation (3-Motif, mico, {PROFILE})\n"
        f"  memoised:        {cached_s:.3f}s\n"
        f"  per-embedding:   {uncached_s:.3f}s\n"
        f"  speedup:         {uncached_s / cached_s:.1f}x",
        name="ablation_hash_memo",
    )
    assert uncached_s > cached_s


@pytest.mark.benchmark(group="ablation")
def test_ablation_async_writer(benchmark, emit):
    """Background writing queue vs synchronous part writes.

    Spilled levels are read back through memory maps either way; only
    the write side differs.
    """

    def measure():
        graph = bench_graph("citeseer")
        results = {}
        for background in (True, False):
            with tempfile.TemporaryDirectory(prefix="abl-") as tmp:
                with KaleidoEngine(
                    graph,
                    storage_mode="spill-last",
                    spill_dir=tmp,
                    synchronous_io=not background,
                ) as engine:
                    results[background] = engine.run(MotifCounting(4))
        assert dict(results[True].value) == dict(results[False].value)
        return results[True].wall_seconds, results[False].wall_seconds

    async_s, sync_s = run_once(benchmark, measure)
    emit(
        f"Ablation — write overlap (4-Motif, citeseer, spill-last, {PROFILE})\n"
        f"  async writer:     {async_s:.3f}s\n"
        f"  synchronous I/O:  {sync_s:.3f}s\n"
        f"  overlap benefit:  {sync_s / async_s:.2f}x",
        name="ablation_async_writer",
    )
    # Overlap should never make things meaningfully slower.
    assert async_s < sync_s * 1.25 + 0.05


@pytest.mark.benchmark(group="ablation")
def test_ablation_partitioning(benchmark, emit):
    """Predicted-cost partitioning flattens part-cost variance."""

    def measure():
        graph = bench_graph("youtube")
        cse = CSE(np.arange(graph.num_vertices))
        expand_vertex_level(graph, cse)
        costs = predict_vertex_costs(graph, cse)
        even = partition_quality(even_parts(cse.size(), 32), costs)
        pred = partition_quality(balanced_parts(costs, 32), costs)
        return even, pred

    even, pred = run_once(benchmark, measure)
    emit(
        f"Ablation — partitioning under predicted costs (youtube, {PROFILE})\n"
        f"  even count split: imbalance {even.imbalance:.2f} "
        f"(max part {even.max_cost:.0f})\n"
        f"  predicted split:  imbalance {pred.imbalance:.2f} "
        f"(max part {pred.max_cost:.0f})",
        name="ablation_partitioning",
    )
    assert pred.imbalance <= even.imbalance
