"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these quantify the contribution of each mechanism:

1. CSE vs an explicit tuple store (space per embedding).
2. EigenHash memoisation on/off (the production cache vs the paper's
   per-embedding hashing).
3. Prediction-based vs contiguous even partitioning (imbalance of the
   next level's true per-part work).
"""

import numpy as np
import pytest

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.balance import balanced_parts, partition_quality, predict_costs
from repro.bench import PROFILE, bench_graph, format_table
from repro.core import CSE
from repro.core.explore import even_parts, expand_vertex_level
from repro.core.kernels import vertex_kernel_context

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
    """The structure-keyed hash memo vs the paper's per-embedding regime."""

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
def test_ablation_partitioning(benchmark, emit):
    """Partitioning by the kernel's gather lengths evens the next level's
    work per part.

    Each split of the 3-embeddings is scored against the true per-row
    counts of the 4-embeddings the next expansion emits, not against the
    costs it was cut from."""
    parts = 8

    def measure():
        scores = []
        for dataset in ("mico", "patent"):
            graph = bench_graph(dataset)
            cse = CSE(np.arange(graph.num_vertices))
            for _ in range(2):
                expand_vertex_level(graph, cse)
            costs = predict_costs(vertex_kernel_context(graph), cse)
            expand_vertex_level(graph, cse)
            emitted = np.diff(cse.top.off_array())
            even = partition_quality(even_parts(emitted.shape[0], parts), emitted)
            pred = partition_quality(balanced_parts(costs, parts), emitted)
            scores.append((dataset, even, pred))
        return scores

    scores = run_once(benchmark, measure)
    emit(
        format_table(
            ["graph", "even split", "predicted split"],
            [
                [dataset, f"{even.imbalance:.2f}", f"{pred.imbalance:.2f}"]
                for dataset, even, pred in scores
            ],
            title=(
                f"Ablation — imbalance (max / mean part) of the 4-embeddings "
                f"emitted per part, {parts} parts over the 3-embeddings "
                f"(profile: {PROFILE})"
            ),
        ),
        name="ablation_partitioning",
    )
    for _, even, pred in scores:
        assert pred.imbalance <= even.imbalance
