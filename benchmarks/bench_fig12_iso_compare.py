"""Figure 12: EigenHash vs the bliss-like search-tree checker.

As in the paper, the isomorphism checker inside Kaleido is swapped
(everything else identical) and the same applications are run:
3-Motif / 3-FSM over Patent, MiCo, Youtube; 4-Motif / 4-FSM over Patent;
5-Motif / 5-FSM over CiteSeer.  Both checkers run in the paper's regime —
one fingerprint computation per embedding, no memoisation (the memoised
production mode is quantified separately in the caching ablation).

Paper shape: EigenHash wins more on motif counting (5.8x) than on FSM
(2.1x), and the checker's own memory is smaller on FSM (3.1x).
"""

import time
from unittest import mock

import numpy as np
import pytest

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.apps.mni import canonical_placements
from repro.baselines import BlissLikeHasher
from repro.bench import format_table, geomean
from repro.core import PatternHasher, eigenhash
from repro.core.eigenhash import MAX_EIGENHASH_VERTICES, eigen_hash, eigen_hash_codes
from repro.core.pattern import Pattern, triangle_index
from repro.graph import datasets

from conftest import run_once

#: Per-embedding hashing is ~100x slower than the memoised production
#: path, so this experiment runs on the tiny profile.
PROFILE12 = "tiny"

CASES = [
    ("motif", 3, "patent"),
    ("motif", 3, "mico"),
    ("motif", 3, "youtube"),
    ("fsm", 3, "patent"),
    ("fsm", 3, "mico"),
    ("fsm", 3, "youtube"),
    # The paper runs the 4-vertex cases on Patent and the 5-vertex cases
    # on CiteSeer; per-embedding hashing in pure Python forces both onto
    # an even sparser CiteSeer-like stand-in ("mini", below) — a
    # documented deviation.  Power-law hubs make 4-/5-edge subgraph counts
    # explode combinatorially on anything denser.
    ("motif", 4, "mini"),
    ("fsm", 4, "mini"),
    ("motif", 5, "mini"),
    ("fsm", 5, "mini"),
]

FSM_SUPPORT = 4


def _graph(name: str):
    if name == "mini":
        from repro.graph import chung_lu, ensure_connected_core

        return ensure_connected_core(
            chung_lu(250, 340, seed=11, num_labels=6, exponent=2.8), seed=1
        )
    return datasets.load(name, PROFILE12)


def _app(kind: str, k: int):
    if kind == "motif":
        return MotifCounting(k, hash_every_embedding=True)
    return FrequentSubgraphMining(
        num_edges=k - 1, support=FSM_SUPPORT, hash_every_embedding=True
    )


@pytest.mark.benchmark(group="fig12")
def test_fig12_iso_compare(benchmark, emit):
    rows = []
    motif_speedups, fsm_speedups = [], []
    fsm_memory_factors = []

    def run_cases():
        for kind, k, dataset in CASES:
            graph = _graph(dataset)
            with KaleidoEngine(graph, hasher=PatternHasher(cache=False)) as eng:
                eig = eng.run(_app(kind, k))
                eig_hmem = eng.hasher.nbytes
                eig_calls = eng.hasher.misses
            with KaleidoEngine(graph, hasher=BlissLikeHasher(cache=False)) as eng:
                bliss = eng.run(_app(kind, k))
                bliss_hmem = eng.hasher.nbytes
            if isinstance(eig.value, dict):
                assert sorted(eig.value.values()) == sorted(bliss.value.values())
            speedup = bliss.wall_seconds / max(eig.wall_seconds, 1e-9)
            mem_factor = bliss_hmem / max(eig_hmem, 1)
            rows.append(
                [
                    f"{k}-{kind}",
                    dataset,
                    str(eig_calls),
                    f"{eig.wall_seconds:.3f}",
                    f"{bliss.wall_seconds:.3f}",
                    f"{speedup:.2f}x",
                    f"{mem_factor:.2f}x",
                ]
            )
            if kind == "motif":
                motif_speedups.append(speedup)
            else:
                fsm_speedups.append(speedup)
                fsm_memory_factors.append(mem_factor)
        return rows

    run_once(benchmark, run_cases)
    table = format_table(
        [
            "App", "Dataset", "hash calls", "EigenHash (s)", "bliss-like (s)",
            "speedup", "checker-mem factor",
        ],
        rows,
        title=f"Figure 12 — isomorphism checking comparison (profile: {PROFILE12})",
    )
    summary = (
        f"\nGeoMean speedup: motif {geomean(motif_speedups):.2f}x, "
        f"FSM {geomean(fsm_speedups):.2f}x (paper: 5.8x / 2.1x); "
        f"FSM checker-memory factor {geomean(fsm_memory_factors):.2f}x "
        f"(paper: 3.1x)"
    )
    emit(table + summary, name="fig12_iso_compare")

    # Paper shapes: EigenHash wins clearly on motifs, and its motif-side
    # advantage exceeds the FSM-side one (5.8x vs 2.1x).  At our tiny
    # pattern sizes labeled refinement is nearly free for the search
    # tree, so the FSM side can compress toward parity — we require it
    # not to invert materially.
    assert geomean(motif_speedups) > 1.0
    assert geomean(motif_speedups) > geomean(fsm_speedups)
    assert geomean(fsm_speedups) > 0.85
    assert geomean(fsm_memory_factors) > 1.0


#: Batch sizes of the per-k cost table's batched pass.
HASH_BATCHES = (1, 32, 4096)

#: Distinct codes timed through ``canonical_placements`` per k: its
#: ``k!`` permutation table makes one 7-vertex code cost milliseconds.
CANON_CODES = {3: 512, 4: 512, 5: 512, 6: 128, 7: 16}


def _connected_corpus(k: int, count: int, rng) -> list[Pattern]:
    """Connected patterns on ``k`` vertices with 4 vertex labels: a random
    spanning tree plus each other cell with probability 0.3."""
    corpus = []
    for _ in range(count):
        bits = 0
        for j in range(1, k):
            bits |= 1 << triangle_index(int(rng.integers(0, j)), j, k)
        for cell in range(k * (k - 1) // 2):
            if rng.random() < 0.3:
                bits |= 1 << cell
        corpus.append(Pattern(tuple(int(x) for x in rng.integers(0, 4, size=k)), bits))
    return corpus


def _us_per_item(action, items: int) -> float:
    started = time.perf_counter()
    action()
    return (time.perf_counter() - started) * 1e6 / items


@pytest.mark.benchmark(group="fig12")
def test_fig12_hash_cost_per_k(benchmark, emit):
    """Microseconds per code, per vertex count: scalar ``eigen_hash``, the
    batched ``eigen_hash_codes`` at three batch sizes, and the block
    mappers' ``canonical_placements`` per distinct code — the costs that
    decide which pattern key the mappers should use."""
    rows = []

    def run_cases():
        rng = np.random.default_rng(12)
        # EigenHash refuses patterns above its audited bound.
        for k in range(3, MAX_EIGENHASH_VERTICES + 1):
            corpus = _connected_corpus(k, max(HASH_BATCHES), rng)
            codes = np.array([p.to_code(k) for p in corpus], dtype=np.int64)
            want = []
            scalar = _us_per_item(lambda: want.extend(eigen_hash(p) for p in corpus[:512]), 512)
            assert eigen_hash_codes(codes[:512], k).tolist() == want
            batched = []
            for size in HASH_BATCHES:
                calls = max(1, 512 // size)
                batched.append(
                    _us_per_item(
                        lambda: [eigen_hash_codes(codes[i * size : (i + 1) * size], k) for i in range(calls)],
                        calls * size,
                    )
                )
            with mock.patch.object(eigenhash, "eigen_hash", wraps=eigen_hash) as fallback:
                eigen_hash_codes(codes, k)
            distinct = np.unique(codes, axis=0)[: CANON_CODES[k]]
            canon = _us_per_item(lambda: canonical_placements(distinct, k), distinct.shape[0])
            rows.append(
                [
                    str(k),
                    f"{scalar:.1f}",
                    *(f"{us:.1f}" for us in batched),
                    f"{fallback.call_count / codes.shape[0]:.0%}",
                    f"{canon:.1f}",
                ]
            )
            assert batched[-1] < scalar or fallback.call_count
        return rows

    run_once(benchmark, run_cases)
    table = format_table(
        [
            "k", "eigen_hash", *(f"batched@{size}" for size in HASH_BATCHES),
            "scalar fallback", "canonical_placements",
        ],
        rows,
        title="Figure 12 (per k) — µs per code, connected patterns, 4 vertex labels",
    )
    emit(table, name="fig12_hash_per_k")
