"""The memoised and per-embedding hashing regimes agree everywhere."""

from repro import FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.baselines import BlissLikeHasher
from repro.core import PatternHasher
from repro.graph import datasets
from tests.conftest import random_labeled_graph


def test_motif_modes_agree(paper_graph):
    memo = KaleidoEngine(paper_graph).run(MotifCounting(4))
    per = KaleidoEngine(paper_graph).run(MotifCounting(4, hash_every_embedding=True))
    assert dict(memo.value) == dict(per.value)


def test_fsm_modes_agree():
    graph = random_labeled_graph(14, 30, 2, seed=303)
    memo = KaleidoEngine(graph).run(FrequentSubgraphMining(2, 3, exact_mni=True))
    per = KaleidoEngine(graph).run(
        FrequentSubgraphMining(2, 3, exact_mni=True, hash_every_embedding=True)
    )
    assert dict(memo.value) == dict(per.value)


def test_pattern_hasher_cache_off_still_correct(paper_graph):
    cached = KaleidoEngine(paper_graph, hasher=PatternHasher(cache=True)).run(
        MotifCounting(3)
    )
    uncached = KaleidoEngine(paper_graph, hasher=PatternHasher(cache=False)).run(
        MotifCounting(3)
    )
    assert dict(cached.value) == dict(uncached.value)


def test_cache_off_counts_every_miss(paper_graph):
    hasher = PatternHasher(cache=False)
    engine = KaleidoEngine(paper_graph, hasher=hasher)
    engine.run(MotifCounting(3, hash_every_embedding=True))
    # 8 3-embeddings hashed individually, zero hits.
    assert hasher.misses == 8
    assert hasher.hits == 0


def test_bliss_cache_off_counts(paper_graph):
    hasher = BlissLikeHasher(cache=False)
    engine = KaleidoEngine(paper_graph, hasher=hasher)
    engine.run(MotifCounting(3, hash_every_embedding=True))
    assert hasher.misses == 8
    assert hasher.total_allocations > 0


def test_fsm_insertion_counters():
    graph = random_labeled_graph(14, 30, 2, seed=404)
    app = FrequentSubgraphMining(2, 3)
    KaleidoEngine(graph).run(app)
    assert app.total_mapped > 0
    assert app.total_insertions > 0
    # Exact mode inserts at least as much as the short-circuit mode.
    exact = FrequentSubgraphMining(2, 3, exact_mni=True)
    KaleidoEngine(graph).run(exact)
    assert exact.total_insertions >= app.total_insertions


def test_fsm_hashes_once_per_class():
    """FSM hands the hasher each part's canonical class rows, so a cold
    run misses once per pattern class — one memo entry and one
    representative each — and no class is hashed twice."""
    with KaleidoEngine(datasets.load("citeseer", "tiny")) as engine:
        engine.run(FrequentSubgraphMining(2, support=3))
        hasher = engine.hasher
    assert hasher.misses > 0
    assert hasher.misses == len(hasher) == len(hasher._representatives)
