"""Unit tests for the sampling-based approximate motif counter."""

import math

import numpy as np
import pytest

from repro import KaleidoEngine, MotifCounting
from repro.apps import ApproximateMotifCounting, MotifEstimate, approximate_motifs
from repro.core import kernels
from repro.core.cse import CSE
from repro.core.eigenhash import PatternHasher
from repro.core.explore import canonical_extensions, expand_vertex_level
from repro.core.pattern import MAX_EIGENHASH_VERTICES, Pattern
from repro.graph import GraphBuilder, from_edge_list
from tests.conftest import random_labeled_graph


def _per_parent_oracle(graph, k, samples, seed=0):
    """The per-parent loop the block sampler replaced: every parent as a
    tuple, scalar canonical extensions per pick, one ``Pattern`` per
    candidate.  Bit-identical to :func:`approximate_motifs` on graphs
    without edge labels."""
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(k - 2):
        expand_vertex_level(graph, cse)
    parents = [emb for _, emb in cse.iter_embeddings()]
    if not parents:
        return {}
    picks = np.random.default_rng(seed).integers(len(parents), size=samples)
    hasher = PatternHasher()
    counts: dict[int, int] = {}
    squares: dict[int, int] = {}
    for pick in picks.tolist():
        emb = parents[pick]
        local: dict[int, int] = {}
        for cand in canonical_extensions(graph, emb):
            pattern = Pattern.from_vertex_embedding(graph, emb + (cand,), use_labels=False)
            phash = hasher.hash_pattern(pattern)
            local[phash] = local.get(phash, 0) + 1
        for phash, c in local.items():
            counts[phash] = counts.get(phash, 0) + c
            squares[phash] = squares.get(phash, 0) + c * c
    out = {}
    for phash, total in counts.items():
        mean = total / samples
        var = max(0.0, squares[phash] / samples - mean * mean)
        stderr = math.sqrt(var / samples) * len(parents)
        out[phash] = MotifEstimate(
            estimate=total * (len(parents) / samples), half_width=1.96 * stderr
        )
    return out


def _assert_same(graph, k, samples, seed):
    got = approximate_motifs(graph, k, samples, seed=seed)
    want = _per_parent_oracle(graph, k, samples, seed=seed)
    # Dataclass equality compares both floats exactly; lists check key order.
    assert list(got.items()) == list(want.items())
    return got


# ----------------------------------------------------------------------
# Differential: the block sampler against the per-parent loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("graph_seed, n, m", [(1, 20, 45), (4, 40, 110)])
@pytest.mark.parametrize("samples, seed", [(1, 0), (7, 3), (50, 1), (400, 11)])
def test_matches_per_parent_oracle(k, graph_seed, n, m, samples, seed):
    graph = random_labeled_graph(n, m, 2, seed=graph_seed)
    _assert_same(graph, k, samples, seed)


@pytest.mark.parametrize("k", [3, 4])
def test_matches_oracle_across_many_slabs(monkeypatch, k):
    """A tiny pair budget splits the picks into many slabs; classes,
    their order and the per-sample counts must not notice."""
    graph = random_labeled_graph(30, 80, 1, seed=6)
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 8)
    _assert_same(graph, k, 200, 2)


@pytest.mark.parametrize(
    "edges, k",
    [([], 3), ([(0, 1), (2, 3), (4, 5)], 4)],  # no 2-embeddings; no 3-embeddings
)
def test_empty_parent_level(edges, k):
    builder = GraphBuilder(6)
    for u, v in edges:
        builder.add_edge(u, v)
    graph = builder.build()
    assert approximate_motifs(graph, k, 50, seed=1) == {}
    assert _per_parent_oracle(graph, k, 50, seed=1) == {}


def test_picks_without_canonical_extensions():
    """Most parents are isolated edges with nothing to extend: their
    samples count zero for every class and still widen the intervals."""
    graph = from_edge_list([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (9, 10), (10, 8)])
    got = _assert_same(graph, 3, 50, 4)
    assert len(got) == 1
    assert all(est.half_width > 0 for est in got.values())


def test_edge_labels_do_not_split_classes():
    """Motif counting treats the graph as unlabelled (Section 6.2), edge
    labels included: the sampler reports no key the exact census lacks."""
    base = random_labeled_graph(30, 90, 1, seed=5)
    labels = np.random.default_rng(0).integers(3, size=base.num_edges)
    graph = base.with_edge_labels(labels)
    exact = KaleidoEngine(graph).run(MotifCounting(3)).value
    assert set(approximate_motifs(graph, 3, 2000)) <= set(exact)


# ----------------------------------------------------------------------
# The estimator against the exact census
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_seed", [21, 22, 23])
@pytest.mark.parametrize("k", [3, 4])
def test_estimator_unbiased_and_intervals_cover(graph_seed, k):
    """Over 200 seeds at 200 samples: the mean estimate sits within 10%
    of every class's exact count, and the 95% intervals hold the exact
    count at least 88% of the time pooled over classes (a class a run
    never saw counts as a miss)."""
    graph = random_labeled_graph(25, 100, 1, seed=graph_seed)
    exact = KaleidoEngine(graph).run(MotifCounting(k)).value
    trials = 200
    sums = dict.fromkeys(exact, 0.0)
    covered = 0
    for seed in range(trials):
        approx = approximate_motifs(graph, k, 200, seed=seed)
        assert set(approx) <= set(exact)
        for phash, count in exact.items():
            est = approx.get(phash, MotifEstimate(0.0, 0.0))
            sums[phash] += est.estimate
            covered += est.low <= count <= est.high
    assert covered / (trials * len(exact)) >= 0.88
    for phash, count in exact.items():
        assert abs(sums[phash] / trials - count) / count <= 0.10


# ----------------------------------------------------------------------
# Behaviour
# ----------------------------------------------------------------------
def test_full_sampling_has_small_error(paper_graph):
    """Sampling ~every parent should land close to the exact counts
    (sampling is with replacement, so not exactly equal)."""
    exact = KaleidoEngine(paper_graph).run(MotifCounting(3)).value
    approx = approximate_motifs(paper_graph, 3, samples=2000, seed=1)
    assert set(approx) == set(exact)
    for phash, estimate in approx.items():
        assert estimate.estimate == pytest.approx(exact[phash], rel=0.25)


def test_estimates_within_confidence_mostly():
    graph = random_labeled_graph(60, 200, 1, seed=3)
    exact = KaleidoEngine(graph).run(MotifCounting(3)).value
    approx = approximate_motifs(graph, 3, samples=400, seed=7)
    hits = sum(
        1
        for phash, est in approx.items()
        if est.low <= exact.get(phash, 0) <= est.high
    )
    assert hits >= max(1, len(approx) - 1)  # ~95% CIs; allow one miss


def test_deterministic_given_seed(paper_graph):
    a = approximate_motifs(paper_graph, 3, samples=50, seed=42)
    b = approximate_motifs(paper_graph, 3, samples=50, seed=42)
    assert {h: e.estimate for h, e in a.items()} == {
        h: e.estimate for h, e in b.items()
    }


def test_more_samples_tighter_intervals():
    graph = random_labeled_graph(50, 160, 1, seed=11)
    small = approximate_motifs(graph, 3, samples=50, seed=5)
    large = approximate_motifs(graph, 3, samples=2000, seed=5)
    common = set(small) & set(large)
    assert common
    small_width = sum(small[h].half_width for h in common)
    large_width = sum(large[h].half_width for h in common)
    assert large_width < small_width


def test_k4_sampling():
    graph = random_labeled_graph(30, 80, 1, seed=2)
    exact = KaleidoEngine(graph).run(MotifCounting(4)).value
    approx = approximate_motifs(graph, 4, samples=3000, seed=9)
    total_exact = sum(exact.values())
    total_est = sum(e.estimate for e in approx.values())
    assert total_est == pytest.approx(total_exact, rel=0.2)


def test_empty_graph():
    graph = from_edge_list([])
    assert approximate_motifs(graph, 3, samples=10) == {}


def test_validates_arguments():
    with pytest.raises(ValueError):
        ApproximateMotifCounting(2, 10)
    with pytest.raises(ValueError):
        ApproximateMotifCounting(3, 0)


def test_rejects_sizes_eigenhash_cannot_fingerprint(paper_graph):
    """k above EigenHash's bound fails before any level is explored."""
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        ApproximateMotifCounting(MAX_EIGENHASH_VERTICES + 1, 10)
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        approximate_motifs(paper_graph, MAX_EIGENHASH_VERTICES + 1, samples=10)
