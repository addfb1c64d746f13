"""Unit tests for frequent subgraph mining."""

import numpy as np
import pytest

from repro import FrequentSubgraphMining, KaleidoEngine
from repro.apps.fsm_vertex import VertexInducedFSM
from repro.apps.mni import mni_state
from repro.baselines.mni_sets import edge_pattern_supports
from repro.apps.reference import fsm_naive
from repro.core.isomorphism import canonical_form, pattern_from_key
from repro.core.pattern import MAX_EIGENHASH_VERTICES
from repro.graph import datasets
from repro.graph.generators import chung_lu
from tests.conftest import random_labeled_graph


def test_edge_pattern_supports(labeled_square):
    supports = edge_pattern_supports(labeled_square)
    # Square 0-1-2-3 with chord (0,2); labels [0,1,0,1]; edge label 0.
    # (0,1)-labeled edges: (0,1),(1,2),(2,3),(3,0) → domains {0,2} × {1,3}.
    assert supports[(0, 1, 0)].support == 2
    # (0,0)-labeled edge: the chord (0,2) → both endpoints in both domains.
    assert supports[(0, 0, 0)].support == 2


def test_single_edge_fsm(labeled_square):
    result = KaleidoEngine(labeled_square).run(
        FrequentSubgraphMining(num_edges=1, support=2, exact_mni=True)
    )
    assert sorted(result.value.values()) == [2, 2]


def test_single_edge_fsm_keeps_no_row_hashes_after_the_run(labeled_square):
    """One edge means no iteration, so no ``prune`` follows the only
    aggregation: ``finalize`` drops its per-row hashes instead."""
    app = FrequentSubgraphMining(num_edges=1, support=2, exact_mni=True)
    assert app.iterations() == 0
    result = KaleidoEngine(labeled_square, workers=4).run(app)
    assert app._iter_rows == []
    assert sorted(result.value.values()) == [2, 2]
    assert sorted(result.value.values()) == sorted(fsm_naive(labeled_square, 1, 2).values())
    # The reduce's cost counters read what they read before finalize
    # cleared the hashes.
    assert app.total_mapped == labeled_square.num_edges == 5
    assert app.total_insertions == 11


def test_matches_naive_exact_mni():
    for seed in range(4):
        g = random_labeled_graph(12, 22, 2, seed=40 + seed)
        for num_edges in (1, 2, 3):
            for support in (2, 3):
                got = KaleidoEngine(g).run(
                    FrequentSubgraphMining(num_edges, support, exact_mni=True)
                )
                expected = fsm_naive(g, num_edges, support)
                assert sorted(got.value.values()) == sorted(expected.values()), (
                    seed, num_edges, support,
                )


def test_threshold_mode_finds_same_frequent_set():
    """Short-circuit counting caps reported supports at the threshold but
    must identify exactly the same frequent patterns."""
    for seed in range(3):
        g = random_labeled_graph(14, 30, 2, seed=80 + seed)
        exact = KaleidoEngine(g).run(
            FrequentSubgraphMining(2, 3, exact_mni=True)
        )
        fast = KaleidoEngine(g).run(
            FrequentSubgraphMining(2, 3, exact_mni=False)
        )
        assert set(exact.value) == set(fast.value)
        for phash, support in fast.value.items():
            assert support >= 3
            assert exact.value[phash] >= support


def test_high_support_yields_nothing():
    g = random_labeled_graph(10, 15, 3, seed=5)
    result = KaleidoEngine(g).run(FrequentSubgraphMining(2, 1000))
    assert dict(result.value) == {}


def test_infrequent_embeddings_pruned(labeled_square):
    """The CSE top level shrinks when patterns are pruned."""
    app = FrequentSubgraphMining(2, 2, exact_mni=True)
    result = KaleidoEngine(labeled_square).run(app)
    # Level sizes: 5 frequent edges, then pruned 2-edge embeddings.
    assert result.level_sizes[0] == 5
    assert result.level_sizes[1] <= 8


def test_representatives_have_right_size(labeled_square):
    result = KaleidoEngine(labeled_square).run(
        FrequentSubgraphMining(2, 2, exact_mni=True)
    )
    for pattern in result.value.patterns.values():
        assert pattern.num_edges == 2


def test_frequent_method():
    g = random_labeled_graph(12, 25, 2, seed=9)
    result = KaleidoEngine(g).run(FrequentSubgraphMining(2, 2, exact_mni=True))
    assert result.value.frequent(10**9) == {}
    assert result.value.frequent(2) == dict(result.value)


def test_validates_arguments():
    with pytest.raises(ValueError):
        FrequentSubgraphMining(0, 5)
    with pytest.raises(ValueError):
        FrequentSubgraphMining(2, 0)


def test_rejects_patterns_eigenhash_cannot_fingerprint():
    """num_edges edges span up to num_edges + 1 vertices: refused in the
    constructor, before any level is explored."""
    FrequentSubgraphMining(MAX_EIGENHASH_VERTICES - 1, 1)
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        FrequentSubgraphMining(MAX_EIGENHASH_VERTICES, 1)


def test_representatives_are_canonical_under_any_executor():
    """Each reported pattern is its class's canonical form, whichever raw
    structure reached the hash memo first, so serial and threaded runs
    report the same structures."""
    graph = chung_lu(100, 300, 5, num_labels=3)
    reported = []
    for executor in ("serial", "threads"):
        with KaleidoEngine(graph, executor=executor, workers=2) as engine:
            patterns = engine.run(FrequentSubgraphMining(3, 2)).value.patterns
        for pattern in patterns.values():
            assert pattern == pattern_from_key(canonical_form(pattern)[0])
        reported.append(patterns)
    assert reported[0] == reported[1]


def test_anti_monotone_pruning_consistency():
    """Frequent (k+1)-patterns only extend frequent k-patterns: mining with
    a lower support never loses patterns found at a higher support."""
    g = random_labeled_graph(14, 30, 2, seed=13)
    high = KaleidoEngine(g).run(FrequentSubgraphMining(3, 4, exact_mni=True))
    low = KaleidoEngine(g).run(FrequentSubgraphMining(3, 2, exact_mni=True))
    assert set(high.value) <= set(low.value)


def test_name():
    assert FrequentSubgraphMining(2, 300).name == "3-FSM(s=300)"


def test_pattern_map_is_a_view_of_one_array_state():
    """Every value of an FSM pattern map views one ``MNIState``; the
    accounted size is its array bytes plus a slot per pattern, and the
    views' own ``nbytes`` add up to the state's."""
    g = random_labeled_graph(20, 50, 2, seed=3)
    app = FrequentSubgraphMining(2, 2)
    result = KaleidoEngine(g).run(app)
    state = mni_state(result.pattern_map)
    assert all(dom.state is state for dom in result.pattern_map.values())
    assert [dom.group for dom in result.pattern_map.values()] == list(range(len(state.hashes)))
    assert list(result.pattern_map) == state.hashes.tolist()
    assert app.pmap_nbytes(result.pattern_map) == state.nbytes + 120 * len(result.pattern_map)
    assert sum(dom.nbytes for dom in result.pattern_map.values()) == state.nbytes
    assert state.keys.dtype == np.int64 and np.all(np.diff(state.keys) > 0)
    for dom in result.pattern_map.values():
        assert dom.support == min(len(domain) for domain in dom.domains)
    assert app.pmap_nbytes({}) == 0


@pytest.mark.parametrize("exact_mni", [False, True])
def test_reduced_map_holds_only_frequent_patterns_in_any_id_order(exact_mni):
    """Listing 1's PatternFilter runs in ``reduce``: on the star-plus-edge
    graph a pruned level reaches a support-1 pattern from one id order
    and not from another, and neither reduced map keeps it."""
    from repro.apps import VertexInducedFSM
    from repro.graph import from_edge_list

    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]
    new_id = [0, 4, 2, 3, 1]
    graph = from_edge_list(edges)
    relabelled = from_edge_list([(new_id[u], new_id[v]) for u, v in edges])
    results = [
        KaleidoEngine(g).run(VertexInducedFSM(4, support=2, exact_mni=exact_mni))
        for g in (graph, relabelled)
    ]
    assert [r.level_sizes for r in results] == [[5, 5, 1, 0]] * 2
    maps = [r.pattern_map for r in results]
    assert list(maps[0]) == list(maps[1])
    for pattern_map, result in zip(maps, results):
        assert all(dom.support >= 2 for dom in pattern_map.values())
        assert dict(result.value) == {h: d.support for h, d in pattern_map.items()}
    assert dict(results[0].value) == dict(results[1].value)


@pytest.mark.parametrize(
    "make",
    [lambda: FrequentSubgraphMining(3, 3), lambda: VertexInducedFSM(4, 3)],
    ids=["fsm", "vfsm"],
)
def test_short_circuit_answer_is_the_same_at_every_worker_count(make):
    """The short-circuit stops counting at a step set by the part cut (one
    part per worker), so only the capped support is the answer: equal
    values, and equal pattern maps up to the domains' contents (which
    patterns, in which order, frozen or not, support capped)."""
    graph = datasets.load("citeseer", "tiny")
    runs = []
    for workers in (1, 2, 4):
        with KaleidoEngine(graph, workers=workers) as engine:
            runs.append(engine.run(make()))
    base = runs[0]
    assert all(value == 3 for value in base.value.values())
    for run in runs[1:]:
        assert dict(run.value) == dict(base.value)
        assert list(run.value) == list(base.value)
        assert [(h, d.frozen, min(d.support, 3)) for h, d in run.pattern_map.items()] == [
            (h, d.frozen, min(d.support, 3)) for h, d in base.pattern_map.items()
        ]
