"""Runs whose levels take a pattern gather explore the graph's
ascending-degree view; every other run explores the caller's graph.

The vertex ids such a run emits come back through
``EngineContext.input_ids``: materialised cliques and gathered matches
equal the chain-ordered brute-force list in the caller's ids (each tuple
ascending, the list lexicographic) whatever order the input ids are in.
"""

from itertools import combinations

import numpy as np
import pytest

from repro import (
    CliqueDiscovery,
    KaleidoEngine,
    MotifCounting,
    Pattern,
    TriangleCounting,
)
from repro.apps import PatternMatching
from repro.apps.reference import count_triangles_naive
from repro.graph import from_edge_list
from tests.conftest import random_labeled_graph


def _random_order(graph, seed):
    """``graph`` with its vertex ids (and labels) shuffled."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(graph.num_vertices)
    labels = np.empty_like(graph.labels)
    labels[new_id] = graph.labels
    edges = [(int(new_id[u]), int(new_id[v])) for u, v in graph.edges()]
    return from_edge_list(edges, labels=labels.tolist(), name=f"{graph.name}-shuffled")


def _descending_degree(graph):
    """``graph`` with the hubs at the lowest ids: the order the ascending
    view reverses most."""
    order = np.argsort(-graph.degrees(), kind="stable")
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.shape[0])
    edges = [(int(new_id[u]), int(new_id[v])) for u, v in graph.edges()]
    return from_edge_list(edges, labels=graph.labels[order].tolist())


def _brute_cliques(graph, k):
    """Every k-clique in the caller's ids, as a chain-restricted
    enumeration over those ids emits them."""
    return [
        combo
        for combo in combinations(range(graph.num_vertices), k)
        if all(graph.has_edge(a, b) for a, b in combinations(combo, 2))
    ]


def _complete(k, label=0):
    return Pattern((label,) * k, (1 << k * (k - 1) // 2) - 1)


class _Spy:
    """Records the graph each run's context carries."""

    def __init__(self):
        self.graphs = []

    def wrap(self, app):
        spy, init = self, app.init

        def recording_init(ctx):
            spy.graphs.append(ctx.graph)
            return init(ctx)

        app.init = recording_init
        return app


GRAPHS = [
    pytest.param(lambda: _random_order(random_labeled_graph(22, 90, 2, seed=5), 1), id="shuffled"),
    pytest.param(lambda: _descending_degree(random_labeled_graph(22, 90, 2, seed=6)), id="hubs-low"),
    pytest.param(lambda: random_labeled_graph(18, 70, 1, seed=7), id="random"),
]


@pytest.mark.parametrize("make_graph", GRAPHS)
@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("k", [3, 4])
def test_materialised_output_is_the_chain_ordered_brute_force_list(make_graph, executor, k):
    graph = make_graph()
    assert graph.degree_ordered() is not graph
    expected = _brute_cliques(graph, k)
    with KaleidoEngine(graph, workers=2, executor=executor) as engine:
        cliques = engine.run(CliqueDiscovery(k, materialize=True)).value
        matches = {
            label: engine.run(PatternMatching(_complete(k, label), materialize=True)).value
            for label in (0, 1)
        }
    assert cliques.cliques == expected
    assert cliques.count == len(expected)
    assert all(type(v) is int for row in cliques.cliques for v in row)
    for label, matched in matches.items():
        # Labels travel with the vertices: a K_k of one label matches the
        # cliques whose input vertices all carry it.
        assert matched.matches == [c for c in expected if set(graph.labels[list(c)]) == {label}]
    assert sum(len(m.matches) for m in matches.values()) > 0


def test_gathered_runs_explore_the_view_and_others_the_input():
    graph = _random_order(random_labeled_graph(20, 70, 2, seed=3), 4)
    view = graph.degree_ordered()
    graph.invalidate_caches()
    spy = _Spy()
    with KaleidoEngine(graph) as engine:
        # Building the engine does not build the view.
        assert graph._degree_view is None
        motif = engine.run(spy.wrap(MotifCounting(3)))
        assert graph._degree_view is None
        clique = engine.run(spy.wrap(CliqueDiscovery(3)))
        triangles = engine.run(spy.wrap(TriangleCounting()))
        path = Pattern.from_adjacency([0, 0, 0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        engine.run(spy.wrap(PatternMatching(path)))
    motif_graph, clique_graph, tc_graph, path_graph = spy.graphs
    assert motif_graph is graph and path_graph is graph
    assert clique_graph is tc_graph is graph.degree_ordered()
    assert clique_graph.input_ids.tolist() == view.input_ids.tolist()
    # The explored CSR is charged at the input's size.
    assert clique.memory_snapshot["graph"] == motif.memory_snapshot["graph"] == graph.nbytes
    assert triangles.value == count_triangles_naive(graph)


def test_input_ids_is_the_identity_on_an_unoriented_run():
    graph = from_edge_list([(0, 3), (1, 3), (2, 3), (1, 2)])
    assert graph.degree_ordered() is graph
    result = KaleidoEngine(graph).run(CliqueDiscovery(3, materialize=True))
    assert result.value.cliques == [(1, 2, 3)]


def test_invalidate_caches_rebuilds_the_view_after_an_in_place_mutation():
    """Two graphs with one degree sequence share ``indptr``: writing the
    second's neighbour lists into the first in place and invalidating
    must give the second's answers, not the cached view's."""
    before = from_edge_list([(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5)])
    after = from_edge_list([(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (4, 5)])
    assert before.indptr.tolist() == after.indptr.tolist()
    assert before.degree_ordered() is not before
    with KaleidoEngine(before, executor="threads", workers=2) as engine:
        assert engine.run(CliqueDiscovery(3, materialize=True)).value.cliques == [(0, 1, 2)]
        before.indices[:] = after.indices
        before.invalidate_caches()
        assert engine.run(CliqueDiscovery(3, materialize=True)).value.cliques == [(0, 2, 3)]
        matched = engine.run(PatternMatching(_complete(3), materialize=True)).value
        assert matched.matches == [(0, 2, 3)]


def test_concurrent_first_runs_share_one_correct_answer():
    """Service sessions run on many threads over one ``Graph``; first
    calls may race to build the view, and every run must still answer
    in input ids.  More threads than cores, a short switch interval."""
    import sys
    import threading

    graph = _descending_degree(random_labeled_graph(22, 90, 1, seed=8))
    expected = _brute_cliques(graph, 3)
    answers, errors = [], []

    def query():
        try:
            with KaleidoEngine(graph) as engine:
                answers.append(engine.run(CliqueDiscovery(3, materialize=True)).value.cliques)
        except Exception as exc:  # reported below, with the thread's answer missing
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert answers == [expected] * 8
