"""Unit tests for candidate-size prediction (Figure 8)."""

from functools import partial

import numpy as np
import pytest

from repro.balance import predict_edge_costs, predict_vertex_costs
from repro.core import CSE, kernels
from repro.core.explore import expand_edge_level, expand_vertex_level
from repro.graph.edge_index import EdgeIndex
from repro.storage import PartStore, SpilledLevel
from repro.storage.hybrid import spill_level
from tests.conftest import random_labeled_graph


def test_vertex_costs_level1_are_degrees(paper_graph):
    cse = CSE(np.arange(6))
    costs = predict_vertex_costs(paper_graph, cse)
    assert costs.tolist() == paper_graph.degrees().tolist()


def test_vertex_costs_shape_and_positivity(paper_graph):
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    costs = predict_vertex_costs(paper_graph, cse)
    assert costs.shape[0] == cse.size()
    assert np.all(costs > 0)


def test_vertex_costs_upper_bound_real_candidates(paper_graph):
    """Prediction approximates the real candidate count from above-ish:
    it merges the sibling slice (canonical candidates of the prefix) with
    the full neighborhood of the last vertex, so it is never smaller than
    the number of canonical extensions actually emitted."""
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    costs = predict_vertex_costs(paper_graph, cse)
    expand_vertex_level(paper_graph, cse)
    off = cse.top.off_array()
    emitted = np.diff(off)
    assert np.all(costs >= emitted)


def test_figure8_semantics(paper_graph):
    """Candidates of <1,2> = siblings({2,5}) ∪ N(2) = {2,5} ∪ {1,3,5}."""
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    costs = predict_vertex_costs(paper_graph, cse)
    embeddings = [e for _, e in cse.iter_embeddings()]
    idx = embeddings.index((1, 2))
    assert costs[idx] == len({2, 5} | {1, 3, 5})


def test_edge_costs_level1(paper_graph):
    index = EdgeIndex(paper_graph)
    cse = CSE(np.arange(index.num_edges))
    costs = predict_edge_costs(index, cse)
    assert costs.shape[0] == index.num_edges
    # Each edge's candidates = union of both endpoints' incident lists.
    for eid in range(index.num_edges):
        u, v = index.endpoints(eid)
        expected = len(set(index.incident_edges(u)) | set(index.incident_edges(v)))
        assert costs[eid] == expected


def test_edge_costs_deeper(paper_graph):
    index = EdgeIndex(paper_graph)
    cse = CSE(np.arange(index.num_edges))
    expand_edge_level(paper_graph, index, cse)
    costs = predict_edge_costs(index, cse)
    assert costs.shape[0] == cse.size()
    assert np.all(costs > 0)


# ----------------------------------------------------------------------
# Differential: the vectorised predictors against the scalar loops they
# replaced, which are kept here as the oracle.
# ----------------------------------------------------------------------
def _top_with_parents(cse):
    """``(position, parent, last id)`` over the top level in storage
    order; ``parent`` is -1 at the root level."""
    last = cse.decode_block(0, cse.size())[:, -1].tolist()
    if cse.depth == 1:
        for pos, child in enumerate(last):
            yield pos, -1, child
        return
    off = cse.top.off_array().tolist()
    for parent in range(len(off) - 1):
        for pos in range(off[parent], off[parent + 1]):
            yield pos, parent, last[pos]


def _sibling_groups(cse):
    """``[(positions, children)]`` per parent with children."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for pos, parent, child in _top_with_parents(cse):
        positions, children = groups.setdefault(parent, ([], []))
        positions.append(pos)
        children.append(child)
    return list(groups.values())


def oracle_vertex_costs(graph, cse):
    costs = np.zeros(cse.size(), dtype=np.int64)
    if cse.depth == 1:
        costs[:] = graph.degrees()[cse.levels[0].vert_array()]
        return costs
    adjacency = graph.adjacency_sets()
    for positions, children in _sibling_groups(cse):
        siblings = set(children)
        for position, child in zip(positions, children):
            costs[position] = len(siblings | adjacency[child])
    return costs


def oracle_edge_costs(index, cse):
    costs = np.zeros(cse.size(), dtype=np.int64)
    eu, ev = index.edge_u.tolist(), index.edge_v.tolist()
    incident = [index.incident_edges(v).tolist() for v in range(index.graph.num_vertices)]
    if cse.depth == 1:
        for pos, _, eid in _top_with_parents(cse):
            costs[pos] = len(set(incident[eu[eid]]) | set(incident[ev[eid]]))
        return costs
    for positions, children in _sibling_groups(cse):
        siblings = set(children)
        for position, child in zip(positions, children):
            merged = siblings.copy()
            merged.update(incident[eu[child]])
            merged.update(incident[ev[child]])
            costs[position] = len(merged)
    return costs


def _levels(graph, mode, depth):
    """A CSE grown to ``depth`` levels in one exploration mode, with the
    predictor and its oracle bound to it."""
    if mode == "vertex":
        cse = CSE(np.arange(graph.num_vertices))
        for _ in range(depth - 1):
            expand_vertex_level(graph, cse)
        predict, oracle = predict_vertex_costs, oracle_vertex_costs
        return cse, partial(predict, graph, cse), partial(oracle, graph, cse)
    index = EdgeIndex(graph)
    cse = CSE(np.arange(index.num_edges))
    for _ in range(depth - 1):
        expand_edge_level(graph, index, cse)
    return cse, partial(predict_edge_costs, index, cse), partial(oracle_edge_costs, index, cse)


@pytest.fixture(params=[None, 5], ids=["budget-default", "budget-5"])
def pair_budget(request, monkeypatch):
    """Run under the default PAIR_BUDGET and under a tiny one that cuts
    every level into many parent-aligned chunks."""
    if request.param is not None:
        monkeypatch.setattr(kernels, "PAIR_BUDGET", request.param)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_vectorised_costs_match_scalar_oracle(mode, depth, pair_budget):
    for seed in range(4):
        graph = random_labeled_graph(14, 30, 1, seed=seed)
        cse, predict, oracle = _levels(graph, mode, depth)
        assert np.array_equal(predict(), oracle()), (seed, mode, depth)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_costs_over_compacted_top_level(mode, pair_budget):
    graph = random_labeled_graph(14, 30, 1, seed=11)
    cse, predict, oracle = _levels(graph, mode, 3)
    keep = np.random.default_rng(0).random(cse.size()) < 0.5
    cse.filter_top_level(keep)
    assert np.array_equal(predict(), oracle())


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_costs_over_spilled_top_level_read_through_mmap(mode, tmp_path, monkeypatch):
    graph = random_labeled_graph(14, 30, 1, seed=5)
    cse, predict, oracle = _levels(graph, mode, 3)
    expected = oracle()
    cse.append_level(spill_level(cse.pop_level(), PartStore(str(tmp_path)), part_entries=7))

    def no_load(self):
        raise AssertionError("spilled top level must be read through its mmap accessor")

    monkeypatch.setattr(SpilledLevel, "vert_array", no_load)
    assert np.array_equal(predict(), expected)
    assert np.array_equal(oracle(), expected)
