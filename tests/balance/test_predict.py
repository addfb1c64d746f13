"""Unit tests for candidate-size prediction: the kernel's gather lengths.

``predict_costs`` reads :func:`repro.core.kernels.gather_bounds`, the
same bounded slices the expansion kernel gathers; these tests hold it to
a scalar count, to what the kernel really gathers and emits, and to the
``PAIR_BUDGET`` chunk cuts made from it.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps import CliqueDiscovery
from repro.balance import predict_costs
from repro.core import CSE, Planner, kernels
from repro.core.explore import expand_edge_level, expand_vertex_level
from repro.graph.edge_index import EdgeIndex
from repro.graph.generators import chung_lu
from repro.storage import PartStore, SpilledLevel
from repro.storage.hybrid import spill_level
from tests.conftest import random_labeled_graph


def _vertex_costs(graph, cse, gather=None):
    return predict_costs(kernels.vertex_kernel_context(graph), cse, gather)


def test_vertex_costs_level1_count_higher_neighbors(paper_graph):
    """At the root a vertex gathers its neighbors above itself, so the
    costs sum to the edge count: the next level's exact size."""
    cse = CSE(np.arange(6))
    costs = _vertex_costs(paper_graph, cse)
    adjacency = paper_graph.adjacency_sets()
    assert costs.tolist() == [sum(w > v for w in adjacency[v]) for v in range(6)]
    assert int(costs.sum()) == paper_graph.num_edges


def test_vertex_costs_shape_and_positivity(paper_graph):
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    costs = _vertex_costs(paper_graph, cse)
    assert costs.shape[0] == cse.size()
    assert costs.dtype == np.int64
    assert np.all(costs > 0)


def test_vertex_costs_upper_bound_real_candidates(paper_graph):
    """Dedup, verification and membership only drop gathered pairs, so a
    row's gather length bounds its emitted children from above."""
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    costs = _vertex_costs(paper_graph, cse)
    expand_vertex_level(paper_graph, cse)
    assert np.all(costs >= np.diff(cse.top.off_array()))


def test_gather_length_semantics(paper_graph):
    """<1,2> gathers N(1) from max(1 + 1, 2) = 2 on, {2, 5}, and N(2)
    from 2 on, {3, 5}: four pairs, which dedup to the children 3 and 5."""
    cse = CSE(np.arange(6))
    expand_vertex_level(paper_graph, cse)
    costs = _vertex_costs(paper_graph, cse)
    embeddings = [e for _, e in cse.iter_embeddings()]
    assert costs[embeddings.index((1, 2))] == 4


def test_edge_costs_level1(paper_graph):
    index = EdgeIndex(paper_graph)
    cse = CSE(np.arange(index.num_edges))
    costs = predict_costs(kernels.edge_kernel_context(index), cse)
    assert costs.shape[0] == index.num_edges
    # Each edge gathers both endpoints' incident edges above itself.
    for eid in range(index.num_edges):
        u, v = index.endpoints(eid)
        expected = sum(
            int((index.incident_edges(w) > eid).sum()) for w in (u, v)
        )
        assert costs[eid] == expected


def test_edge_costs_deeper(paper_graph):
    index = EdgeIndex(paper_graph)
    cse = CSE(np.arange(index.num_edges))
    expand_edge_level(paper_graph, index, cse)
    costs = predict_costs(kernels.edge_kernel_context(index), cse)
    assert costs.shape[0] == cse.size()
    expand_edge_level(paper_graph, index, cse)
    assert np.all(costs >= np.diff(cse.top.off_array()))


# ----------------------------------------------------------------------
# Differential: the lengths against a scalar count and the kernel
# ----------------------------------------------------------------------
def scalar_lengths(cse, lists):
    """Per row: the neighbors ``>= lb_j`` in every gather list of entry
    ``j``, with ``lb_j = max(emb[0] + 1, max(emb[j + 1:]))`` — the
    kernel's bound for a gather column of arrival ``j``; ``lists(id)``
    gives an entry's gather lists (one per vertex, two per edge)."""
    out = []
    for row in cse.decode_block(0, cse.size()).tolist():
        total = 0
        for j, entry in enumerate(row):
            lb = max([row[0] + 1] + row[j + 1 :])
            for values in lists(entry):
                total += sum(w >= lb for w in values)
        out.append(total)
    return np.array(out, dtype=np.int64)


def _levels(graph, mode, depth):
    """A CSE grown to ``depth`` levels in one exploration mode, its
    kernel context and the scalar gather lists of one entry."""
    if mode == "vertex":
        cse = CSE(np.arange(graph.num_vertices))
        for _ in range(depth - 1):
            expand_vertex_level(graph, cse)
        adjacency = graph.adjacency_sets()
        return cse, kernels.vertex_kernel_context(graph), lambda v: [adjacency[v]]
    index = EdgeIndex(graph)
    cse = CSE(np.arange(index.num_edges))
    for _ in range(depth - 1):
        expand_edge_level(graph, index, cse)
    incident = [index.incident_edges(v).tolist() for v in range(graph.num_vertices)]
    return (
        cse,
        kernels.edge_kernel_context(index),
        lambda e: [incident[w] for w in index.endpoints(e)],
    )


def _expand(graph, cse, mode):
    if mode == "vertex":
        expand_vertex_level(graph, cse)
    else:
        expand_edge_level(graph, EdgeIndex(graph), cse)


class GatherSpy:
    """Records every ``_ranged_gather`` the kernel makes: per call, the
    gathered pair count per chunk row.  The canonical gather owns slice
    ``row * width + column``; the pattern gather one slice per row
    (``width`` 1)."""

    def __init__(self, monkeypatch, width=1):
        self.calls: list[np.ndarray] = []
        original = kernels._ranged_gather

        def spy(starts, ends, data, owners):
            values, owner = original(starts, ends, data, owners)
            rows = starts.shape[0] // width
            self.calls.append(np.bincount(owner // width, minlength=rows))
            return values, owner

        monkeypatch.setattr(kernels, "_ranged_gather", spy)

    def per_row(self) -> np.ndarray:
        return np.concatenate(self.calls) if self.calls else np.zeros(0, np.int64)


@pytest.fixture(params=[None, 5], ids=["budget-default", "budget-5"])
def pair_budget(request, monkeypatch):
    """Run under the default PAIR_BUDGET and under a tiny one that cuts
    every level into many chunks."""
    if request.param is not None:
        monkeypatch.setattr(kernels, "PAIR_BUDGET", request.param)
    return kernels.PAIR_BUDGET


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_vectorised_costs_match_scalar_oracle(mode, depth, pair_budget, monkeypatch):
    """The lengths equal the scalar count and the pairs the kernel
    gathers, row for row; every multi-row chunk gathers at most
    ``PAIR_BUDGET`` pairs."""
    for seed in range(4):
        graph = random_labeled_graph(14, 30, 1, seed=seed)
        cse, kctx, lists = _levels(graph, mode, depth)
        costs = predict_costs(kctx, cse)
        assert np.array_equal(costs, scalar_lengths(cse, lists)), seed
        block = cse.decode_block(0, cse.size())
        with monkeypatch.context() as patch:
            spy = GatherSpy(patch, width=depth * kctx.arity)
            kernels.expand_block(kctx, block)
        assert np.array_equal(spy.per_row(), costs), seed
        for per_row in spy.calls:
            assert per_row.shape[0] == 1 or per_row.sum() <= pair_budget


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_costs_over_compacted_top_level(mode, pair_budget):
    graph = random_labeled_graph(14, 30, 1, seed=11)
    cse, kctx, lists = _levels(graph, mode, 3)
    keep = np.random.default_rng(0).random(cse.size()) < 0.5
    cse.filter_top_level(keep)
    costs = predict_costs(kctx, cse)
    assert np.array_equal(costs, scalar_lengths(cse, lists))
    _expand(graph, cse, mode)
    assert np.all(costs >= np.diff(cse.top.off_array()))


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_costs_over_spilled_top_level_read_through_mmap(mode, tmp_path, monkeypatch):
    graph = random_labeled_graph(14, 30, 1, seed=5)
    cse, kctx, lists = _levels(graph, mode, 3)
    expected = predict_costs(kctx, cse)
    cse.append_level(spill_level(cse.pop_level(), PartStore(str(tmp_path)), part_entries=7))

    def no_load(self):
        raise AssertionError("spilled top level must be read through its mmap accessor")

    monkeypatch.setattr(SpilledLevel, "vert_array", no_load)
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 5)
    assert np.array_equal(predict_costs(kctx, cse), expected)
    assert np.array_equal(expected, scalar_lengths(cse, lists))


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_costs_bound_children_on_randomly_pruned_levels(mode):
    """A row's length bounds its emitted children however its level was
    pruned: the sibling-union prediction it replaced fell short on
    rows whose siblings had been pruned away."""
    graph = chung_lu(60, 240, 2)
    cse, kctx, _ = _levels(graph, mode, 1)
    rng = np.random.default_rng(3)
    for _ in range(2):
        _expand(graph, cse, mode)
        cse.filter_top_level(rng.random(cse.size()) < 0.6)
        costs = predict_costs(kctx, cse)
        _expand(graph, cse, mode)
        assert np.all(costs >= np.diff(cse.top.off_array()))
        cse.pop_level()


def _clique_level(graph, depth):
    """A CSE of ``depth`` levels of 4-clique bindings and the gather of
    its next position."""
    gathers = Planner.pattern_gathers(CliqueDiscovery(4))
    cse = CSE(np.arange(graph.num_vertices))
    for position in range(1, depth):
        expand_vertex_level(graph, cse, pattern_gather=gathers[position])
    return cse, gathers[depth]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pattern_gather_length_is_shortest_required_tail(depth, pair_budget, monkeypatch):
    """Under a pattern gather a row's length is its shortest tail past
    the bound among the required columns, and the pairs the kernel's
    gather-and-probe branch gathers for it."""
    graph = chung_lu(60, 300, 4)
    cse, gather = _clique_level(graph, depth)
    costs = _vertex_costs(graph, cse, gather)
    adjacency = graph.adjacency_sets()
    block = cse.decode_block(0, cse.size())
    expected = [
        min(
            sum(w >= max(row[c] for c in gather.bound_cols) + 1 for w in adjacency[row[r]])
            for r in gather.required_cols
        )
        for row in block.tolist()
    ]
    assert costs.tolist() == expected
    with monkeypatch.context() as patch:
        spy = GatherSpy(patch)
        _, counts, examined = kernels.expand_block(
            kernels.vertex_kernel_context(graph), block, pattern_gather=gather
        )
    assert np.array_equal(spy.per_row(), costs)
    assert examined == int(costs.sum())
    assert np.all(costs >= counts)
    for per_row in spy.calls:
        assert per_row.shape[0] == 1 or per_row.sum() <= pair_budget


#: Transient bytes ``predict_costs`` may hold per ``PAIR_BUDGET`` pair of
#: a chunk, per gather column, beside ``costs`` itself.  A chunk has
#: ``PAIR_BUDGET // width`` rows, each with about 25 int64 cells of
#: decode, bounds and needle temporaries; measured ~22 (vertex) and ~16
#: (edge) at depth 3.
_TRANSIENT_BYTES = 32


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_predict_costs_memory_is_bounded_on_spilled_level(mode, tmp_path, monkeypatch):
    """On a spilled level the predictor streams chunks through the mmap:
    its peak is ``costs`` plus transients bounded by ``PAIR_BUDGET``, not
    a few level-sized arrays."""
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 512)
    graph = chung_lu(300, 1200, 1)
    cse, kctx, _ = _levels(graph, mode, 3 if mode == "vertex" else 2)
    cse.append_level(spill_level(cse.pop_level(), PartStore(str(tmp_path)), part_entries=4096))
    width = cse.depth * kctx.arity
    predict_costs(kctx, cse)  # warm the graph's cached views
    tracemalloc.start()
    try:
        costs = predict_costs(kctx, cse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cse.size() > 8 * kernels.PAIR_BUDGET
    assert peak <= costs.nbytes + _TRANSIENT_BYTES * kernels.PAIR_BUDGET * width
