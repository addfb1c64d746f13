"""Property-based parity: the vectorized block kernel vs the scalar oracle.

For random seeded graphs and random exploration depths, the vectorized
:func:`repro.core.kernels.expand_block` must emit exactly the same
``(vert, counts)`` as the scalar per-embedding reference
(:func:`tests.oracles.expand_block`),
examining no more candidates — the kernel's bit-identical contract, over
arbitrary topologies rather than a handful of fixtures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.cse import CSE
from repro.core.explore import expand_edge_level, expand_vertex_level
from repro.graph.edge_index import EdgeIndex

from tests import oracles
from tests.conftest import random_labeled_graph
from tests.oracles import OracleExecutor


@st.composite
def graph_cases(draw):
    num_vertices = draw(st.integers(min_value=3, max_value=24))
    max_edges = num_vertices * (num_vertices - 1) // 2
    num_edges = draw(st.integers(min_value=1, max_value=min(max_edges, 50)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    depth = draw(st.integers(min_value=0, max_value=2))
    return num_vertices, num_edges, seed, depth


@given(graph_cases())
@settings(max_examples=40, deadline=None)
def test_vertex_kernel_parity(case):
    num_vertices, num_edges, seed, depth = case
    graph = random_labeled_graph(num_vertices, num_edges, 3, seed=seed)
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(depth):
        expand_vertex_level(graph, cse, executor=OracleExecutor())
        if cse.size() == 0 or cse.size() > 20_000:
            return
    block = cse.decode_block(0, cse.size())
    ctx = kernels.vertex_kernel_context(graph)
    vert, counts, examined = kernels.expand_block(ctx, block)
    ref_vert, ref_counts, ref_examined = oracles.expand_block(ctx, block)
    np.testing.assert_array_equal(vert, ref_vert)
    np.testing.assert_array_equal(counts, ref_counts)
    assert examined <= ref_examined


@given(graph_cases())
@settings(max_examples=25, deadline=None)
def test_edge_kernel_parity(case):
    num_vertices, num_edges, seed, depth = case
    graph = random_labeled_graph(num_vertices, num_edges, 3, seed=seed)
    index = EdgeIndex(graph)
    if index.num_edges == 0:
        return
    cse = CSE(np.arange(index.num_edges, dtype=np.int32))
    for _ in range(min(depth, 1)):
        expand_edge_level(graph, index, cse, executor=OracleExecutor())
        if cse.size() == 0 or cse.size() > 20_000:
            return
    block = cse.decode_block(0, cse.size())
    ctx = kernels.edge_kernel_context(index)
    vert, counts, examined = kernels.expand_block(ctx, block)
    ref_vert, ref_counts, ref_examined = oracles.expand_block(ctx, block)
    np.testing.assert_array_equal(vert, ref_vert)
    np.testing.assert_array_equal(counts, ref_counts)
    assert examined <= ref_examined


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_level_paths_build_identical_levels(seed):
    """Kernel and scalar expand_vertex_level agree on the whole level."""
    graph = random_labeled_graph(16, 34, 3, seed=seed)
    cse_fast = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    cse_ref = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(2):
        expand_vertex_level(graph, cse_fast)
        expand_vertex_level(graph, cse_ref, executor=OracleExecutor())
        np.testing.assert_array_equal(
            cse_fast.top.vert_array(), cse_ref.top.vert_array()
        )
        np.testing.assert_array_equal(
            cse_fast.top.off_array(), cse_ref.top.off_array()
        )
        if cse_fast.size() == 0:
            return


@st.composite
def mask_cases(draw):
    num_vertices = draw(st.integers(min_value=3, max_value=16))
    max_edges = num_vertices * (num_vertices - 1) // 2
    num_edges = draw(st.integers(min_value=1, max_value=min(max_edges, 40)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    width = draw(st.integers(min_value=1, max_value=7))
    filtered = draw(st.booleans())
    return num_vertices, num_edges, seed, width, filtered


def _grow_canonical_block(ctx, roots, width, rng, cap=64):
    """Canonical ``(rows, width)`` block: extend ``roots`` with the
    kernel's own emissions, keeping a random ``cap`` rows per step."""
    block = roots.astype(np.int64)[:, None]
    for _ in range(width - 1):
        vert, counts, _ = kernels.expand_block(ctx, block)
        block = np.hstack([np.repeat(block, counts, axis=0), vert.astype(np.int64)[:, None]])
        if block.shape[0] > cap:
            block = block[np.sort(rng.choice(block.shape[0], cap, replace=False))]
    return block


def _random_filter(rng, size):
    keep = rng.random(size) < 0.6
    return lambda ctx, block, rows, cands: keep[cands]


@given(mask_cases())
@settings(max_examples=40, deadline=None)
def test_vertex_adjacency_mask_is_exact(case):
    """Bit c of each emitted pair's mask is ``has_edges(block[row, c],
    cand)``, with and without a block filter."""
    num_vertices, num_edges, seed, width, filtered = case
    graph = random_labeled_graph(num_vertices, num_edges, 3, seed=seed)
    rng = np.random.default_rng(seed)
    ctx = kernels.vertex_kernel_context(graph)
    block = _grow_canonical_block(ctx, np.arange(num_vertices), width, rng)
    block_filter = _random_filter(rng, num_vertices) if filtered else None
    if block.shape[0] == 0:
        return
    bounds = kernels.gather_bounds(ctx, block, block)
    vert, rows, _, adjacent = kernels._expand_chunk(ctx, block, block, block_filter, bounds)
    ref_vert, ref_counts, _ = kernels.expand_block(ctx, block, block_filter)
    np.testing.assert_array_equal(vert, ref_vert)
    np.testing.assert_array_equal(np.bincount(rows, minlength=block.shape[0]), ref_counts)
    cands = vert.astype(np.int64)
    for c in range(width):
        bit = (adjacent >> c) & 1 == 1
        np.testing.assert_array_equal(bit, ctx.has_edges(block[rows, c], cands))
    assert not np.any(adjacent >> width)


@given(mask_cases())
@settings(max_examples=20, deadline=None)
def test_edge_adjacency_mask_is_exact(case):
    """Edge mode: bit c says the candidate edge touches endpoint column c
    (``(u0, v0, u1, v1, ...)``)."""
    num_vertices, num_edges, seed, width, filtered = case
    width = min(width, 4)
    graph = random_labeled_graph(num_vertices, num_edges, 3, seed=seed)
    index = EdgeIndex(graph)
    rng = np.random.default_rng(seed)
    ctx = kernels.edge_kernel_context(index)
    block = _grow_canonical_block(ctx, np.arange(index.num_edges), width, rng)
    block_filter = _random_filter(rng, index.num_edges) if filtered else None
    if block.shape[0] == 0:
        return
    keys = ctx.gather_keys(block).astype(np.int64)
    bounds = kernels.gather_bounds(ctx, block, keys)
    vert, rows, _, adjacent = kernels._expand_chunk(ctx, block, keys, block_filter, bounds)
    np.testing.assert_array_equal(vert, kernels.expand_block(ctx, block, block_filter)[0])
    for c in range(keys.shape[1]):
        bit = (adjacent >> c) & 1 == 1
        ends = keys[rows, c]
        touches = (ctx.edge_u[vert] == ends) | (ctx.edge_v[vert] == ends)
        np.testing.assert_array_equal(bit, touches)
