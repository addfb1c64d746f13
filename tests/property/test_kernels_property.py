"""Property-based parity: the vectorized block kernel vs the scalar oracle.

For random seeded graphs and random exploration depths, the vectorized
:func:`repro.core.kernels.expand_block` must emit exactly the same
``(vert, counts)`` as the scalar per-embedding reference
(:func:`tests.oracles.expand_block`),
examining no more candidates — the kernel's bit-identical contract, over
arbitrary topologies rather than a handful of fixtures.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
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


def _mode_block(case, mode):
    """``(ctx, ids, block, rng)`` for a :func:`mask_cases` draw: the
    kernel context of ``mode``, its id count and a canonical block (edge
    blocks hold at most 4 edges); ``None`` when the block is empty."""
    num_vertices, num_edges, seed, width, _ = case
    graph = random_labeled_graph(num_vertices, num_edges, 3, seed=seed)
    if mode == "vertex":
        ctx, ids = kernels.vertex_kernel_context(graph), graph.num_vertices
    else:
        index = EdgeIndex(graph)
        ctx, ids, width = kernels.edge_kernel_context(index), index.num_edges, min(width, 4)
    rng = np.random.default_rng(seed)
    block = _grow_canonical_block(ctx, np.arange(ids), width, rng) if ids else np.zeros((0, 1))
    return (ctx, ids, block, rng) if block.shape[0] else None


@given(mask_cases(), st.sampled_from(["vertex", "edge"]))
@example((12, 40, 7, 6, True), "vertex")  # 6 columns: a 3-bit column field
@example((12, 40, 7, 3, False), "edge")  # 6 endpoint columns
@settings(max_examples=30, deadline=None)
def test_narrow_and_wide_dedup_keys_agree(case, mode):
    """The chunk packs its dedup keys in the narrowest dtype ``id_dtype``
    picks; forcing the int64 path (``boundary=0``) must return identical
    ``(vert, rows, examined, adjacent)``."""
    drawn = _mode_block(case, mode)
    if drawn is None:
        return
    ctx, ids, block, rng = drawn
    block_filter = _random_filter(rng, ids) if case[-1] else None
    keys = ctx.gather_keys(block).astype(np.int64)
    bounds = kernels.gather_bounds(ctx, block, keys)
    key_dtypes = []
    real_dedup_heads = kernels._dedup_heads

    def recording(values, owner, *args):
        key_dtypes.append(owner.dtype)
        return real_dedup_heads(values, owner, *args)

    real_id_dtype = kernels.id_dtype
    with mock.patch.object(kernels, "_dedup_heads", recording):
        narrow = kernels._expand_chunk(ctx, block, keys, block_filter, bounds)
        with mock.patch.object(kernels, "id_dtype", lambda count: real_id_dtype(count, boundary=0)):
            wide = kernels._expand_chunk(ctx, block, keys, block_filter, bounds)
    for got, want in zip(narrow, wide):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        np.testing.assert_array_equal(got, want)
    assert key_dtypes in ([], [kernels.DEFAULT_ID_DTYPE, np.dtype(np.int64)])


def _possible_probes(ctx, block, keys):
    """Scalar count of the first-adjacency probes that could hit: for each
    deduped, non-member head ``x`` of first surviving arrival ``f``, one
    probe per column of each earlier arrival ``j`` whose bound ``x`` is
    below — at or above it, ``j``'s bounded slice would have gathered
    ``x`` — up to the first column that holds ``x``."""
    indptr, data, _, _ = ctx.gather_view()
    arity = ctx.arity
    total = 0
    for row, row_keys in zip(block.tolist(), keys.tolist()):
        lists = [set(data[indptr[key] : indptr[key + 1]].tolist()) for key in row_keys]

        def bound(j):
            return max([row[0] + 1] + row[j + 1 :])

        first = {}
        for c, held in enumerate(lists):
            for x in held:
                if x >= bound(c // arity):
                    first.setdefault(x, c // arity)
        for x, f in first.items():
            if x in row:
                continue
            arrivals = [j for j in range(f) if x < bound(j)]
            for c in (j * arity + e for j in arrivals for e in range(arity)):
                total += 1
                if x in lists[c]:
                    break
    return total


@given(mask_cases(), st.sampled_from(["vertex", "edge"]))
@settings(max_examples=30, deadline=None)
def test_first_adjacency_probes_only_where_a_hit_is_possible(case, mode):
    """The verification probes an earlier column only for heads below its
    bound and not yet rejected: exactly the scalar count of the probes
    that could hit (the output parity above shows none that could is
    skipped)."""
    drawn = _mode_block(case, mode)
    if drawn is None:
        return
    ctx, _, block, _ = drawn
    keys = ctx.gather_keys(block).astype(np.int64)
    bounds = kernels.gather_bounds(ctx, block, keys)
    probed = []
    real_in_packed = kernels._in_packed

    def counting(packed, modulus, keys, values):
        probed.append(values.shape[0])
        return real_in_packed(packed, modulus, keys, values)

    with mock.patch.object(kernels, "_in_packed", counting):
        kernels._expand_chunk(ctx, block, keys, None, bounds)
    assert sum(probed) == _possible_probes(ctx, block, keys)
