"""Unit tests for the vectorized expansion kernel.

Every kernel output is checked against the scalar per-embedding reference
(:func:`tests.oracles.expand_block`) —
the kernel's contract is *bit-identical* emission, not just equal counts;
its fused bounds examine at most the scalar loop's candidates.
"""

import tracemalloc

import numpy as np
import pytest

from repro import CliqueDiscovery, FrequentSubgraphMining, KaleidoEngine, MotifCounting
from repro.core import engine as engine_module
from repro.core import kernels
from repro.core.plan import Planner
from repro.core.cse import CSE, InMemoryLevel
from repro.core.explore import (
    BlockTask,
    InMemorySink,
    expand_edge_level,
    expand_vertex_level,
)
from repro.graph import from_edge_list
from repro.graph.edge_index import EdgeIndex

from tests import oracles
from tests.conftest import random_labeled_graph
from tests.oracles import OracleExecutor


def _vertex_blocks(graph, depth):
    """Build a CSE of `depth` levels via the scalar path, returning the
    decoded top-level block at each step."""
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    blocks = [cse.decode_block(0, cse.size())]
    for _ in range(depth):
        expand_vertex_level(graph, cse, executor=OracleExecutor())
        blocks.append(cse.decode_block(0, cse.size()))
    return blocks


def _scalar_vertex(graph, block):
    return oracles.expand_block(kernels.vertex_kernel_context(graph), block)


def _scalar_edge(index, block):
    return oracles.expand_block(kernels.edge_kernel_context(index), block)


@pytest.mark.parametrize("seed", [3, 17, 42])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_vertex_kernel_matches_scalar(seed, depth):
    graph = random_labeled_graph(25, 60, 3, seed=seed)
    block = _vertex_blocks(graph, depth)[depth]
    ctx = kernels.vertex_kernel_context(graph)
    vert, counts, examined = kernels.expand_block(ctx, block)
    ref_vert, ref_counts, ref_examined = _scalar_vertex(graph, block)
    np.testing.assert_array_equal(vert, ref_vert)
    np.testing.assert_array_equal(counts, ref_counts)
    assert examined <= ref_examined


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("depth", [0, 1])
def test_edge_kernel_matches_scalar(seed, depth):
    graph = random_labeled_graph(20, 45, 3, seed=seed)
    index = EdgeIndex(graph)
    cse = CSE(np.arange(index.num_edges, dtype=np.int32))
    for _ in range(depth):
        expand_edge_level(graph, index, cse, executor=OracleExecutor())
    block = cse.decode_block(0, cse.size())
    ctx = kernels.edge_kernel_context(index)
    vert, counts, examined = kernels.expand_block(ctx, block)
    ref_vert, ref_counts, ref_examined = _scalar_edge(index, block)
    np.testing.assert_array_equal(vert, ref_vert)
    np.testing.assert_array_equal(counts, ref_counts)
    assert examined <= ref_examined


def test_level_expansion_kernel_vs_scalar_paths():
    """The two expand_vertex_level paths build identical CSE levels."""
    graph = random_labeled_graph(25, 60, 3, seed=9)
    cse_fast = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    cse_ref = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(2):
        fast = expand_vertex_level(graph, cse_fast)
        ref = expand_vertex_level(graph, cse_ref, executor=OracleExecutor())
        assert fast.emitted == ref.emitted
        assert fast.candidates_examined <= ref.candidates_examined
        assert fast.part_emitted == ref.part_emitted
        np.testing.assert_array_equal(
            cse_fast.top.vert_array(), cse_ref.top.vert_array()
        )
        np.testing.assert_array_equal(
            cse_fast.top.off_array(), cse_ref.top.off_array()
        )


def test_kernel_chunking_matches_unchunked(monkeypatch):
    """PAIR_BUDGET-internal chunking must not change output."""
    graph = random_labeled_graph(25, 60, 3, seed=5)
    block = _vertex_blocks(graph, 1)[1]
    ctx = kernels.vertex_kernel_context(graph)
    whole = kernels.expand_block(ctx, block)
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 3)
    chunked = kernels.expand_block(ctx, block)
    np.testing.assert_array_equal(whole[0], chunked[0])
    np.testing.assert_array_equal(whole[1], chunked[1])
    assert whole[2] == chunked[2]


@pytest.mark.parametrize("filtered", [False, True])
def test_skewed_graph_chunks_stay_within_pair_budget(monkeypatch, filtered):
    """A hub in every row must not blow a chunk past PAIR_BUDGET.

    Star-plus-clique: every level-2 embedding ``(hub, leaf)`` gathers the
    hub's whole neighbor list, so a row-count cap would put
    ``leaves * leaves`` pairs in one chunk; the degree-sum cut keeps
    every gather within the budget (no single row exceeds it here).
    ``filtered`` runs the triangle levels' pattern gather instead: each
    ``(hub, leaf)`` row gathers only its shortest tail — the leaf's,
    which is empty — so the hub's list is never gathered at level 2."""
    leaves, clique = 600, 6
    edges = [(0, leaf) for leaf in range(1, leaves + 1)]
    members = [0] + list(range(leaves + 1, leaves + clique))
    edges += [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
    graph = from_edge_list(edges, name="star-plus-clique")
    assert graph.degrees().max() * 2 < kernels.PAIR_BUDGET

    gathered = []
    ranged_gather = kernels._ranged_gather

    def recording_gather(starts, ends, data, owners):
        gathered.append(int((ends - starts).sum()))
        return ranged_gather(starts, ends, data, owners)

    monkeypatch.setattr(kernels, "_ranged_gather", recording_gather)
    gathers = Planner(graph, policy=None).pattern_gathers(CliqueDiscovery(3))
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(2):
        level_start = len(gathered)
        pattern_gather = gathers.get(cse.depth) if filtered else None
        expand_vertex_level(graph, cse, pattern_gather=pattern_gather)
    if filtered:
        assert cse.size() == clique * (clique - 1) * (clique - 2) // 6  # triangles
        assert sum(gathered[level_start:]) < clique**3
    else:  # every leaf-hub-leaf path, plus the clique's connected triples
        assert cse.size() > leaves * (leaves - 1) // 2
        assert sum(gathered) > 10 * kernels.PAIR_BUDGET
    assert max(gathered) <= kernels.PAIR_BUDGET


@pytest.mark.parametrize("branch", ["canonical", "pattern"])
def test_row_windows_bound_a_large_blocks_transients(branch):
    """A part of many row windows expands to the same rows as its own
    rows would alone, and its traced peak stays a constant multiple of
    PAIR_BUDGET instead of growing with the part.

    The block is one graph's edges tiled ``reps`` times, so its
    expansion is the edges' own expansion (one window) tiled: a
    reference that crosses every window boundary at the real budget.
    The windowed walk peaks at 90-120 B per budget pair here; building
    the whole part's keys and bounds at once peaked at 400."""
    graph = random_labeled_graph(300, 1200, 1, seed=11)
    ctx = kernels.vertex_kernel_context(graph)
    edges = np.stack(graph.edge_arrays(), axis=1).astype(np.int32)
    window = kernels.PAIR_BUDGET // (edges.shape[1] * ctx.arity)
    assert edges.shape[0] <= window
    reps = -(-9 * window // edges.shape[0])
    block = np.tile(edges, (reps, 1))
    assert block.shape[0] > 8 * window
    gather = None
    if branch == "pattern":
        gather = Planner(graph, policy=None).pattern_gathers(CliqueDiscovery(3))[2]
    one_vert, one_counts, one_examined = kernels.expand_block(ctx, edges, None, gather)
    ref_vert = np.tile(one_vert, reps)
    ref_counts = np.tile(one_counts, reps)

    rows = emitted = examined = 0
    tracemalloc.start()
    try:
        for start, end, vert, counts, chunk_examined in kernels.expand_chunks(
            ctx, block, None, gather
        ):
            assert start == rows and end > start  # part-relative, in order
            np.testing.assert_array_equal(counts, ref_counts[start:end])
            np.testing.assert_array_equal(vert, ref_vert[emitted : emitted + len(vert)])
            rows, emitted = end, emitted + len(vert)
            examined += chunk_examined
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rows, emitted, examined) == (len(block), len(ref_vert), one_examined * reps)
    assert peak < 200 * kernels.PAIR_BUDGET
    vert, counts, whole_examined = kernels.expand_block(ctx, block, None, gather)
    np.testing.assert_array_equal(vert, ref_vert)
    np.testing.assert_array_equal(counts, ref_counts)
    assert whole_examined == examined


DISPATCH_APPS = {
    # Two stored levels past the roots (the last level is folded).
    "motif": lambda: MotifCounting(5),
    "fsm": lambda: FrequentSubgraphMining(3, support=3),
}


def _examined_run(graph, make_app, **engine_kwargs):
    """One engine run plus the candidates its level expansions examined."""
    examined = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("expand_vertex_level", "expand_edge_level"):

            def recording(*args, _original=getattr(engine_module, name), **kwargs):
                stats = _original(*args, **kwargs)
                examined.append(stats.candidates_examined)
                return stats

            patch.setattr(engine_module, name, recording)
        with KaleidoEngine(graph, **engine_kwargs) as engine:
            result = engine.run(make_app())
    return result, sum(examined)


@pytest.mark.parametrize("app_name", sorted(DISPATCH_APPS))
def test_spilled_levels_ride_the_kernel(app_name, tmp_path):
    """Spilled levels expand on the kernel (same examined count as a
    memory run); the scalar oracle, swapped in through
    ``executor=OracleExecutor()``, examines more candidates for the same
    answer."""
    graph = random_labeled_graph(30, 80, 3, seed=11)
    make_app = DISPATCH_APPS[app_name]
    memory, memory_examined = _examined_run(graph, make_app, storage_mode="memory")
    spilled, spilled_examined = _examined_run(
        graph, make_app, storage_mode="spill-last", spill_dir=str(tmp_path)
    )
    assert spilled.extra["spilled_levels"] >= 2
    assert spilled.level_sizes == memory.level_sizes
    assert spilled_examined == memory_examined
    assert spilled.pattern_map == memory.pattern_map

    oracle, oracle_examined = _examined_run(
        graph, make_app, storage_mode="memory", executor=OracleExecutor()
    )
    assert oracle.pattern_map == memory.pattern_map
    assert oracle.level_sizes == memory.level_sizes
    assert oracle_examined > memory_examined


def test_block_filter_mask_contract_enforced_on_both_paths():
    graph = random_labeled_graph(12, 25, 2, seed=2)

    def int_mask(ctx, block, rows, candidates):
        return np.ones(rows.shape[0], dtype=np.int8)

    def short_mask(ctx, block, rows, candidates):
        return np.ones(rows.shape[0] + 1, dtype=bool)

    for bad in (int_mask, short_mask):
        for executor in (None, OracleExecutor()):
            cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
            with pytest.raises(ValueError, match="bool mask"):
                expand_vertex_level(graph, cse, bad, executor=executor)


def test_has_edges_matches_graph():
    graph = random_labeled_graph(15, 40, 2, seed=9)
    ctx = kernels.vertex_kernel_context(graph)
    u, v = np.meshgrid(np.arange(15, dtype=np.int64), np.arange(15, dtype=np.int64))
    u, v = u.reshape(-1), v.reshape(-1)
    expected = [graph.has_edge(int(a), int(b)) for a, b in zip(u, v)]
    np.testing.assert_array_equal(ctx.has_edges(u, v), expected)
    edgeless = kernels.vertex_kernel_context(random_labeled_graph(4, 0, 1, seed=1))
    assert not edgeless.has_edges(u[:3] % 4, v[:3] % 4).any()


def test_empty_and_edgeless_blocks():
    graph = random_labeled_graph(10, 0, 2, seed=1)
    ctx = kernels.vertex_kernel_context(graph)
    vert, counts, examined = kernels.expand_block(
        ctx, np.zeros((0, 2), dtype=np.int64)
    )
    assert vert.shape == (0,) and counts.shape == (0,) and examined == 0
    # Vertices with no neighbors produce no candidates at all.
    vert, counts, examined = kernels.expand_block(
        ctx, np.arange(10, dtype=np.int64).reshape(-1, 1)
    )
    assert vert.shape == (0,) and examined == 0
    np.testing.assert_array_equal(counts, np.zeros(10, dtype=np.int64))


def test_vertex_block_task_runs():
    graph = random_labeled_graph(15, 30, 2, seed=2)
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    ctx = kernels.vertex_kernel_context(graph)
    block = cse.decode_block(0, cse.size())
    result = BlockTask(ctx, block, (0, cse.size()), 3)()
    vert, counts, examined = kernels.expand_block(ctx, block)
    assert result.index == 3 and result.bound == (0, cse.size())
    np.testing.assert_array_equal(result.vert, vert)
    np.testing.assert_array_equal(result.counts, counts)
    assert result.emitted == vert.shape[0]
    assert result.candidates_examined == examined


# ----------------------------------------------------------------------
# dtype widening (satellite: emitted-id dtype follows the id space)
# ----------------------------------------------------------------------
def test_id_dtype_boundary():
    assert kernels.id_dtype(100) == np.dtype(np.int32)
    assert kernels.id_dtype(np.iinfo(np.int32).max) == np.dtype(np.int32)
    assert kernels.id_dtype(np.iinfo(np.int32).max + 1) == np.dtype(np.int64)
    # Forced-small boundary: the regression knob for testing widening
    # without a 2^31-vertex graph.
    assert kernels.id_dtype(100, boundary=50) == np.dtype(np.int64)
    assert kernels.id_dtype(50, boundary=50) == np.dtype(np.int32)
    assert kernels.id_dtype(1 << 63) == np.dtype(np.int64)
    with pytest.raises(OverflowError):
        kernels.id_dtype((1 << 63) + 1)


def test_dedup_keys_past_int64_raise():
    """A chunk whose packed ``(row, candidate, column)`` keys would pass
    int64 raises instead of wrapping: 4 rows << (62 + 2) bits is 2^66."""
    graph = random_labeled_graph(8, 12, 1, seed=0)
    ctx = kernels.vertex_kernel_context(graph)
    ctx.num_vertices = 1 << 62
    block = np.array([[0, 1, 2]] * 4, dtype=np.int64)
    bounds = kernels.gather_bounds(kernels.vertex_kernel_context(graph), block, block)
    with pytest.raises(OverflowError):
        kernels._expand_chunk(ctx, block, block, None, bounds)


def test_graph_and_index_id_dtype():
    graph = random_labeled_graph(20, 40, 2, seed=3)
    assert graph.id_dtype == np.dtype(np.int32)
    assert EdgeIndex(graph).id_dtype == np.dtype(np.int32)


def test_sink_and_kernel_respect_forced_wide_dtype():
    """Regression: with a forced int64 id dtype, the emitted level, the
    sink's empty array, and the kernel outputs are all int64 end to end."""
    graph = random_labeled_graph(20, 45, 3, seed=8)
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    wide = np.dtype(np.int64)

    ctx = kernels.vertex_kernel_context(graph, out_dtype=wide)
    block = cse.decode_block(0, cse.size())
    vert, _, _ = kernels.expand_block(ctx, block)
    assert vert.dtype == wide

    sink = InMemorySink(dtype=wide)
    sink.write_part(vert, index=0)
    # A level whose off says everything belongs to position 0.
    counts = np.zeros(cse.size(), dtype=np.int64)
    counts[0] = vert.shape[0]
    off = np.zeros(cse.size() + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    level = sink.finish(off)
    assert level.vert_array().dtype == wide

    empty = InMemorySink(dtype=wide).finish(np.zeros(1, dtype=np.int64))
    assert empty.vert_array().dtype == wide
    assert empty.vert_array().shape == (0,)


def test_in_memory_level_preserves_dtype_through_filter():
    vert = np.array([3, 1, 4, 1, 5], dtype=np.int64)
    off = np.array([0, 2, 5], dtype=np.int64)
    level = InMemoryLevel(vert, off, dtype=np.int64)
    assert level.vert_array().dtype == np.dtype(np.int64)
    cse = CSE(np.array([0, 1], dtype=np.int32))
    cse.append_level(level)
    cse.filter_top_level(np.array([True, False, True, True, False]))
    assert cse.top.vert_array().dtype == np.dtype(np.int64)


# ----------------------------------------------------------------------
# Block decode
# ----------------------------------------------------------------------
def test_decode_block_matches_embedding_at():
    graph = random_labeled_graph(18, 40, 3, seed=4)
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    expand_vertex_level(graph, cse)
    expand_vertex_level(graph, cse)
    block = cse.decode_block(2, min(9, cse.size()))
    for i, pos in enumerate(range(2, min(9, cse.size()))):
        assert tuple(int(x) for x in block[i]) == cse.embedding_at(2, pos)


def test_decode_block_bounds_checks():
    cse = CSE(np.arange(5, dtype=np.int32))
    with pytest.raises(IndexError):
        cse.decode_block(0, 6)
    with pytest.raises(IndexError):
        cse.decode_block(3, 2)
    with pytest.raises(IndexError):
        cse.decode_block(0, 1, level_idx=2)


def test_edge_block_task_runs():
    graph = random_labeled_graph(15, 32, 2, seed=6)
    index = EdgeIndex(graph)
    cse = CSE(np.arange(index.num_edges, dtype=np.int32))
    ctx = kernels.edge_kernel_context(index)
    task = BlockTask(ctx, cse.decode_block(0, cse.size()), (0, cse.size()), 0)
    result = task()
    ref_vert, ref_counts, _ = _scalar_edge(index, cse.decode_block(0, cse.size()))
    np.testing.assert_array_equal(result.vert, ref_vert)
    np.testing.assert_array_equal(result.counts, ref_counts)
