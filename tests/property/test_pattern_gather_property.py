"""Property: a complete pattern's gather emits the canonical all-adjacent levels.

A clique level's plan carries a :class:`~repro.core.restrictions.PatternGather`,
and the kernel then gathers one shortest bounded tail per row and probes
the other columns instead of running the generic canonical expansion.
For random graphs (optionally with a hub adjacent to every vertex) ×
k 2–6 × serial / threads × resident / spilled levels × kernel / scalar
loops (:class:`tests.oracles.OracleExecutor`), with ``PAIR_BUDGET`` shrunk so chunk cuts land mid-level, every
level's ``vert`` and ``off`` must equal the generic canonical kernel
followed by a test-side all-adjacent filter, and the top level must hold
exactly ``count_cliques_naive`` embeddings; the kernel must examine
exactly the rows' shortest bounded tails.  Whole engine runs under a
budget that spills every level must agree too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CliqueDiscovery, KaleidoEngine
from repro.apps.reference import count_cliques_naive
from repro.core import kernels
from repro.core.cse import CSE
from repro.core.executor import SerialExecutor, ThreadedExecutor, resolve_executor
from repro.core.explore import even_parts, expand_vertex_level
from repro.core.plan import Planner
from repro.graph import from_edge_list
from repro.storage import PartStore
from repro.storage.hybrid import spill_level

from tests.conftest import all_adjacent, random_labeled_graph
from tests.oracles import OracleExecutor


def _graph(num_vertices, num_edges, seed, hub):
    """A random unlabelled graph; ``hub`` joins vertex 0 to every other
    vertex, so rows through it carry the longest tail while the tails
    past a leaf are empty."""
    graph = random_labeled_graph(num_vertices, num_edges, 1, seed=seed)
    if not hub:
        return graph
    edges = {(u, int(w)) for u in range(num_vertices) for w in graph.neighbors(u) if u < w}
    edges |= {(0, v) for v in range(1, num_vertices)}
    return from_edge_list(sorted(edges), name=f"hub-{seed}")


def _shortest_tails(graph, rows, gather):
    """What the kernel should gather: per row, the shortest of the
    required columns' neighbor lists past the row's bound."""
    total = 0
    for row in rows.tolist():
        floor = max(row[c] for c in gather.bound_cols)
        total += min(
            int((graph.neighbors(row[c]) > floor).sum()) for c in gather.required_cols
        )
    return total


@st.composite
def gather_cases(draw):
    num_vertices = draw(st.integers(min_value=2, max_value=22))
    max_edges = num_vertices * (num_vertices - 1) // 2
    return {
        "num_vertices": num_vertices,
        "num_edges": draw(st.integers(min_value=0, max_value=min(max_edges, 80))),
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "hub": draw(st.booleans()),
        "k": draw(st.integers(min_value=2, max_value=6)),
        "executor": draw(st.sampled_from(["serial", "threads"])),
        "spilled": draw(st.booleans()),
        "kernel": draw(st.booleans()),
        "pair_budget": draw(st.sampled_from([1, 4, 32])),
    }


@given(gather_cases())
@settings(max_examples=80, deadline=None)
def test_gather_levels_equal_canonical_plus_all_adjacent(case):
    graph = _graph(case["num_vertices"], case["num_edges"], case["seed"], case["hub"])
    k = case["k"]
    gathers = Planner(graph, policy=None).pattern_gathers(CliqueDiscovery(k))
    assert sorted(gathers) == list(range(1, k))
    inner = SerialExecutor() if case["executor"] == "serial" else ThreadedExecutor()
    executor = inner if case["kernel"] else OracleExecutor(inner)
    roots = np.arange(graph.num_vertices, dtype=np.int32)
    gathered, reference = CSE(roots.copy()), CSE(roots.copy())
    try:
        with PartStore() as store, pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "PAIR_BUDGET", case["pair_budget"])
            for _ in range(k - 1):
                if case["spilled"] and gathered.depth > 1:  # roots never spill
                    gathered.append_level(
                        spill_level(gathered.pop_level(), store, part_entries=3)
                    )
                gather = gathers[gathered.depth]
                rows = gathered.decode_block(0, gathered.size())
                stats = expand_vertex_level(
                    graph,
                    gathered,
                    parts=even_parts(gathered.size(), 3),
                    executor=executor,
                    workers=2,
                    pattern_gather=gather,
                )
                if case["kernel"]:
                    assert stats.candidates_examined == _shortest_tails(graph, rows, gather)
                expand_vertex_level(graph, reference, all_adjacent)
                np.testing.assert_array_equal(
                    gathered.top.vert_array(), reference.top.vert_array()
                )
                np.testing.assert_array_equal(
                    gathered.top.off_array(), reference.top.off_array()
                )
    finally:
        executor.close()
    assert gathered.size() == count_cliques_naive(graph, k)


def test_gather_examines_only_the_shortest_tail():
    """On a hub-plus-triangle graph the level-2 rows through the hub
    gather the empty tail past their leaf, not the hub's list; the
    triangle's row gathers its one-entry tail and probes the hub's."""
    edges = [(0, leaf) for leaf in range(1, 40)] + [(1, 2)]
    graph = from_edge_list(edges, name="hub-triangle")
    gathers = Planner(graph, policy=None).pattern_gathers(CliqueDiscovery(3))
    ctx = kernels.vertex_kernel_context(graph)
    block = np.array([[0, leaf] for leaf in range(3, 40)] + [[1, 2]], dtype=np.int64)
    vert, counts, examined = kernels.expand_block(ctx, block, pattern_gather=gathers[2])
    assert vert.tolist() == [] and not counts.any()
    assert examined == 0  # every row's shortest tail is empty
    vert, counts, examined = kernels.expand_block(
        ctx, np.array([[0, 1]], dtype=np.int64), pattern_gather=gathers[2]
    )
    assert vert.tolist() == [2] and counts.tolist() == [1] and examined == 1


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("kernel", [True, False])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_engine_runs_under_spill_every_level_budget(k, kernel, executor, tmp_path):
    """Clique runs under a budget that spills every level, on the kernel
    or (``kernel=False``) on the scalar oracle loops; k = 5 and the hub
    graph lie outside the engine fuzzer's draws."""
    graph = _graph(30, 150, seed=k, hub=True)
    with KaleidoEngine(graph, storage_mode="memory") as engine:
        memory = engine.run(CliqueDiscovery(k))
    runner = resolve_executor(executor)
    if not kernel:
        runner = OracleExecutor(runner)
    try:
        with KaleidoEngine(
            graph,
            memory_limit_bytes=1,
            spill_dir=str(tmp_path),
            executor=runner,
            workers=2,
        ) as engine:
            spilled = engine.run(CliqueDiscovery(k))
    finally:
        runner.close()
    assert spilled.extra["spilled_levels"] == k - 1
    assert spilled.level_sizes == memory.level_sizes
    assert spilled.value.count == memory.value.count == count_cliques_naive(graph, k)
