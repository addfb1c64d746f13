"""Whole-configuration differential fuzzer for the engine.

One hypothesis draw picks a small random labelled graph, an application
(motif, clique, tc, fsm, vertex-FSM or matching), k in 3..4, a storage
mode (resident, spill-last, or a one-byte budget that spills every
level) and an executor (serial or threads).  The engine's run must then
equal the same configuration run on the scalar oracle loops
(:class:`tests.oracles.OracleExecutor`) in pattern map and level sizes,
and must equal :mod:`repro.apps.reference` wherever that module has a
brute-force answer.  Half the draws also pick an independently drawn
warm-up app: run first on the same engine, it must not change the
target run's answer, level sizes, spills or bytes written.

The example budget comes from the hypothesis profile in
``tests/conftest.py``: ``tier1`` by default, ``deep`` with
``--hypothesis-profile=deep``.
"""

import tempfile

from hypothesis import given
from hypothesis import strategies as st

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
    Pattern,
    TriangleCounting,
)
from repro.apps import PatternMatching, VertexInducedFSM
from repro.apps.reference import (
    count_cliques_naive,
    count_motifs_naive,
    count_triangles_naive,
    fsm_naive,
)
from repro.core.executor import resolve_executor
from repro.graph import from_edge_list

from tests.oracles import OracleExecutor

APPS = ("motif", "clique", "tc", "fsm", "vfsm", "matching")
STORAGE = ("memory", "spill-last", "spill-every-level")


@st.composite
def connected_patterns(draw, k):
    """A connected k-vertex pattern: a random spanning tree plus extra
    edges, vertex labels in {0, 1}."""
    matrix = [[0] * k for _ in range(k)]
    for v in range(1, k):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        matrix[u][v] = matrix[v][u] = 1
    for u in range(k):
        for v in range(u + 1, k):
            if draw(st.booleans()):
                matrix[u][v] = matrix[v][u] = 1
    labels = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return Pattern.from_adjacency(labels, matrix)


@st.composite
def app_specs(draw):
    app = draw(st.sampled_from(APPS))
    k = draw(st.integers(min_value=3, max_value=4))
    return {
        "app": app,
        "k": k,
        "exact_mni": draw(st.booleans()),
        "pattern": draw(connected_patterns(k)) if app == "matching" else None,
    }


@st.composite
def configurations(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=2, max_size=18, unique=True)
    )
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return {
        "graph": from_edge_list(edges, labels=labels, name="fuzz"),
        **draw(app_specs()),
        "storage": draw(st.sampled_from(STORAGE)),
        "executor": draw(st.sampled_from(["serial", "threads"])),
        "warmup": draw(app_specs()) if draw(st.booleans()) else None,
    }


def _make_app(case):
    k = case["k"]
    if case["app"] == "motif":
        return MotifCounting(k)
    if case["app"] == "clique":
        return CliqueDiscovery(k)
    if case["app"] == "tc":
        return TriangleCounting()
    if case["app"] == "fsm":  # k vertices at most: k - 1 edges
        return FrequentSubgraphMining(k - 1, support=2, exact_mni=case["exact_mni"])
    if case["app"] == "vfsm":
        return VertexInducedFSM(k, support=2, exact_mni=case["exact_mni"])
    return PatternMatching(case["pattern"])


def _run(case, executor, spill_dir, warmup=None):
    storage = {
        "memory": {"storage_mode": "memory"},
        "spill-last": {"storage_mode": "spill-last", "spill_dir": spill_dir},
        "spill-every-level": {"memory_limit_bytes": 1, "spill_dir": spill_dir},
    }[case["storage"]]
    with KaleidoEngine(case["graph"], executor=executor, workers=2, **storage) as engine:
        if warmup is not None:
            engine.run(_make_app(warmup))
        return engine.run(_make_app(case))


def _check_reference(case, result):
    graph, k = case["graph"], case["k"]
    if case["app"] == "motif":
        expected = count_motifs_naive(graph, k)
        assert sorted(result.value.values()) == sorted(expected.values())
    elif case["app"] == "clique":
        assert result.value.count == count_cliques_naive(graph, k)
    elif case["app"] == "tc":
        assert result.value == count_triangles_naive(graph)
    elif case["app"] == "fsm" and case["exact_mni"]:
        expected = fsm_naive(graph, k - 1, 2)
        assert sorted(result.value.values()) == sorted(expected.values())


@given(configurations())
def test_engine_matches_oracle_and_reference(case):
    oracle_executor = OracleExecutor(resolve_executor(case["executor"]))
    try:
        with tempfile.TemporaryDirectory() as spill_dir:
            result = _run(case, case["executor"], spill_dir)
            oracle = _run(case, oracle_executor, spill_dir)
            if case["warmup"] is not None:
                reused = _run(case, case["executor"], spill_dir, case["warmup"])
                assert reused.pattern_map == result.pattern_map
                assert reused.level_sizes == result.level_sizes
                for key in ("spilled_levels", "demoted_levels"):
                    assert reused.extra[key] == result.extra[key]
                assert reused.io_bytes_written == result.io_bytes_written
    finally:
        oracle_executor.close()
    assert result.pattern_map == oracle.pattern_map
    assert result.level_sizes == oracle.level_sizes
    if case["storage"] == "spill-every-level":
        assert result.extra["spilled_levels"] >= 1
    _check_reference(case, result)
