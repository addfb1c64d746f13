"""Whole-configuration differential fuzzer for the engine.

One hypothesis draw picks a small random labelled graph, an application
(motif, clique, tc, fsm, vertex-FSM or matching), k in 3..4, a storage
mode (resident, spill-last, or a one-byte budget that spills every
level), an executor (serial or threads) and 1-4 workers, each level's
part count, so every cut the engine makes.  The engine's run must then
equal the same configuration run on the scalar oracle loops
(:class:`tests.oracles.OracleExecutor`, which maps a folded last level
with one ``map_block`` call per part where the kernel maps one chunk at
a time) in pattern map and level sizes, must spill exactly its stored
levels in both spill modes — every level past the roots but a folded
last one — and must equal :mod:`repro.apps.reference` wherever that
module has a brute-force answer.  Half the draws also pick an independently drawn
warm-up app: run first on the same engine, it must not change the
target run's answer, level sizes, spills or bytes written.  About a third
pick a kill iteration: a checkpointed run dies right after that
iteration's checkpoint lands (the folded last iteration's included,
from which a resume explores nothing), and a fresh engine and app resume
it with the same storage mode and executor.  The resumed run must equal the
straight one in pattern map, level sizes and spill counts, leave no part
in the spill directory, and leave its checkpoints loadable.  Half pick
an input order: the target configuration also runs on a random
relabelling of the drawn graph, and must give the same level sizes and
the same pattern map, its MNI domains mapped back to the drawn ids (an
FSM map holds only the frequent patterns, so it is compared whole).

The example budget comes from the hypothesis profile in
``tests/conftest.py``: ``tier1`` by default, ``deep`` with
``--hypothesis-profile=deep``.
"""

import tempfile
from pathlib import Path

import numpy as np
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
from repro.storage import RunCheckpoint

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
        "workers": draw(st.integers(min_value=1, max_value=4)),
        "warmup": draw(app_specs()) if draw(st.booleans()) else None,
        "kill": draw(st.integers(0, 2)) if draw(st.integers(0, 2)) == 0 else None,
        "relabel": draw(st.permutations(range(n))) if draw(st.booleans()) else None,
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


class _Kill(BaseException):
    """Not an Exception: nothing in the engine may swallow the kill."""


def _engine(case, executor, spill_dir, **kwargs):
    storage = {
        "memory": {"storage_mode": "memory"},
        "spill-last": {"storage_mode": "spill-last", "spill_dir": spill_dir},
        "spill-every-level": {"memory_limit_bytes": 1, "spill_dir": spill_dir},
    }[case["storage"]]
    return KaleidoEngine(
        case["graph"], executor=executor, workers=case["workers"], **storage, **kwargs
    )


def _run(case, executor, spill_dir, warmup=None):
    with _engine(case, executor, spill_dir) as engine:
        if warmup is not None:
            engine.run(_make_app(warmup))
        return engine.run(_make_app(case))


def _kill_and_resume(case, spill_dir):
    """Die after checkpoint ``case["kill"]`` (if the run gets that far),
    then resume on a fresh engine with a fresh app."""

    def kill(iteration, path):
        if iteration == case["kill"]:
            raise _Kill

    with tempfile.TemporaryDirectory() as ckpt:
        try:
            with _engine(case, case["executor"], spill_dir, checkpoint_dir=ckpt,
                         on_checkpoint=kill) as engine:
                engine.run(_make_app(case))
        except _Kill:
            pass
        with _engine(case, case["executor"], spill_dir, checkpoint_dir=ckpt) as engine:
            resumed = engine.run(_make_app(case), resume=True)
        assert not list(Path(spill_dir).glob("*.npy"))
        assert RunCheckpoint(ckpt).latest() is not None
    return resumed


def _relabelled(case):
    """The drawn graph with vertex ``v`` renamed ``case["relabel"][v]``."""
    graph, new_id = case["graph"], case["relabel"]
    labels = np.empty_like(graph.labels)
    labels[new_id] = graph.labels
    edges = [(new_id[u], new_id[v]) for u, v in graph.edges()]
    return from_edge_list(edges, labels=labels.tolist(), name="fuzz-relabelled")


def _in_drawn_ids(case, pattern_map, old_id):
    """The order-free part of ``pattern_map``, vertices renamed by
    ``old_id``: counts as they are; an FSM map's patterns with their MNI
    domains — or, under the support threshold, where a domain stops
    growing once frequent at a point that depends on vertex order, just
    the patterns."""
    if case["app"] not in ("fsm", "vfsm"):
        return pattern_map
    if not case["exact_mni"]:
        return set(pattern_map)
    return {
        key: [sorted(old_id[v] for v in domain) for domain in dom.domains]
        for key, dom in pattern_map.items()
    }


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
            if case["kill"] is not None:
                resumed = _kill_and_resume(case, spill_dir)
                assert resumed.pattern_map == result.pattern_map
                assert resumed.level_sizes == result.level_sizes
                for key in ("spilled_levels", "demoted_levels"):
                    assert resumed.extra[key] == result.extra[key]
            if case["relabel"] is not None:
                relabelled = _run({**case, "graph": _relabelled(case)}, case["executor"], spill_dir)
                old_id = np.argsort(case["relabel"]).tolist()
                assert relabelled.level_sizes == result.level_sizes
                assert _in_drawn_ids(case, relabelled.pattern_map, old_id) == _in_drawn_ids(
                    case, result.pattern_map, list(range(len(old_id)))
                )
    finally:
        oracle_executor.close()
    assert result.pattern_map == oracle.pattern_map
    assert result.level_sizes == oracle.level_sizes
    if case["storage"] != "memory":
        # Every stored level spills: all but the roots and a folded last
        # level (FSM apps prune every level, so they store it too).
        folded = case["app"] not in ("fsm", "vfsm")
        assert result.extra["spilled_levels"] == len(result.level_sizes) - 1 - folded
    _check_reference(case, result)
