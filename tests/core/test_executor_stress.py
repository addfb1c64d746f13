"""Executor-parity stress sweep with span-tree shape checks.

Random seeded graphs x every mining application x every executor
(the serial default and the real thread pool): the pattern maps must
be byte-identical and the
traces must have identical span-tree *shapes* — same event multiset of
(kind, name, parent, non-timing args) — even though wall times and
worker attribution legitimately differ between executors.
"""

import numpy as np
import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
    Pattern,
)
from repro.apps import PatternMatching, VertexInducedFSM
from repro.core.cse import CSE
from repro.core.executor import SerialExecutor, ThreadedExecutor
from repro.core.explore import even_parts
from repro.obs import Tracer, span_tree_shape

from tests.conftest import filtered_expander, random_labeled_graph

TRIANGLE = Pattern.from_adjacency([0, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

APPS = {
    "fsm": lambda: FrequentSubgraphMining(2, support=4),
    "vfsm": lambda: VertexInducedFSM(2, support=4),
    "motif": lambda: MotifCounting(3),
    "clique": lambda: CliqueDiscovery(3),
    "matching": lambda: PatternMatching(TRIANGLE),
}

EXECUTORS = {
    "serial": lambda: SerialExecutor(),
    "threads": lambda: ThreadedExecutor(),
}


def _run(graph, make_app, make_executor):
    tracer = Tracer()
    executor = make_executor()
    try:
        with KaleidoEngine(
            graph, workers=4, executor=executor, tracer=tracer
        ) as engine:
            result = engine.run(make_app())
    finally:
        executor.close()
    assert tracer.open_spans() == []
    return result, span_tree_shape(tracer.events)


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_executors_agree_on_results_and_span_shape(seed, app_name):
    """Every executor produces byte-identical pattern maps and identical
    span-tree shapes."""
    graph = random_labeled_graph(30, 70, 3, seed=seed)
    results = {}
    shapes = {}
    for key, make_executor in EXECUTORS.items():
        results[key], shapes[key] = _run(graph, APPS[app_name], make_executor)

    baseline = results["serial"]
    for key, result in results.items():
        assert result.pattern_map == baseline.pattern_map, (
            f"{app_name} pattern map differs under {key} (seed {seed})"
        )
        assert result.level_sizes == baseline.level_sizes

    baseline_shape = shapes["serial"]
    for key, shape in shapes.items():
        assert shape == baseline_shape, (
            f"{app_name} span-tree shape differs under {key} (seed {seed})"
        )


PATH4 = Pattern.from_adjacency(
    [0, 1, 0, 1], [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
)

FILTERED_APPS = {
    "fsm": lambda: FrequentSubgraphMining(3, support=3),
    "vfsm": lambda: VertexInducedFSM(3, support=3),
    "clique": lambda: CliqueDiscovery(4),
    "matching": lambda: PatternMatching(PATH4),
}


@pytest.mark.parametrize("app_name", sorted(FILTERED_APPS))
def test_block_filters_agree_across_executors(app_name):
    """Each filtered app's block filter builds byte-identical levels
    under serial and threads."""
    graph = random_labeled_graph(40, 140, 2, seed=5)
    app = FILTERED_APPS[app_name]()
    roots, expand = filtered_expander(graph, app)

    levels = {}
    for exec_name in ("serial", "threads"):
        executor = EXECUTORS[exec_name]()
        cse = CSE(roots.copy())
        try:
            for _ in range(app.iterations()):
                expand(
                    cse,
                    parts=even_parts(cse.size(), 3),
                    executor=executor,
                    workers=2,
                )
        finally:
            executor.close()
        levels[exec_name] = [
            (level.vert_array().copy(), level.off_array().copy())
            for level in cse.levels[1:]
        ]
    assert sum(vert.shape[0] for vert, _ in levels["serial"]) > 0
    for (vert, off), (base_vert, base_off) in zip(levels["threads"], levels["serial"]):
        np.testing.assert_array_equal(vert, base_vert)
        np.testing.assert_array_equal(off, base_off)


def test_shape_contains_the_pipeline_spans():
    graph = random_labeled_graph(30, 70, 3, seed=11)
    _, shape = _run(graph, APPS["motif"], EXECUTORS["serial"])
    names = {key[1] for key in shape}
    assert {"run", "level", "plan", "execute", "aggregate", "part"} <= names
    # part spans hang off a stage, never float free
    part_parents = {key[2] for key in shape if key[1] == "part"}
    assert part_parents <= {"execute", "aggregate"}
