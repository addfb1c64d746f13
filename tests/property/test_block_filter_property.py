"""Property: filtered kernel levels equal the scalar oracle's, byte for byte.

For a random small labelled graph and each shipped pruning application
(FSM, vertex FSM, pattern matching, and clique through its pattern
gather) the level built by the vectorized kernels with the app's block
filter and level gather must have the same ``vert`` and ``off`` arrays
as the scalar per-embedding loop calling the same filter with one-row
blocks and post-filtering by the same gather — with the level being
expanded either resident or spilled and served through ``mmap``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    PatternMatching,
    VertexInducedFSM,
)
from repro.core.cse import CSE
from repro.core.pattern import Pattern
from repro.storage import PartStore
from repro.storage.hybrid import spill_level

from tests.conftest import filtered_expander, random_labeled_graph
from tests.oracles import OracleExecutor


def _path_pattern(k, seed):
    labels = [int(x) for x in np.random.default_rng(seed).integers(3, size=k)]
    adjacency = [[int(abs(i - j) == 1) for j in range(k)] for i in range(k)]
    return Pattern.from_adjacency(labels, adjacency)


APPS = {
    "clique": lambda k, seed: CliqueDiscovery(k),
    "fsm": lambda k, seed: FrequentSubgraphMining(k, support=2),
    "vfsm": lambda k, seed: VertexInducedFSM(k, support=2),
    "matching": lambda k, seed: PatternMatching(_path_pattern(k, seed)),
}


@st.composite
def filter_cases(draw):
    num_vertices = draw(st.integers(min_value=3, max_value=24))
    max_edges = num_vertices * (num_vertices - 1) // 2
    return {
        "num_vertices": num_vertices,
        "num_edges": draw(st.integers(min_value=1, max_value=min(max_edges, 50))),
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "app": draw(st.sampled_from(sorted(APPS))),
        "k": draw(st.integers(min_value=2, max_value=4)),
        "spilled": draw(st.booleans()),
    }


@given(filter_cases())
@settings(max_examples=60, deadline=None)
def test_filtered_kernel_levels_match_scalar_oracle(case):
    graph = random_labeled_graph(
        case["num_vertices"], case["num_edges"], 3, seed=case["seed"]
    )
    app = APPS[case["app"]](case["k"], case["seed"])
    roots, expand = filtered_expander(graph, app)
    fast, oracle = CSE(roots.copy()), CSE(roots.copy())
    with PartStore() as store:
        for _ in range(app.iterations()):
            if case["spilled"] and fast.depth > 1:  # the root level never spills
                fast.append_level(spill_level(fast.pop_level(), store, part_entries=5))
            expand(fast)
            expand(oracle, executor=OracleExecutor())
            np.testing.assert_array_equal(
                fast.top.vert_array(), oracle.top.vert_array()
            )
            np.testing.assert_array_equal(fast.top.off_array(), oracle.top.off_array())
            if oracle.size() == 0 or oracle.size() > 20_000:
                break
