"""Shared fixtures: the paper's running example and small random graphs."""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import settings

from repro.core.engine import KaleidoEngine
from repro.graph import Graph, GraphBuilder, from_edge_list

# Hypothesis profiles.  Every property test pins its own max_examples
# except the engine fuzzer (tests/property/test_engine_fuzz.py), whose
# budget is the profile's: "tier1" (loaded here) keeps tier-1 fast and
# deterministic — derandomized, with no example database, so every run
# draws the same examples; "deep" (``pytest --hypothesis-profile=deep``)
# is the long fuzz run and keeps its random draws.
settings.register_profile(
    "tier1", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.register_profile("deep", max_examples=2000, deadline=None)
# A test module importing ``tests.conftest`` runs this file a second time,
# after the command line's profile was loaded: keep a chosen profile.
if settings.get_current_profile_name() == "default":
    settings.load_profile("tier1")


@pytest.fixture
def paper_graph() -> Graph:
    """The 5-vertex graph of Figures 1/3/9 of the paper.

    Vertices 1..5 (vertex 0 exists but is isolated and edge-free is not
    allowed by the apps' canonical exploration, so it contributes only a
    1-embedding).  Known ground truth: 7 2-embeddings, 8 3-embeddings,
    3 triangles, 5 3-chains, 3 3-cliques.
    """
    return from_edge_list(
        [(1, 2), (1, 5), (2, 5), (2, 3), (3, 4), (3, 5), (4, 5)], name="paper"
    )


@pytest.fixture
def labeled_square() -> Graph:
    """A 4-cycle with a chord and alternating labels."""
    return from_edge_list(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], labels=[0, 1, 0, 1], name="square"
    )


def random_labeled_graph(
    num_vertices: int, num_edges: int, num_labels: int, seed: int
) -> Graph:
    """Seeded uniform random labeled graph for property tests."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_vertices)
    seen: set[tuple[int, int]] = set()
    attempts = 0
    while len(seen) < num_edges and attempts < 50 * num_edges + 100:
        u = int(rng.integers(num_vertices))
        v = int(rng.integers(num_vertices))
        attempts += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            builder.add_edge(*key)
    labels = rng.integers(num_labels, size=num_vertices)
    builder.set_labels([int(x) for x in labels])
    return builder.build(name=f"rand-{seed}")


def filtered_expander(graph: Graph, app):
    """``(roots, expand)`` for exercising an app's pruning level by level.

    Runs the app's ``init`` and ``block_filter`` hooks and the planner's
    pattern-gather compilation the way the engine does (the app must
    prune through at least one of them); ``expand(cse, **kwargs)`` then
    grows ``cse`` by one level with that filter and the level's gather
    through ``expand_vertex_level`` / ``expand_edge_level``, whichever
    the app's induced mode calls for."""
    from repro.core.api import EngineContext
    from repro.core.explore import expand_edge_level, expand_vertex_level
    from repro.core.plan import Planner
    from repro.graph.edge_index import EdgeIndex

    ctx = EngineContext(graph=graph, engine=None)
    if app.induced == "edge":
        ctx.edge_index = EdgeIndex(graph)
    roots = app.init(ctx)
    block_filter = app.block_filter(ctx)
    gathers = Planner(graph, policy=None).pattern_gathers(app)
    assert block_filter is not None or gathers

    def expand(cse, **kwargs):
        if app.induced == "edge":
            return expand_edge_level(graph, ctx.edge_index, cse, block_filter, **kwargs)
        return expand_vertex_level(
            graph, cse, block_filter, pattern_gather=gathers.get(cse.depth), **kwargs
        )

    expand.block_filter = block_filter
    return roots, expand


def all_adjacent(ctx, block, rows, candidates) -> np.ndarray:
    """Block filter keeping a candidate only when it closes a clique with
    every embedding column — the all-adjacent rule a complete query
    pattern's gather compiles in, kept here as its independent check."""
    keep = np.ones(rows.shape[0], dtype=bool)
    for col in range(block.shape[1]):
        live = np.flatnonzero(keep)
        keep[live] = ctx.has_edges(block[rows[live], col], candidates[live])
    return keep


@pytest.fixture
def small_random() -> Graph:
    return random_labeled_graph(12, 20, 3, seed=7)


@pytest.fixture
def sanitized_engine():
    """Factory for engines running under the part-purity sanitizer.

    ``engine = sanitized_engine(graph, workers=4, executor="threads")``
    builds a ``KaleidoEngine`` with ``sanitize=True`` (overridable) and
    closes it when the test ends.
    """
    with ExitStack() as stack:

        def factory(graph: Graph, **kwargs) -> KaleidoEngine:
            kwargs.setdefault("sanitize", True)
            return stack.enter_context(KaleidoEngine(graph, **kwargs))

        yield factory
