"""Oracle-differential suite for the symmetry-breaking restriction compiler.

Two layers of guarantees:

* the **pattern compiler** (`compile_restrictions`) emits the exact
  minimal partial orders the stabilizer-chain construction promises, and
  every compiled set accepts exactly one assignment per automorphism
  orbit (exhaustively checked for the hand-built corpus);
* the **restriction-fused kernel** emits levels byte-identical to the
  unrestricted scalar oracle, at every level, on multiple seeded graphs
  — and whole engine runs (every shipped app, kernel vs the scalar
  loops swapped in by `tests.oracles.OracleExecutor`) produce
  byte-identical pattern maps.
"""

from itertools import combinations, permutations

import numpy as np
import pytest

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
    Pattern,
)
from repro.apps import PatternMatching, TriangleCounting, VertexInducedFSM
from repro.apps.reference import count_cliques_naive
from repro.core import (
    CSE,
    PatternGather,
    Planner,
    Restriction,
    RestrictionSet,
    compile_restrictions,
    expand_edge_level,
    expand_vertex_level,
    pattern_gathers,
)
from repro.core.isomorphism import automorphisms
from repro.graph.edge_index import EdgeIndex

from tests.conftest import random_labeled_graph
from tests.oracles import OracleExecutor, are_isomorphic, position_orbits

# ----------------------------------------------------------------------
# Hand-built symmetric pattern corpus
# ----------------------------------------------------------------------
TRIANGLE = Pattern.from_adjacency([0, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
STAR4 = Pattern.from_adjacency(
    [0, 0, 0, 0], [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]
)
CLIQUE4 = Pattern.from_adjacency(
    [0, 0, 0, 0], [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
)
PATH3 = Pattern.from_adjacency([0, 0, 0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
#: K4 minus one edge: positions 0, 1 are the degree-3 pair.
DIAMOND = Pattern.from_adjacency(
    [0, 0, 0, 0], [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
)

CORPUS = {
    "triangle": TRIANGLE,
    "star": STAR4,
    "clique": CLIQUE4,
    "path": PATH3,
    "diamond": DIAMOND,
}


# ----------------------------------------------------------------------
# Compiler: exact expected restriction sets
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, expected",
    [
        ("triangle", ((0, 1), (1, 2))),
        ("star", ((1, 2), (2, 3))),
        ("clique", ((0, 1), (1, 2), (2, 3))),
        ("path", ((0, 2),)),
        ("diamond", ((0, 1), (2, 3))),
    ],
)
def test_compiler_emits_expected_sets(name, expected):
    rset = compile_restrictions(CORPUS[name])
    assert rset.num_vertices == CORPUS[name].num_vertices
    assert tuple((r.smaller, r.larger) for r in rset.restrictions) == expected


def test_labeled_pattern_with_trivial_group_has_no_restrictions():
    distinct = Pattern.from_adjacency([0, 1, 2], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert compile_restrictions(distinct).restrictions == ()


def test_labels_shrink_the_restriction_set():
    # Triangle with one distinguished vertex: only the label-0 pair swaps.
    semi = Pattern.from_adjacency([1, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    rset = compile_restrictions(semi)
    assert tuple((r.smaller, r.larger) for r in rset.restrictions) == ((1, 2),)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_compiled_sets_are_transitively_reduced(name):
    """Minimality: dropping any restriction changes the accepted set."""
    rset = compile_restrictions(CORPUS[name])
    k = rset.num_vertices
    for dropped in rset.restrictions:
        smaller = RestrictionSet(
            num_vertices=k,
            restrictions=tuple(r for r in rset.restrictions if r != dropped),
        )
        difference = [
            binding
            for binding in permutations(range(k))
            if smaller.accepts(binding) != rset.accepts(binding)
        ]
        assert difference, f"{dropped} is redundant in {name}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_exactly_one_accepted_assignment_per_automorphism_orbit(name):
    """The defining property: among the |Aut| automorphic re-bindings of
    any injective assignment, exactly one satisfies the compiled set."""
    pattern = CORPUS[name]
    rset = compile_restrictions(pattern)
    group = automorphisms(pattern)
    k = pattern.num_vertices
    values = (10, 21, 34, 47, 58)[:k]
    for assignment in permutations(values):
        orbit = {tuple(assignment[perm[t]] for t in range(k)) for perm in group}
        accepted = [binding for binding in sorted(orbit) if rset.accepts(binding)]
        assert len(accepted) == 1, (name, assignment, accepted)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_restrictions_only_relate_positions_in_one_orbit_chain(name):
    """Restriction endpoints are ascending and lie inside orbits of the
    stabilizer chain — sanity for the construction, via position_orbits."""
    pattern = CORPUS[name]
    rset = compile_restrictions(pattern)
    orbits = position_orbits(pattern)
    by_position = {}
    for orbit in orbits:
        for position in orbit:
            by_position[position] = orbit
    for r in rset.restrictions:
        assert r.smaller < r.larger
        assert by_position[r.smaller] == by_position[r.larger]


def test_level_constraint_split():
    rset = compile_restrictions(CLIQUE4)
    constraints = rset.level_constraints()
    assert [c.position for c in constraints] == [1, 2, 3]
    assert [c.lower_cols for c in constraints] == [(0,), (1,), (2,)]
    assert all(c.upper_cols == () for c in constraints)
    diamond = compile_restrictions(DIAMOND)
    assert diamond.constraints_at(1).lower_cols == (0,)
    assert diamond.constraints_at(2).lower_cols == ()
    assert diamond.constraints_at(3).lower_cols == (2,)


def test_restriction_set_validation():
    with pytest.raises(ValueError):
        RestrictionSet(num_vertices=3, restrictions=(Restriction(1, 1),))
    with pytest.raises(ValueError):
        RestrictionSet(num_vertices=3, restrictions=(Restriction(0, 3),))
    rset = RestrictionSet(num_vertices=3, restrictions=(Restriction(0, 1),))
    with pytest.raises(ValueError):
        rset.accepts((1, 2))  # binding too short


# ----------------------------------------------------------------------
# Kernel differential: the fused kernel vs the scalar oracle, per level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11, 23])
def test_vertex_levels_byte_identical_to_scalar_oracle(seed):
    graph = random_labeled_graph(40, 110, 3, seed=seed)
    fast = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    oracle = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(3):
        expand_vertex_level(graph, fast, None)
        expand_vertex_level(graph, oracle, None, executor=OracleExecutor())
        assert fast.size() == oracle.size()
        assert np.array_equal(
            fast.decode_block(0, fast.size()),
            oracle.decode_block(0, oracle.size()),
        ), f"vertex level {fast.depth} diverged (seed {seed})"


@pytest.mark.parametrize("seed", [3, 11, 23])
def test_edge_levels_byte_identical_to_scalar_oracle(seed):
    graph = random_labeled_graph(30, 70, 3, seed=seed)
    index = EdgeIndex(graph)
    fast = CSE(np.arange(index.num_edges, dtype=np.int32))
    oracle = CSE(np.arange(index.num_edges, dtype=np.int32))
    for _ in range(2):
        expand_edge_level(graph, index, fast, None)
        expand_edge_level(graph, index, oracle, None, executor=OracleExecutor())
        assert fast.size() == oracle.size()
        assert np.array_equal(
            fast.decode_block(0, fast.size()),
            oracle.decode_block(0, oracle.size()),
        ), f"edge level {fast.depth} diverged (seed {seed})"


# ----------------------------------------------------------------------
# Whole-app differential: every shipped app, kernel vs scalar oracle
# ----------------------------------------------------------------------
SHIPPED_APPS = {
    "tc": lambda: TriangleCounting(),
    "motif": lambda: MotifCounting(3),
    "clique": lambda: CliqueDiscovery(3),
    "matching": lambda: PatternMatching(TRIANGLE),
    "fsm": lambda: FrequentSubgraphMining(2, support=4),
    "vfsm": lambda: VertexInducedFSM(2, support=4),
}


def _engine_run(graph, make_app, kernel):
    """One engine run on the kernel, or (``kernel=False``) on the scalar
    oracle loops."""
    executor = "serial" if kernel else OracleExecutor()
    with KaleidoEngine(graph, executor=executor) as engine:
        return engine.run(make_app())


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("app_name", sorted(SHIPPED_APPS))
def test_shipped_apps_pattern_maps_identical_with_and_without(app_name, seed):
    graph = random_labeled_graph(30, 70, 3, seed=seed)
    restricted = _engine_run(graph, SHIPPED_APPS[app_name], True)
    oracle = _engine_run(graph, SHIPPED_APPS[app_name], False)
    assert restricted.pattern_map == oracle.pattern_map
    assert restricted.level_sizes == oracle.level_sizes
    assert restricted.value == oracle.value
    assert restricted.extra["executor"] == "simulated"
    assert oracle.extra["executor"] == "oracle"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_pattern_counts_identical_with_and_without(name):
    """PatternMatching over every hand-built symmetric pattern: the
    restricted run reports the same per-pattern map as the oracle run."""
    graph = random_labeled_graph(24, 60, 1, seed=7)
    restricted = _engine_run(graph, lambda: PatternMatching(CORPUS[name]), True)
    oracle = _engine_run(graph, lambda: PatternMatching(CORPUS[name]), False)
    assert restricted.pattern_map == oracle.pattern_map
    assert restricted.value == oracle.value


def test_engine_records_compiled_pattern_restrictions():
    graph = random_labeled_graph(24, 60, 1, seed=7)
    result = _engine_run(graph, lambda: PatternMatching(CLIQUE4), True)
    assert result.extra["pattern_restrictions"] == [(0, 1), (1, 2), (2, 3)]
    # Apps without a single query pattern carry none.
    result = _engine_run(graph, SHIPPED_APPS["motif"], True)
    assert result.extra["pattern_restrictions"] is None
    # Clique and triangle counting expose their implicit patterns.
    result = _engine_run(graph, SHIPPED_APPS["clique"], True)
    assert result.extra["pattern_restrictions"] == [(0, 1), (1, 2)]
    result = _engine_run(graph, SHIPPED_APPS["tc"], True)
    assert result.extra["pattern_restrictions"] == [(0, 1), (1, 2)]


def test_level_plans_carry_pattern_gathers():
    graph = random_labeled_graph(24, 60, 1, seed=7)
    from repro.core.api import EngineContext
    from repro.storage import MemoryBudget, MemoryMeter, StoragePolicy

    planner = Planner(
        graph,
        StoragePolicy(MemoryBudget(None), MemoryMeter()),
        gathers=Planner.pattern_gathers(PatternMatching(CLIQUE4)),
    )
    with KaleidoEngine(graph) as engine:
        ctx = EngineContext(graph=graph, engine=engine)
        cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
        gathers = []
        for _ in range(4):
            gathers.append(planner.plan_level(ctx, cse).pattern_gather)
            expand_vertex_level(graph, cse, pattern_gather=gathers[-1])
    assert gathers == [
        PatternGather((0,), (0,)),
        PatternGather((0, 1), (1,)),
        PatternGather((0, 1, 2), (2,)),
        None,  # past the pattern
    ]


# ----------------------------------------------------------------------
# Planner gating: only complete, uniformly labelled patterns gather
# ----------------------------------------------------------------------
#: Complete but labelled: only positions 0 and 1 swap, so the compiled
#: set is (0 < 1), not the chain.
LABELLED_TRIANGLE = Pattern.from_adjacency([0, 0, 1], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def _naive_match_count(graph, pattern):
    k = pattern.num_vertices
    return sum(
        are_isomorphic(Pattern.from_vertex_embedding(graph, verts), pattern)
        for verts in combinations(range(graph.num_vertices), k)
    )


@pytest.mark.parametrize(
    "name, pattern",
    [("labelled-triangle", LABELLED_TRIANGLE), ("diamond", DIAMOND), ("path", PATH3)],
)
def test_planner_gives_no_gather_to_other_patterns(name, pattern):
    graph = random_labeled_graph(16, 40, 2, seed=5)
    assert Planner.pattern_gathers(PatternMatching(pattern)) == {}
    with KaleidoEngine(graph) as engine:
        result = engine.run(PatternMatching(pattern))
    with KaleidoEngine(graph, executor=OracleExecutor()) as engine:
        oracle = engine.run(PatternMatching(pattern))
    assert result.value.count == _naive_match_count(graph, pattern)
    assert result.pattern_map == oracle.pattern_map
    assert result.level_sizes == oracle.level_sizes
    # Without a gather the levels keep every connected subgraph.
    assert result.level_sizes[-1] >= result.value.count


def test_compiled_chain_without_completeness_gets_no_gather():
    """The chain alone does not decide it: a hand-built chain set over a
    path pattern still gets no gather, because the pattern is not
    complete."""
    chain = RestrictionSet(3, (Restriction(0, 1), Restriction(1, 2)))
    assert pattern_gathers(PATH3, chain) == {}
    assert pattern_gathers(TRIANGLE, chain) == {
        1: PatternGather((0,), (0,)),
        2: PatternGather((0, 1), (1,)),
    }


@pytest.mark.parametrize("k", [3, 4])
def test_unlabelled_clique_matching_takes_the_gather(k):
    graph = random_labeled_graph(26, 110, 1, seed=13)
    clique = CliqueDiscovery(k, materialize=True)
    matching = PatternMatching(clique.query_pattern(), materialize=True)
    assert len(Planner.pattern_gathers(matching)) == k - 1
    with KaleidoEngine(graph) as engine:
        matched = engine.run(matching)
        cliques = engine.run(clique)
    with KaleidoEngine(graph, executor=OracleExecutor()) as engine:
        oracle = engine.run(PatternMatching(clique.query_pattern()))
    assert matched.pattern_map == {0: count_cliques_naive(graph, k)}
    assert matched.pattern_map == oracle.pattern_map
    assert matched.level_sizes == oracle.level_sizes == cliques.level_sizes
    assert matched.value.matches == cliques.value.cliques
