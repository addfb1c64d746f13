"""Property-based guarantees for symmetry-breaking restrictions.

Two families of properties:

* **compiler soundness** — for random small connected patterns, the
  compiled restriction set accepts *exactly one* binding per
  automorphism orbit of any injective assignment (so the number of
  accepted permutations is ``k! / |Aut|``);
* **kernel parity** — on random graphs, the restriction-fused kernel
  builds levels byte-identical to the unrestricted scalar oracle.
"""

from itertools import permutations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cse import CSE
from repro.core.explore import expand_edge_level, expand_vertex_level
from repro.core.isomorphism import automorphisms
from repro.core.pattern import Pattern, triangle_index
from repro.core.restrictions import compile_restrictions
from repro.graph.edge_index import EdgeIndex

from tests.conftest import random_labeled_graph
from tests.oracles import OracleExecutor


def _connected(num_vertices, adjacency):
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w in range(num_vertices):
            if adjacency[u][w] and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == num_vertices


@st.composite
def connected_patterns(draw):
    k = draw(st.integers(min_value=3, max_value=5))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=1), min_size=k, max_size=k
        )
    )
    adjacency = [[0] * k for _ in range(k)]
    for u in range(k):
        for w in range(u + 1, k):
            bit = draw(st.booleans())
            adjacency[u][w] = adjacency[w][u] = int(bit)
    assume(_connected(k, adjacency))
    return Pattern.from_adjacency(labels, adjacency)


@given(connected_patterns())
@settings(max_examples=60, deadline=None)
def test_exactly_one_accepted_binding_per_automorphism_orbit(pattern):
    rset = compile_restrictions(pattern)
    group = automorphisms(pattern)
    k = pattern.num_vertices
    values = tuple(100 + 7 * t for t in range(k))
    accepted_total = 0
    for assignment in permutations(values):
        orbit = {
            tuple(assignment[perm[t]] for t in range(k)) for perm in group
        }
        accepted = sum(1 for binding in orbit if rset.accepts(binding))
        assert accepted == 1, (pattern.labels, pattern.bits, assignment)
        accepted_total += rset.accepts(assignment)
    # One survivor per orbit over all k! permutations: k! / |Aut| total.
    factorial = 1
    for t in range(2, k + 1):
        factorial *= t
    assert accepted_total == factorial // len(group)


@given(connected_patterns())
@settings(max_examples=40, deadline=None)
def test_restrictions_are_consistent_partial_orders(pattern):
    """Every compiled pair is ascending, in-range, and acyclic (the
    identity binding 0..k-1 always satisfies the set)."""
    rset = compile_restrictions(pattern)
    k = pattern.num_vertices
    for r in rset.restrictions:
        assert 0 <= r.smaller < r.larger < k
    assert rset.accepts(tuple(range(k)))


@st.composite
def graph_cases(draw):
    num_vertices = draw(st.integers(min_value=3, max_value=24))
    max_edges = num_vertices * (num_vertices - 1) // 2
    num_edges = draw(st.integers(min_value=1, max_value=min(max_edges, 50)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    depth = draw(st.integers(min_value=1, max_value=3))
    return num_vertices, num_edges, seed, depth

def _levels_match(left, right):
    assert left.size() == right.size()
    np.testing.assert_array_equal(
        left.top.vert_array(), right.top.vert_array()
    )
    np.testing.assert_array_equal(left.top.off_array(), right.top.off_array())


@given(graph_cases())
@settings(max_examples=30, deadline=None)
def test_restricted_vertex_levels_match_scalar_oracle(case):
    num_vertices, num_edges, seed, depth = case
    graph = random_labeled_graph(num_vertices, num_edges, 3, seed=seed)
    fast = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    oracle = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(depth):
        expand_vertex_level(graph, fast)
        expand_vertex_level(graph, oracle, executor=OracleExecutor())
        _levels_match(fast, oracle)
        if oracle.size() == 0 or oracle.size() > 20_000:
            return


@given(graph_cases())
@settings(max_examples=20, deadline=None)
def test_restricted_edge_levels_match_scalar_oracle(case):
    num_vertices, num_edges, seed, depth = case
    graph = random_labeled_graph(num_vertices, num_edges, 3, seed=seed)
    index = EdgeIndex(graph)
    if index.num_edges == 0:
        return
    fast = CSE(np.arange(index.num_edges, dtype=np.int32))
    oracle = CSE(np.arange(index.num_edges, dtype=np.int32))
    for _ in range(min(depth, 2)):
        expand_edge_level(graph, index, fast)
        expand_edge_level(graph, index, oracle, executor=OracleExecutor())
        _levels_match(fast, oracle)
        if oracle.size() == 0 or oracle.size() > 20_000:
            return


@given(st.integers(min_value=3, max_value=6))
@settings(max_examples=4, deadline=None)
def test_clique_restrictions_form_a_total_chain(k):
    """K_k has the full symmetric group, so the compiled set must be the
    total order 0 < 1 < ... < k-1 after transitive reduction."""
    bits = 0
    for u in range(k):
        for w in range(u + 1, k):
            bits |= 1 << triangle_index(u, w, k)
    pattern = Pattern(tuple([0] * k), bits)
    rset = compile_restrictions(pattern)
    expected = tuple((t, t + 1) for t in range(k - 1))
    assert tuple((r.smaller, r.larger) for r in rset.restrictions) == expected
