"""Property-based tests: canonical exploration is complete and unique."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import canonical_order, is_canonical
from repro.graph import from_edge_list

from tests.oracles import extends_canonically


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=len(possible), unique=True)
    )
    return from_edge_list(edges)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_canonical_order_is_canonical(graph):
    """The greedy order of any connected set passes the full check, and its
    prefixes do too (the completeness induction step)."""
    # Collect connected sets by BFS from each vertex (bounded size).
    for start in range(graph.num_vertices):
        verts = {start}
        frontier = [start]
        while frontier and len(verts) < 4:
            v = frontier.pop()
            for w in graph.neighbors(v).tolist():
                if w not in verts and len(verts) < 4:
                    verts.add(w)
                    frontier.append(w)
        if len(verts) < 2:
            continue
        try:
            order = canonical_order(graph, sorted(verts))
        except ValueError:
            continue
        for prefix_len in range(1, len(order) + 1):
            assert is_canonical(graph, order[:prefix_len])


@given(graphs(max_n=8))
@settings(max_examples=50, deadline=None)
def test_incremental_equals_full_recheck(graph):
    """extends_canonically(e, v) ⟺ is_canonical(e + (v,)) for canonical e."""
    frontier = [(v,) for v in range(graph.num_vertices)]
    for _ in range(2):
        nxt = []
        for emb in frontier:
            for cand in range(graph.num_vertices):
                fast = extends_canonically(graph.adjacency_sets(), emb, cand)
                slow = is_canonical(graph, emb + (cand,))
                assert fast == slow
                if fast:
                    nxt.append(emb + (cand,))
        frontier = nxt[:40]


@given(graphs(max_n=8), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_exploration_unique_and_complete(graph, k):
    """Canonical exploration enumerates each connected k-set exactly once."""
    from repro.apps.reference import connected_vertex_sets

    frontier = [(v,) for v in range(graph.num_vertices)]
    for _ in range(k - 1):
        nxt = []
        for emb in frontier:
            for cand in range(graph.num_vertices):
                if extends_canonically(graph.adjacency_sets(), emb, cand):
                    nxt.append(emb + (cand,))
        frontier = nxt
    found = sorted(tuple(sorted(e)) for e in frontier)
    assert found == sorted(connected_vertex_sets(graph, k))
    assert len(set(found)) == len(found)
