"""Property-based tests: EigenHash ⟺ exact isomorphism (Theorem 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pattern, eigen_hash, faddeev_leverrier
from repro.core.pattern import triangle_index
from tests.oracles import are_isomorphic


@st.composite
def patterns(draw, max_k=7, max_label=2):
    k = draw(st.integers(min_value=1, max_value=max_k))
    labels = tuple(
        draw(st.integers(min_value=0, max_value=max_label)) for _ in range(k)
    )
    bits = draw(st.integers(min_value=0, max_value=(1 << (k * (k - 1) // 2)) - 1))
    return Pattern(labels, bits)


@st.composite
def pattern_with_permutation(draw, max_k=7):
    pattern = draw(patterns(max_k=max_k))
    perm = draw(st.permutations(range(pattern.num_vertices)))
    return pattern, list(perm)


@given(pattern_with_permutation())
@settings(max_examples=150, deadline=None)
def test_hash_invariant_under_relabeling(case):
    """Isomorphic (relabeled) patterns always hash equal (necessity)."""
    pattern, perm = case
    assert eigen_hash(pattern) == eigen_hash(pattern.permute(perm))


@given(patterns(max_k=6), patterns(max_k=6))
@settings(max_examples=200, deadline=None)
def test_hash_equality_iff_isomorphic(a, b):
    """Below 9 vertices, hash collision ⟺ isomorphism (sufficiency).

    Hypothesis rarely generates isomorphic pairs by chance, so this mostly
    stresses the no-false-collision direction; the necessity direction is
    covered by the relabeling test above.
    """
    assert (eigen_hash(a) == eigen_hash(b)) == are_isomorphic(a, b)


@given(pattern_with_permutation(max_k=6))
@settings(max_examples=100, deadline=None)
def test_charpoly_similarity_invariant(case):
    """Theorem 1: similar matrices share the characteristic polynomial."""
    pattern, perm = case
    a = faddeev_leverrier(pattern.adjacency_matrix())
    b = faddeev_leverrier(pattern.permute(perm).adjacency_matrix())
    assert a == b


@given(patterns(max_k=6))
@settings(max_examples=100, deadline=None)
def test_charpoly_trace_and_edges(pattern):
    """Sanity identities: p1 = -tr(A) = 0 and p2 = -|E| for 0/1 adjacency."""
    poly = faddeev_leverrier(pattern.adjacency_matrix())
    if pattern.num_vertices >= 1:
        assert poly[0] == 0
    if pattern.num_vertices >= 2:
        assert poly[1] == -pattern.num_edges


@given(patterns())
@settings(max_examples=100, deadline=None)
def test_degree_sequence_consistent_with_bitmap(pattern):
    degrees = pattern.degree_sequence()
    assert sum(degrees) == 2 * pattern.num_edges
    k = pattern.num_vertices
    for i in range(k):
        count = sum(1 for j in range(k) if j != i and pattern.has_edge(i, j))
        assert count == degrees[i]


@given(pattern_with_permutation())
@settings(max_examples=100, deadline=None)
def test_permute_roundtrip(case):
    pattern, perm = case
    inverse = [0] * len(perm)
    for t, p in enumerate(perm):
        inverse[p] = t
    assert pattern.permute(perm).permute(inverse) == pattern


@given(patterns(max_k=5))
@settings(max_examples=60, deadline=None)
def test_triangle_index_bijective(pattern):
    k = pattern.num_vertices
    seen = set()
    for i in range(k):
        for j in range(i + 1, k):
            seen.add(triangle_index(i, j, k))
    assert seen == set(range(k * (k - 1) // 2))
