"""Edge-label support (Definition 1's L(u, v)) across the stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pattern, canonical_key, eigen_hash
from repro.core.isomorphism import pattern_from_key
from repro.errors import GraphConstructionError
from repro.graph import from_edge_list
from tests.oracles import are_isomorphic


@pytest.fixture
def elabeled_graph():
    g = from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], labels=[0, 0, 0, 0])
    # Edge order (lexicographic): (0,1), (0,2), (1,2), (2,3).
    return g.with_edge_labels([5, 6, 7, 8])


# ----------------------------------------------------------------------
# Graph layer
# ----------------------------------------------------------------------
def test_graph_edge_label_lookup(elabeled_graph):
    assert elabeled_graph.edge_label(0, 1) == 5
    assert elabeled_graph.edge_label(1, 0) == 5
    assert elabeled_graph.edge_label(2, 3) == 8
    assert elabeled_graph.has_edge_labels


def test_graph_without_edge_labels_defaults_zero(paper_graph):
    assert not paper_graph.has_edge_labels
    assert paper_graph.edge_label(1, 2) == 0


def test_edge_label_missing_edge(elabeled_graph):
    with pytest.raises(KeyError):
        elabeled_graph.edge_label(0, 3)


def test_with_edge_labels_validates(paper_graph):
    with pytest.raises(GraphConstructionError):
        paper_graph.with_edge_labels([1, 2])  # wrong count


# ----------------------------------------------------------------------
# Pattern layer
# ----------------------------------------------------------------------
def test_pattern_from_vertex_embedding_carries_edge_labels(elabeled_graph):
    p = Pattern.from_vertex_embedding(elabeled_graph, [0, 1, 2])
    assert p.edge_labels is not None
    assert sorted(p.edge_labels) == [5, 6, 7]
    assert p.edge_label_at(0, 1) == 5


def test_pattern_from_edge_embedding_carries_edge_labels(elabeled_graph):
    p = Pattern.from_edge_embedding(elabeled_graph, [(1, 2), (2, 3)])
    assert sorted(p.edge_labels) == [7, 8]


def test_pattern_edge_label_count_validated():
    with pytest.raises(ValueError):
        Pattern((0, 0), 1, (3, 4))  # one edge, two labels


def test_edge_label_at_no_edge():
    p = Pattern((0, 0, 0), 0b011, (1, 2))
    with pytest.raises(KeyError):
        p.edge_label_at(1, 2)


def test_permute_remaps_edge_labels():
    # Path 0-1-2 with edge labels 9 on (0,1) and 4 on (1,2).
    p = Pattern((0, 0, 0), 0b101, (9, 4))
    q = p.permute([2, 1, 0])
    assert q.edge_label_at(0, 1) == 4
    assert q.edge_label_at(1, 2) == 9
    assert q.permute([2, 1, 0]) == p


# ----------------------------------------------------------------------
# Isomorphism + EigenHash
# ----------------------------------------------------------------------
def test_edge_labels_break_isomorphism():
    a = Pattern((0, 0), 1, (1,))
    b = Pattern((0, 0), 1, (2,))
    assert not are_isomorphic(a, b)
    assert eigen_hash(a) != eigen_hash(b)
    assert canonical_key(a) != canonical_key(b)


def test_edge_labeled_relabeling_preserves_hash():
    p = Pattern((0, 1, 0), 0b101, (3, 4))
    q = p.permute([2, 1, 0])
    assert are_isomorphic(p, q)
    assert eigen_hash(p) == eigen_hash(q)
    assert canonical_key(p) == canonical_key(q)


def test_pattern_from_key_roundtrip():
    p = Pattern((1, 0, 2), 0b110, (7, 8))
    key = canonical_key(p)
    rebuilt = pattern_from_key(key)
    assert are_isomorphic(p, rebuilt)
    assert canonical_key(rebuilt) == key


@st.composite
def edge_labeled_patterns(draw, max_k=5):
    k = draw(st.integers(min_value=2, max_value=max_k))
    bits = draw(st.integers(min_value=0, max_value=(1 << (k * (k - 1) // 2)) - 1))
    labels = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(k))
    edge_labels = tuple(
        draw(st.integers(min_value=0, max_value=2)) for _ in range(bits.bit_count())
    )
    return Pattern(labels, bits, edge_labels if edge_labels else None)


@given(edge_labeled_patterns(), st.data())
@settings(max_examples=120, deadline=None)
def test_hash_invariance_under_permutation_with_edge_labels(pattern, data):
    perm = data.draw(st.permutations(range(pattern.num_vertices)))
    assert eigen_hash(pattern) == eigen_hash(pattern.permute(list(perm)))


@given(edge_labeled_patterns(max_k=4), edge_labeled_patterns(max_k=4))
@settings(max_examples=150, deadline=None)
def test_hash_equality_iff_isomorphic_with_edge_labels(a, b):
    assert (eigen_hash(a) == eigen_hash(b)) == are_isomorphic(a, b)


# ----------------------------------------------------------------------
# End-to-end: FSM over an edge-labeled graph
# ----------------------------------------------------------------------
def test_fsm_distinguishes_edge_labels():
    from repro import FrequentSubgraphMining, KaleidoEngine

    base = from_edge_list(
        [(0, 1), (2, 3), (4, 5), (6, 7)], labels=[0] * 8
    )
    # Same vertex labels everywhere; edge labels split 2/2.
    g = base.with_edge_labels([1, 1, 2, 2])
    result = KaleidoEngine(g).run(
        FrequentSubgraphMining(num_edges=1, support=2, exact_mni=True)
    )
    # Two distinct frequent single-edge patterns, support 4 each (both
    # endpoints fill both positions).
    assert sorted(result.value.values()) == [4, 4]
    unlabeled = KaleidoEngine(base).run(
        FrequentSubgraphMining(num_edges=1, support=2, exact_mni=True)
    )
    assert len(unlabeled.value) == 1
