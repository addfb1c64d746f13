"""Unit tests for the EigenHash fingerprint (Algorithm 1, Figure 6)."""

from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest

from repro import FrequentSubgraphMining, MotifCounting
from repro.apps.fsm_vertex import VertexInducedFSM
from repro.apps.matching import PatternMatching
from repro.core import Pattern, eigen_hash, faddeev_leverrier, weighted_adjacency
from repro.core import eigenhash
from repro.core.eigenhash import (
    COSPECTRAL_EQUAL_DEGREES_8,
    HARARY_COSPECTRAL_6,
    HARARY_COSPECTRAL_9,
    PatternHasher,
    eigen_hash_codes,
)
from repro.core.isomorphism import canonical_key
from repro.errors import EmbeddingSizeError
from tests.oracles import are_isomorphic


# ----------------------------------------------------------------------
# Faddeev-LeVerrier
# ----------------------------------------------------------------------
def test_flv_identity():
    # char poly of I2 is (λ-1)^2 = λ^2 - 2λ + 1.
    assert faddeev_leverrier(np.eye(2, dtype=int)) == (-2, 1)


def test_flv_triangle():
    # char poly of K3 adjacency: λ^3 - 3λ - 2.
    mat = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert faddeev_leverrier(mat) == (0, -3, -2)


def test_flv_path():
    # P3: λ^3 - 2λ.
    mat = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert faddeev_leverrier(mat) == (0, -2, 0)


def test_flv_matches_numpy_charpoly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        mat = rng.integers(0, 3, size=(k, k))
        mat = mat + mat.T  # symmetric integer matrix
        ours = faddeev_leverrier(mat)
        numpys = np.poly(mat.astype(float))[1:]
        assert np.allclose([float(c) for c in ours], numpys, atol=1e-6)


def test_flv_empty_and_single():
    assert faddeev_leverrier(np.zeros((0, 0), dtype=int)) == ()
    assert faddeev_leverrier([[5]]) == (-5,)


def test_flv_rejects_non_square():
    with pytest.raises(ValueError):
        faddeev_leverrier(np.zeros((2, 3), dtype=int))


# ----------------------------------------------------------------------
# Weighted adjacency
# ----------------------------------------------------------------------
def test_weighted_adjacency_injective_over_label_pairs():
    p = Pattern.from_adjacency([0, 1, 2], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    mat = weighted_adjacency(p)
    weights = {mat[0, 1], mat[0, 2], mat[1, 2]}
    assert len(weights) == 3  # three distinct label pairs, three weights


def test_weighted_adjacency_nonzero_for_zero_labels():
    p = Pattern.from_adjacency([0, 0], [[0, 1], [1, 0]])
    assert weighted_adjacency(p)[0, 1] > 0


def test_weighted_adjacency_symmetric():
    p = Pattern.from_adjacency([3, 1, 2], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    mat = weighted_adjacency(p)
    assert (mat == mat.T).all()


# ----------------------------------------------------------------------
# EigenHash semantics
# ----------------------------------------------------------------------
def test_isomorphic_embeddings_same_hash(paper_graph):
    # Figure 1: embeddings a=(1,2,5) and b=(2,3,5) are isomorphic triangles.
    pa = Pattern.from_vertex_embedding(paper_graph, [1, 2, 5])
    pb = Pattern.from_vertex_embedding(paper_graph, [2, 3, 5])
    assert eigen_hash(pa) == eigen_hash(pb)


def test_automorphic_representations_same_hash():
    chain = Pattern.from_adjacency([5, 5, 5], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    rotated = chain.permute([2, 1, 0])
    assert eigen_hash(chain) == eigen_hash(rotated)


def test_non_isomorphic_different_hash():
    chain = Pattern.from_adjacency([0, 0, 0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    triangle = Pattern.from_adjacency([0, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert eigen_hash(chain) != eigen_hash(triangle)


def test_labels_separate_hashes():
    a = Pattern.from_adjacency([0, 0], [[0, 1], [1, 0]])
    b = Pattern.from_adjacency([0, 1], [[0, 1], [1, 0]])
    assert eigen_hash(a) != eigen_hash(b)


def test_hash_deterministic_across_calls():
    p = Pattern.from_adjacency([1, 2, 2], [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert eigen_hash(p) == eigen_hash(p)


def test_size_limit_enforced():
    with pytest.raises(EmbeddingSizeError):
        eigen_hash(Pattern((0,) * 9, 0))


# ----------------------------------------------------------------------
# Figure 6 counterexamples
# ----------------------------------------------------------------------
def test_harary_6_pair_is_cospectral_but_degree_separated():
    a, b = HARARY_COSPECTRAL_6
    poly_a = faddeev_leverrier(a.adjacency_matrix())
    poly_b = faddeev_leverrier(b.adjacency_matrix())
    assert poly_a == poly_b == (0, -7, -4, 7, 4, -1)  # the paper's polynomial
    assert not are_isomorphic(a, b)
    # Degree sequences differ, so EigenHash still separates the pair.
    assert sorted(a.degree_sequence()) != sorted(b.degree_sequence())
    assert eigen_hash(a) != eigen_hash(b)


def test_harary_9_pair_defeats_eigenhash_exactly_at_the_bound():
    """The paper's 9-vertex pair; the bound it was meant to mark is one
    vertex lower (:func:`test_eight_vertex_pair_defeats_eigenhash`)."""
    a, b = HARARY_COSPECTRAL_9
    poly_a = faddeev_leverrier(a.adjacency_matrix())
    poly_b = faddeev_leverrier(b.adjacency_matrix())
    assert poly_a == poly_b == (0, -8, 0, 19, 0, -14, 0, 2, 0)  # paper's polynomial
    assert sorted(a.degree_sequence()) == sorted(b.degree_sequence())
    assert not are_isomorphic(a, b)
    # Above the bound the checker refuses rather than silently colliding.
    with pytest.raises(EmbeddingSizeError):
        eigen_hash(a)


def test_eight_vertex_pair_defeats_eigenhash():
    """Equal degrees and an equal characteristic polynomial on 8 vertices,
    yet not isomorphic: EigenHash would merge them, so 8 vertices is past
    ``MAX_EIGENHASH_VERTICES``."""
    a, b = COSPECTRAL_EQUAL_DEGREES_8
    poly_a = faddeev_leverrier(a.adjacency_matrix())
    poly_b = faddeev_leverrier(b.adjacency_matrix())
    assert poly_a == poly_b == (0, -11, -4, 28, 6, -24, 0, 4)
    assert sorted(a.degree_sequence()) == sorted(b.degree_sequence()) == [1, 2, 2, 3, 3, 3, 4, 4]
    assert not are_isomorphic(a, b)
    with pytest.raises(EmbeddingSizeError):
        eigen_hash(a)
    with mock.patch.object(eigenhash, "MAX_EIGENHASH_VERTICES", 8):
        assert eigen_hash(a) == eigen_hash(b)
        codes = np.array([a.to_code(8), b.to_code(8)])
        hashes = eigen_hash_codes(codes, 8).tolist()
        assert hashes[0] == hashes[1]


def test_apps_refuse_eight_vertex_patterns():
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        MotifCounting(8)
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        VertexInducedFSM(8, 1)
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        FrequentSubgraphMining(num_edges=7, support=1)
    path8 = Pattern.from_adjacency(
        [0] * 8, [[int(abs(i - j) == 1) for j in range(8)] for i in range(8)]
    )
    with pytest.raises(ValueError, match="MAX_EIGENHASH_VERTICES"):
        PatternMatching(path8)


def _unlabelled_codes(k: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Code rows of the unlabelled graphs on ``k`` vertices whose
    adjacency bitmaps are ``lo..hi-1`` (every graph by default)."""
    hi = 1 << (k * (k - 1) // 2) if hi is None else hi
    codes = np.zeros((hi - lo, 2 + k), dtype=np.int64)
    codes[:, 0] = k
    codes[:, 1 + k] = np.arange(lo, hi)
    return codes


def _assert_hash_iff_isomorphic(k: int, classes: int, check_scalar: bool = False) -> None:
    """Exhaustive over every unlabeled graph on ``k`` vertices.

    Each hash bucket holds only graphs isomorphic to its first member
    (equal hash ⟹ isomorphic), and there are exactly ``classes`` buckets
    — the number of isomorphism classes — so no class is split across
    two hashes (isomorphic ⟹ equal hash).  The hashes come from one
    batched pass; ``check_scalar`` also compares each with ``eigen_hash``.
    """
    codes = _unlabelled_codes(k)
    patterns = [Pattern.from_code(code, k) for code in codes.tolist()]
    hashes = eigen_hash_codes(codes, k).tolist()
    if check_scalar:
        assert hashes == [eigen_hash(p) for p in patterns]
    by_hash: dict[int, Pattern] = {}
    for p, h in zip(patterns, hashes):
        if h in by_hash:
            assert are_isomorphic(by_hash[h], p)
        else:
            by_hash[h] = p
    assert len(by_hash) == classes


def test_exhaustive_no_collision_up_to_5_vertices():
    """Corollary 1 (k < 6, unlabeled): spectrum alone separates everything.

    Exhaustive over all 1,024 graphs on 5 vertices (34 classes).
    """
    _assert_hash_iff_isomorphic(5, classes=34, check_scalar=True)


def test_exhaustive_no_collision_on_6_vertices():
    """Motif counting hashes once per distinct adjacency code, so one
    collision would merge whole pattern classes.  Exhaustive over all
    32,768 graphs on 6 vertices (156 classes), where cospectral pairs
    exist and the degree sequence must separate them."""
    _assert_hash_iff_isomorphic(6, classes=156)


@pytest.mark.slow
def test_exhaustive_no_collision_on_7_vertices():
    """All 2,097,152 graphs on 7 vertices hash to exactly 1,044 values,
    the number of unlabelled graphs on 7 vertices (OEIS A000088).
    EigenHash is an isomorphism invariant, so the classes cannot produce
    more values; exactly as many means no two classes collide."""
    k, chunk = 7, 1 << 15
    seen: set[int] = set()
    for lo in range(0, 1 << 21, chunk):
        codes = _unlabelled_codes(k, lo, lo + chunk)
        seen.update(np.unique(eigen_hash_codes(codes, k)).tolist())
    assert len(seen) == 1044


#: Rows per batched pass of the labelled audits: bounds their temporaries.
_CHUNK = 1 << 14


def _labelled_codes(max_k: int, vertex_labels: int, edge_labels: int = 0):
    """Code rows (``kmax = max_k``) of every graph on 1..``max_k`` vertices
    under every assignment of ``vertex_labels`` vertex labels (and, if
    ``edge_labels``, of that many edge labels to its edges), yielded in
    chunks of about :data:`_CHUNK` rows."""
    width = 2 + max_k + (max_k * (max_k - 1) // 2 if edge_labels else 0)
    blocks: list[np.ndarray] = []
    rows = 0
    for k in range(1, max_k + 1):
        labels = np.array(list(product(range(vertex_labels), repeat=k)), dtype=np.int64)
        for mask in range(1 << (k * (k - 1) // 2)):
            present = [t for t in range(k * (k - 1) // 2) if mask >> t & 1]
            choices = list(product(range(edge_labels), repeat=len(present))) if edge_labels else [()]
            block = np.zeros((len(choices) * labels.shape[0], width), dtype=np.int64)
            block[:, 0] = k
            block[:, 1 + k : 1 + max_k] = -1
            block[:, 1 : 1 + k] = np.tile(labels, (len(choices), 1))
            block[:, 1 + max_k] = mask
            if edge_labels:
                elabels = np.array(choices, dtype=np.int64).reshape(len(choices), len(present))
                block[:, 2 + max_k + np.array(present, dtype=np.intp)] = np.repeat(
                    elabels, labels.shape[0], axis=0
                )
            blocks.append(block)
            rows += block.shape[0]
            if rows >= _CHUNK:
                yield np.concatenate(blocks)
                blocks, rows = [], 0
    if blocks:
        yield np.concatenate(blocks)


def _assert_labelled_hash_iff_isomorphic(
    chunks, kmax: int, check_scalar: bool = False
) -> int:
    """Equal hash ⟹ equal canonical key (isomorphic), and as many hashes
    as canonical keys (isomorphic ⟹ equal hash).  Hashes come from one
    batched pass per chunk; ``check_scalar`` also compares each with
    ``eigen_hash``.  Returns the number of classes."""
    key_of_hash: dict[int, object] = {}
    classes = set()
    for codes in chunks:
        hashes = eigen_hash_codes(codes, kmax).tolist()
        for code, h in zip(codes.tolist(), hashes):
            p = Pattern.from_code(code, kmax)
            if check_scalar:
                assert h == eigen_hash(p), p
            key = canonical_key(p)
            classes.add(key)
            assert key_of_hash.setdefault(h, key) == key, p
    assert len(key_of_hash) == len(classes)
    return len(classes)


@pytest.mark.parametrize(
    "max_k, vertex_labels, edge_labels",
    [(5, 2, 0), (4, 3, 0), (4, 2, 2)],
    ids=["5v-2labels", "4v-3labels", "4v-2labels-2edgelabels"],
)
def test_exhaustive_labelled_no_collision(max_k, vertex_labels, edge_labels):
    """The FSM block mappers hash once per isomorphism class and
    merge MNI domains by hash, so a labelled collision would silently
    merge two patterns' supports.  Exhaustive over every graph (connected
    or not) on up to ``max_k`` vertices under every labelling."""
    chunks = _labelled_codes(max_k, vertex_labels, edge_labels)
    check_scalar = (max_k, vertex_labels) == (4, 3)
    assert _assert_labelled_hash_iff_isomorphic(chunks, max_k, check_scalar) > 0


def test_edge_label_profile_separates_cospectral_paths():
    """Two 4-paths labelled 0-1-0-1 whose distinct edge label sits at the
    label-0 end in one and at the label-1 end in the other: their weighted
    adjacency matrices are cospectral, so only the per-vertex incident
    edge-label profile tells them apart."""
    a = Pattern((0, 1, 0, 1), 0b101001, (1, 0, 0))  # edges 01, 12, 23
    b = Pattern((0, 1, 0, 1), 0b101001, (0, 0, 1))
    assert not are_isomorphic(a, b)
    assert eigen_hash(a) != eigen_hash(b)


@pytest.mark.slow
def test_exhaustive_edge_labelled_no_collision_on_5_vertices():
    """The edge-labelled audit one vertex further: every graph on ≤ 5
    vertices × 2 vertex labels × 2 edge labels (1.9M patterns, ~5 min)."""
    chunks = _labelled_codes(5, vertex_labels=2, edge_labels=2)
    assert _assert_labelled_hash_iff_isomorphic(chunks, 5) > 0


# ----------------------------------------------------------------------
# PatternHasher cache
# ----------------------------------------------------------------------
def test_hasher_cache_hits():
    hasher = PatternHasher()
    chain = Pattern.from_adjacency([5, 5, 5], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    h1 = hasher.hash_pattern(chain)
    h2 = hasher.hash_pattern(chain.permute([2, 1, 0]))
    assert h1 == h2
    assert hasher.hits == 1 and hasher.misses == 1
    assert len(hasher) == 1


def test_hasher_representative():
    hasher = PatternHasher()
    tri = Pattern.from_adjacency([0, 0, 0], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    h = hasher.hash_pattern(tri)
    rep = hasher.representative(h)
    assert rep is not None and are_isomorphic(rep, tri)
    assert hasher.representative(12345) is None


def _two_normal_forms(pattern):
    """Two isomorphic copies of ``pattern`` whose (label, degree)
    normalisations differ, the lesser structure first."""
    forms = {}
    for perm in permutations(range(pattern.num_vertices)):
        copy = pattern.permute(perm)
        forms.setdefault(copy.sorted_by_label_degree()[0], copy)
    assert len(forms) >= 2, "every copy normalises alike"
    copies = sorted(forms.values(), key=lambda p: (p.labels, p.bits, p.edge_labels or ()))
    return copies[0], copies[1]


@pytest.mark.parametrize(
    "pattern",
    [
        # unlabelled path on four vertices
        Pattern.from_adjacency([0] * 4, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]),
        # edge-labelled star with one vertex label
        Pattern((1, 0, 0, 0), 0b000111, (2, 3, 2)),
    ],
    ids=["path4", "edge-labelled-star4"],
)
@pytest.mark.parametrize("through", ["hash_pattern", "hash_codes"])
def test_representative_does_not_depend_on_miss_order(pattern, through):
    """Concurrent parts race to miss first; the representative is the
    least structure's normal form whichever one wins."""
    first, second = _two_normal_forms(pattern)
    reps = []
    for order in ((first, second), (second, first)):
        hasher = PatternHasher()
        if through == "hash_pattern":
            values = {hasher.hash_pattern(p) for p in order}
        else:
            codes = np.array([p.to_code(4) for p in order], dtype=np.int64)
            values = set(hasher.hash_codes(codes, 4).tolist())
        assert len(values) == 1 and hasher.misses == 2
        reps.append(hasher.representative(values.pop()))
    assert reps[0] == reps[1] == first.sorted_by_label_degree()[0]


def test_hasher_nbytes_grows():
    hasher = PatternHasher()
    before = hasher.nbytes
    hasher.hash_pattern(Pattern((0, 0), 1))
    assert hasher.nbytes > before
