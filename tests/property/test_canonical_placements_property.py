"""The batched canonicaliser against ``canonical_form`` + ``automorphisms``.

``canonical_placements`` must give, for every code row, exactly the
placement rows the per-structure path gives: canonical position ``t`` of
the ``a``-th automorphism (in :func:`automorphisms` order) holds structure
position ``perm[aut[t]]``, with ``perm`` the witness of
:func:`canonical_form`.  Slot 0 is the identity automorphism, so its row
is the witness itself.  Each row's canonical code must be the code of
``pattern_from_key(canonical_form(pattern)[0])``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import mni
from repro.apps.mni import canonical_placements
from repro.core import Pattern
from repro.core.isomorphism import automorphisms, canonical_form, pattern_from_key
from repro.core.pattern import triangle_index


def _template(shape: str, k: int) -> list[tuple[int, int]]:
    """Edges of a symmetric k-vertex shape (many (label, degree) ties)."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if shape == "complete":
        return pairs
    if shape == "cycle" and k >= 3:
        return [(i, (i + 1) % k) for i in range(k)]
    if shape == "star":
        return [(0, j) for j in range(1, k)]
    if shape == "bipartite":
        half = k // 2
        return [(i, j) for i, j in pairs if i < half <= j]
    return [(i, i + 1) for i in range(k - 1)]  # path


@st.composite
def raw_patterns(draw, min_k: int = 1, max_k: int = 6, edge_labelled=None):
    k = draw(st.integers(min_k, max_k))
    top_label = draw(st.integers(0, 2))
    labels = tuple(draw(st.lists(st.integers(0, top_label), min_size=k, max_size=k)))
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << k * (k - 1) // 2) - 1))
    else:
        shape = draw(st.sampled_from(["complete", "cycle", "star", "bipartite", "path"]))
        scramble = draw(st.permutations(range(k)))
        bits = 0
        for i, j in _template(shape, k):
            lo, hi = sorted((scramble[i], scramble[j]))
            bits |= 1 << triangle_index(lo, hi, k)
    if edge_labelled is None:
        edge_labelled = draw(st.booleans())
    edge_labels = None
    if edge_labelled:
        edge_labels = tuple(
            draw(st.lists(st.integers(0, 1), min_size=bits.bit_count(), max_size=bits.bit_count()))
        )
    return Pattern(labels, bits, edge_labels)


def _code(pattern: Pattern, kmax: int, edge_labelled: bool) -> list[int]:
    """One ``BlockEncoder`` code row of a raw structure."""
    k = pattern.num_vertices
    row = [k, *pattern.labels, *[-1] * (kmax - k), pattern.bits]
    if edge_labelled:
        cells = [0] * (kmax * (kmax - 1) // 2)
        present = [c for c in range(k * (k - 1) // 2) if pattern.bits >> c & 1]
        for cell, label in zip(present, pattern.edge_labels or ()):
            cells[cell] = label
        row += cells
    return row


def _expected(pattern: Pattern) -> tuple[Pattern, tuple[int, ...], list[list[int]]]:
    key, perm = canonical_form(pattern)
    canonical = pattern_from_key(key)
    auts = automorphisms(canonical)
    return canonical, perm, [[perm[a[t]] for t in range(len(a))] for a in auts]


def _key(pattern: Pattern) -> tuple:
    return (pattern.labels, pattern.bits, pattern.edge_labels or ())


def check_slab(patterns: list[Pattern], kmax: int, edge_labelled: bool) -> None:
    codes = np.array([_code(p, kmax, edge_labelled) for p in patterns], dtype=np.int64)
    index, valid, canon = canonical_placements(codes, kmax)
    assert index.dtype == np.intp and valid.dtype == bool
    assert canon.dtype == codes.dtype and canon.shape == codes.shape
    expected = [_expected(p) for p in patterns]
    width = max(len(rows) for _, _, rows in expected)
    assert index.shape == valid.shape == (len(patterns), width, kmax)
    for d, (pattern, (canonical, perm, rows)) in enumerate(zip(patterns, expected)):
        # The canonical row is the canonical pattern's code, padding included.
        assert canon[d].tolist() == _code(canonical, kmax, edge_labelled)
        assert _key(Pattern.from_code(canon[d], kmax)) == _key(canonical)
        k = pattern.num_vertices
        assert tuple(index[d, 0, :k].tolist()) == perm
        assert index[d, : len(rows), :k].tolist() == rows
        assert valid[d, : len(rows), :k].all()
        # Padding: zero and masked out.
        assert not valid[d, len(rows) :].any() and not valid[d, :, k:].any()
        assert not index[d, len(rows) :].any() and not index[d, :, k:].any()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_placements_match_canonical_form_and_automorphisms(data):
    edge_labelled = data.draw(st.booleans())
    patterns = data.draw(
        st.lists(raw_patterns(edge_labelled=edge_labelled), min_size=1, max_size=6)
    )
    kmax = max(p.num_vertices for p in patterns) + data.draw(st.integers(0, 1))
    check_slab(patterns, kmax, edge_labelled)


def test_eight_vertex_star_has_every_leaf_permutation():
    """7! = 5,040 automorphisms, the hub at a raw position in the middle."""
    k, hub = 8, 3
    bits = 0
    for leaf in range(k):
        if leaf != hub:
            bits |= 1 << triangle_index(min(hub, leaf), max(hub, leaf), k)
    star = Pattern((1,) * k, bits)
    check_slab([star], k, edge_labelled=False)
    index, _, _ = canonical_placements(np.array([_code(star, k, False)]), k)
    assert index.shape == (1, 5040, k)


def _pattern(labels: tuple[int, ...], edges: list[tuple[int, int]]) -> Pattern:
    k = len(labels)
    return Pattern(labels, sum(1 << triangle_index(*sorted(e), k) for e in edges))


def _mixed_slab() -> tuple[list[Pattern], int]:
    """Edge, path, triangle, 4-cycle, 4-star and 5-cycle codes in one slab
    whose rows are all narrower than ``kmax``."""
    patterns = [
        _pattern((0, 0), [(0, 1)]),
        _pattern((0, 1, 0), [(1, 0), (1, 2)]),
        _pattern((0, 0, 0), [(0, 1), (1, 2), (0, 2)]),
        _pattern((1, 1, 1, 1), [(0, 2), (2, 1), (1, 3), (3, 0)]),
        _pattern((1, 0, 1, 1), [(1, 0), (1, 2), (1, 3)]),
        _pattern((2, 2, 2, 2, 2), [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)]),
    ]
    return patterns, 6


def test_mixed_vertex_counts_in_one_slab():
    patterns, kmax = _mixed_slab()
    check_slab(patterns, kmax, edge_labelled=False)


@pytest.mark.parametrize("edge_labelled", [False, True])
def test_one_code_chunks_are_byte_identical(edge_labelled):
    patterns, kmax = _mixed_slab()
    if edge_labelled:
        patterns = [
            Pattern(p.labels, p.bits, tuple(i % 2 for i in range(p.num_edges)))
            for p in patterns
        ]
    codes = np.array([_code(p, kmax, edge_labelled) for p in patterns * 3])
    index, valid, canon = canonical_placements(codes, kmax)
    with mock.patch.object(mni, "CANON_CELLS", 1):
        chunked_index, chunked_valid, chunked_canon = canonical_placements(codes, kmax)
    assert chunked_index.dtype == index.dtype and chunked_index.shape == index.shape
    assert chunked_index.tobytes() == index.tobytes()
    assert chunked_valid.tobytes() == valid.tobytes()
    assert chunked_canon.dtype == canon.dtype and chunked_canon.tobytes() == canon.tobytes()


@pytest.mark.parametrize("edge_labelled", [False, True])
def test_zero_codes_give_empty_placements(edge_labelled):
    """A part with no rows (a matching part the filter emptied) places
    nothing instead of raising."""
    kmax = 4
    width = 2 + kmax + (kmax * (kmax - 1) // 2 if edge_labelled else 0)
    codes = np.zeros((0, width), dtype=np.int64)
    index, valid, canon = canonical_placements(codes, kmax)
    assert index.shape == valid.shape == (0, 0, kmax)
    assert index.dtype == np.intp and valid.dtype == bool
    assert canon.shape == codes.shape and canon.dtype == codes.dtype


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_placements_match_on_seven_and_eight_vertices_deep(data):
    edge_labelled = data.draw(st.booleans())
    patterns = data.draw(
        st.lists(
            raw_patterns(min_k=7, max_k=8, edge_labelled=edge_labelled),
            min_size=1,
            max_size=2,
        )
    )
    check_slab(patterns, 8, edge_labelled)
