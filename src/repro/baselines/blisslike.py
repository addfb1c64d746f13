"""A bliss-like canonical-labeling isomorphism checker.

Bliss (Junttila & Kaski) canonicalises a labeled graph by building a
search tree: partition refinement (1-WL colour refinement) interleaved
with individualization branching; the canonical form is the minimum
relabeled adjacency over the tree's leaves.  This module implements that
algorithmic family in pure Python, *without* bliss's automorphism pruning
— it is the baseline Kaleido's EigenHash is compared against (Figure 12),
and the paper's point is precisely that the search tree allocates heavily
per call.

:class:`BlissLikeHasher` exposes the same interface as
:class:`repro.core.eigenhash.PatternHasher`, so a
:class:`~repro.core.engine.KaleidoEngine` can be constructed with either.
"""

from __future__ import annotations

import numpy as np

from ..core.eigenhash import _stable_hash
from ..core.pattern import Pattern

__all__ = ["BlissLikeHasher", "canonical_form_search"]


def _refine(
    colors: list[int], adjacency: list[list[int]], alloc_counter: list[int]
) -> list[int]:
    """1-WL colour refinement to a stable partition."""
    n = len(colors)
    while True:
        signatures = []
        for v in range(n):
            neighbor_colors = sorted(colors[w] for w in adjacency[v])
            signatures.append((colors[v], tuple(neighbor_colors)))
        alloc_counter[0] += n  # one signature tuple per vertex per round
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        new_colors = [ranking[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def canonical_form_search(
    pattern: Pattern,
) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], int]:
    """Canonical ``(labels, bits)`` via individualization-refinement.

    Returns the canonical form and the number of search-tree node
    allocations performed (bliss's dominant cost per the paper).
    """
    k = pattern.num_vertices
    adjacency: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if pattern.has_edge(i, j):
                adjacency[i].append(j)
                adjacency[j].append(i)
    degrees = pattern.degree_sequence()
    initial = sorted(set(zip(pattern.labels, degrees)))
    rank = {key: r for r, key in enumerate(initial)}
    colors0 = [rank[(pattern.labels[v], degrees[v])] for v in range(k)]
    alloc_counter = [0]
    best: list[tuple[tuple[int, ...], int, tuple[int, ...]] | None] = [None]

    def leaf(colors: list[int]) -> None:
        # Discrete colouring: vertex with colour c goes to position c.
        perm = [0] * k
        for v, c in enumerate(colors):
            perm[c] = v
        candidate = pattern.permute(perm)
        key = (candidate.labels, candidate.bits, candidate.edge_labels or ())
        if best[0] is None or key < best[0]:
            best[0] = key

    def search(colors: list[int]) -> None:
        alloc_counter[0] += 1  # one tree node
        colors = _refine(list(colors), adjacency, alloc_counter)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            leaf(colors)
            return
        # Individualize each vertex of the first non-singleton cell.
        for v in target:
            # Give v a colour just below its cell, then re-rank densely.
            child = [c * 2 for c in colors]
            child[v] = colors[v] * 2 - 1
            others = sorted(set(child))
            remap = {c: r for r, c in enumerate(others)}
            search([remap[c] for c in child])

    search(colors0)
    assert best[0] is not None
    return best[0], alloc_counter[0]


class BlissLikeHasher:
    """Drop-in replacement for :class:`PatternHasher` using the search tree.

    Caches on the *raw* structure key (bliss canonicalises whatever it is
    handed; it has no cheap pre-normalisation), so automorphic raw
    structures each pay one canonicalisation — one of the two reasons the
    paper measures it slower and heavier than EigenHash.
    """

    def __init__(self, cache: bool = True) -> None:
        #: ``cache=False`` rebuilds the search tree on every call — the
        #: regime the paper measures (bliss is invoked per embedding).
        self.cache = cache
        self._cache: dict[tuple, int] = {}
        self._forms: dict[int, tuple] = {}
        self._representatives: dict[int, Pattern] = {}
        self.hits = 0
        self.misses = 0
        #: Cumulative search-tree node allocations (paper Section 1.2).
        self.total_allocations = 0
        self.peak_allocations_per_call = 0

    def hash_pattern(self, pattern: Pattern) -> int:
        key = (pattern.labels, pattern.bits, pattern.edge_labels)
        if self.cache:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        self.misses += 1
        form, allocs = canonical_form_search(pattern)
        self.total_allocations += allocs
        self.peak_allocations_per_call = max(self.peak_allocations_per_call, allocs)
        value = _stable_hash(form[0] + (form[1],) + form[2])
        self._cache[key] = value
        self._forms[value] = form
        self._representatives.setdefault(
            value, Pattern(form[0], form[1], form[2] or None)
        )
        return value

    def hash_codes(self, codes: np.ndarray, kmax: int) -> np.ndarray:
        """One :meth:`hash_pattern` call per code row: the search tree has
        no batched form."""
        rows = np.asarray(codes, dtype=np.int64).tolist()
        values = [self.hash_pattern(Pattern.from_code(row, kmax)) for row in rows]
        return np.array(values, dtype=np.uint64)

    def representative(self, hash_value: int) -> Pattern | None:
        return self._representatives.get(hash_value)

    @property
    def nbytes(self) -> int:
        """Accounted footprint: cache entries plus retained canonical forms
        plus a per-call search-tree residue (bliss keeps allocator arenas
        warm; the paper measures exactly this growth)."""
        per_entry = 200  # key tuple + form tuple + dict slots
        tree_residue = 48 * self.peak_allocations_per_call
        return len(self._cache) * per_entry + len(self._forms) * 96 + tree_residue

    def __len__(self) -> int:
        return len(self._cache)
