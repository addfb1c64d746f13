"""EigenHash: the paper's lightweight graph-isomorphism fingerprint.

Algorithm 1 of the paper:

1. sort pattern positions by ``(label, degree)`` ascending;
2. build the *weighted* adjacency matrix ``M`` whose entry for an edge
   ``(i, j)`` is the concatenation of the two endpoint labels
   ``l_i | l_j`` (with ``l_i <= l_j`` after the sort);
3. compute the characteristic polynomial of ``M`` with the
   Faddeev–LeVerrier recurrence (exact integer arithmetic — no floating
   point eigensolves);
4. hash ``(labels, degrees, polynomial)`` together with XOR.

Correctness (Theorem 2 / Corollary 1): for embeddings with fewer than nine
vertices, equal degrees plus equal spectrum implies isomorphism (Harary et
al.), so the fingerprint is collision-free in the mining regime the paper
targets (k < 9).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .pattern import MAX_EIGENHASH_VERTICES, Pattern

__all__ = [
    "faddeev_leverrier",
    "weighted_adjacency",
    "eigen_hash",
    "PatternHasher",
    "HARARY_COSPECTRAL_6",
    "HARARY_COSPECTRAL_9",
]


def faddeev_leverrier(matrix: Sequence[Sequence[int]] | np.ndarray) -> tuple[int, ...]:
    """Exact characteristic-polynomial coefficients of an integer matrix.

    Returns ``(p_1, ..., p_n)`` such that
    ``det(λI − M) = λ^n + p_1 λ^(n−1) + ... + p_n``.

    Implements lines 19-26 of Algorithm 1 with plain Python integers —
    exact (the divisions by ``k`` are exact for integer matrices) and,
    for the tiny matrices mining produces (k <= 8), much faster than any
    array library round trip.
    """
    mat = [[int(x) for x in row] for row in matrix]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError(
            f"matrix must be square, got shape ({n}, {set(len(r) for r in mat)})"
        )
    if n == 0:
        return ()
    return _flv(mat, n)


def _flv(mat: list[list[int]], n: int) -> tuple[int, ...]:
    """Core Faddeev-LeVerrier recurrence over list-of-lists integers.

    Sparse-aware: adjacency matrices of mining patterns are mostly zero,
    so the matmul skips zero entries of the left factor.
    """
    rng = range(n)
    coeffs: list[int] = []
    work = [row[:] for row in mat]
    for k in range(1, n + 1):
        if k > 1:
            prev = coeffs[-1]
            for i in rng:
                work[i][i] += prev
            new = [[0] * n for _ in rng]
            for i in rng:
                mi = mat[i]
                ni = new[i]
                for t in rng:
                    m = mi[t]
                    if m:
                        wt = work[t]
                        for j in rng:
                            ni[j] += m * wt[j]
            work = new
        trace = 0
        for i in rng:
            trace += work[i][i]
        if trace % k != 0:  # pragma: no cover - defensive; exact for ints
            raise ValueError("Faddeev-LeVerrier trace not divisible; non-integer input?")
        coeffs.append(-(trace // k))
    return tuple(coeffs)


def weighted_adjacency(pattern: Pattern) -> np.ndarray:
    """Label-weighted adjacency matrix ``M`` (lines 12-18 of Algorithm 1).

    Edge weight is the concatenation ``l_i | l_j`` of the endpoint labels.
    We realise the concatenation as ``(l_i + 1) * base + (l_j + 1)`` with
    ``l_i <= l_j`` and ``base`` one past the largest label in the pattern,
    which is injective over ordered label pairs and never zero (a zero
    weight would erase the edge from the matrix).
    """
    k = pattern.num_vertices
    base = max(pattern.labels, default=0) + 2
    mat = np.zeros((k, k), dtype=object)
    for i in range(k):
        for j in range(i + 1, k):
            if pattern.has_edge(i, j):
                li, lj = pattern.labels[i], pattern.labels[j]
                if li > lj:
                    li, lj = lj, li
                weight = (li + 1) * base + (lj + 1)
                mat[i, j] = weight
                mat[j, i] = weight
    return mat


def eigen_hash(pattern: Pattern) -> int:
    """The EigenHash fingerprint of a pattern (Algorithm 1, ``EigenHash``).

    Two patterns of embeddings with < 9 vertices receive the same value
    iff the embeddings are isomorphic (Theorem 2).  Deterministic across
    runs (independent of ``PYTHONHASHSEED``).

    The whole pipeline — decode, (label, degree) sort, weighted matrix,
    characteristic polynomial, hash — is inlined over plain ints: this is
    the per-embedding hot path of the paper's pattern aggregation phase.
    """
    k = pattern.num_vertices
    if k > MAX_EIGENHASH_VERTICES:
        pattern.check_eigenhash_size()
    labels = pattern.labels
    bits = pattern.bits
    has_edge_labels = pattern.edge_labels is not None
    # Decode the bitmap once into adjacency rows + degrees (+ edge labels,
    # which arrive in ascending cell order).
    adj = [[False] * k for _ in range(k)]
    elab = [[0] * k for _ in range(k)] if has_edge_labels else None
    degrees = [0] * k
    cell = 0
    rank = 0
    for i in range(k):
        row_i = adj[i]
        for j in range(i + 1, k):
            if bits >> cell & 1:
                row_i[j] = True
                adj[j][i] = True
                degrees[i] += 1
                degrees[j] += 1
                if elab is not None:
                    assert pattern.edge_labels is not None
                    value = pattern.edge_labels[rank]
                    elab[i][j] = value
                    elab[j][i] = value
                    rank += 1
            cell += 1
    # Lines 29-33: sort positions by (label, degree).
    perm = sorted(range(k), key=lambda i: (labels[i], degrees[i]))
    plabels = tuple(labels[p] for p in perm)
    pdegrees = tuple(degrees[p] for p in perm)
    # Lines 12-18: weighted adjacency in the sorted order.  With edge
    # labels, the weight additionally encodes L(u, v) so differently
    # labeled edges never alias.
    base = (max(labels) if k else 0) + 2
    ebase = (max(pattern.edge_labels) + 2) if has_edge_labels and pattern.edge_labels else 2
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        pi = perm[i]
        adj_pi = adj[pi]
        li = labels[pi]
        for j in range(i + 1, k):
            pj = perm[j]
            if adj_pi[pj]:
                lj = labels[pj]
                lo, hi = (li, lj) if li <= lj else (lj, li)
                weight = (lo + 1) * base + (hi + 1)
                if elab is not None:
                    weight = weight * ebase + (elab[pi][pj] + 1)
                rows[i][j] = weight
                rows[j][i] = weight
    poly = _flv(rows, k)
    value = _stable_hash(plabels) ^ _stable_hash(pdegrees) ^ _stable_hash(poly)
    if elab is not None and pattern.edge_labels:
        # An edge's weight is symmetric in its endpoint labels, so the
        # spectrum cannot tell which end of a labelled edge carries which
        # vertex label: the 4-paths 0-1-0-1 with edge labels (b, a, a) and
        # (a, a, b) are cospectral.  Each vertex's label plus the multiset
        # of its incident edge labels separates every non-isomorphic pair
        # on up to 5 vertices with 2 vertex and 2 edge labels (the
        # exhaustive audit in tests/core/test_eigenhash.py).
        profile = sorted(
            (labels[i], *sorted(elab[i][j] for j in range(k) if adj[i][j]))
            for i in range(k)
        )
        value ^= _stable_hash(tuple(x for entry in profile for x in (len(entry), *entry)))
    return value


def _stable_hash(values: tuple[int, ...]) -> int:
    """FNV-1a over the integer tuple; stable across interpreter runs."""
    acc = 0xCBF29CE484222325
    for value in values:
        # Mix sign and magnitude bytes of arbitrary-precision ints.
        data = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        for byte in data:
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        acc ^= 0xFF  # separator so (1,23) != (12,3)
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


class PatternHasher:
    """Caching wrapper around :func:`eigen_hash`.

    Embedding streams contain the same raw pattern structure over and
    over; the cache keys on the *normalised* structure so all automorphic
    raw structures that sort identically share one polynomial computation.
    The FSM block mappers already memoise per isomorphism class and pass
    the canonical pattern, which is its own normalisation: each class
    reaches the hasher once, as one miss, and its representative is the
    canonical pattern.

    Also keeps the representative :class:`Pattern` per hash so results can
    be reported as structures, not bare integers.

    All three maps — both hash caches and the representative store —
    are bounded: at most ``max_entries`` entries live in each, with
    least-recently-used eviction once the cap is reached (``evictions``
    counts them, summed across the maps).  One engine run never
    approaches the default cap — distinct pattern structures are few —
    but the hasher is shared across runs by the long-running service
    tier, where an unbounded memo is a slow leak.
    """

    #: Default cache cap: far above any single run's distinct-structure
    #: count, small enough that a service sharing one hasher for days
    #: stays bounded (~tens of MB at the accounted ~120 B/entry).
    DEFAULT_MAX_ENTRIES = 1 << 18

    def __init__(self, cache: bool = True, max_entries: int | None = None) -> None:
        #: ``cache=False`` recomputes the polynomial on every call — the
        #: paper's per-embedding checking regime, used by the Figure-12
        #: benchmark and the caching ablation.
        self.cache = cache
        if max_entries is None:
            max_entries = self.DEFAULT_MAX_ENTRIES
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._cache: dict[tuple, int] = {}
        # Raw-structure front cache: embedding streams repeat the same raw
        # (labels, bits) structure over and over, and those tuples already
        # exist on the Pattern — so a hit costs one dict probe and skips
        # the O(k^2) (label, degree) sort + permute entirely.  Misses fall
        # through to the normalised cache, which still unifies automorphic
        # raw structures into one polynomial computation.
        self._raw_cache: dict[tuple, int] = {}
        self._representatives: dict[int, Pattern] = {}
        self.hits = 0
        self.misses = 0
        #: Entries dropped by the LRU cap, across all three maps.
        self.evictions = 0
        # Concurrent executors call hash_pattern from pool threads; the
        # dict operations are atomic (and deterministic per key), but the
        # counters and the LRU reordering need the lock — bare += loses
        # updates across threads, and eviction must not race a touch.
        self._stats_lock = threading.Lock()

    def _touch(self, cache: dict, key) -> None:
        """Move ``key`` to the recently-used end (dicts preserve order)."""
        try:
            cache[key] = cache.pop(key)
        except KeyError:  # evicted between the probe and the touch
            pass

    def _insert(self, cache: dict, key, value) -> None:
        """Insert at the recently-used end, evicting the LRU overflow."""
        cache[key] = value
        while len(cache) > self.max_entries:
            cache.pop(next(iter(cache)))
            self.evictions += 1

    def hash_pattern(self, pattern: Pattern) -> int:
        if self.cache:
            raw_key = (pattern.labels, pattern.bits, pattern.edge_labels)
            cached = self._raw_cache.get(raw_key)
            if cached is not None:
                with self._stats_lock:
                    self.hits += 1
                    self._touch(self._raw_cache, raw_key)
                return cached
        normalized, _ = pattern.sorted_by_label_degree()
        key = (normalized.labels, normalized.bits, normalized.edge_labels)
        if self.cache:
            cached = self._cache.get(key)
            if cached is not None:
                with self._stats_lock:
                    self.hits += 1
                    self._touch(self._cache, key)
                    self._insert(self._raw_cache, raw_key, cached)
                return cached
        value = eigen_hash(pattern)
        with self._stats_lock:
            self.misses += 1
            self._insert(self._cache, key, value)
            if self.cache:
                self._insert(self._raw_cache, raw_key, value)
            if value in self._representatives:
                self._touch(self._representatives, value)
            else:
                self._insert(self._representatives, value, normalized)
        return value

    @property
    def hit_rate(self) -> float:
        """Fraction of ``hash_pattern`` calls served from a cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def representative(self, hash_value: int) -> Pattern | None:
        """A normalised pattern that produced ``hash_value``, if any seen.

        May return ``None`` for a hash whose representative was evicted
        by the LRU cap; callers already treat unseen hashes that way.
        """
        with self._stats_lock:
            rep = self._representatives.get(hash_value)
            if rep is not None:
                self._touch(self._representatives, hash_value)
            return rep

    @property
    def nbytes(self) -> int:
        """Rough accounted footprint of the cache (for the MemoryMeter)."""
        per_entry = 120  # dict slot + key tuple + int, measured empirically
        return (
            (len(self._cache) + len(self._raw_cache)) * per_entry
            + len(self._representatives) * 96
        )

    def __len__(self) -> int:
        return len(self._cache)


def _pair_graph(edges: list[tuple[int, int]], n: int) -> Pattern:
    labels = [0] * n
    mat = [[0] * n for _ in range(n)]
    for u, v in edges:
        mat[u][v] = mat[v][u] = 1
    return Pattern.from_adjacency(labels, mat)


#: Figure 6, left: the smallest *connected* cospectral non-isomorphic pair
#: (6 vertices, 7 edges), sharing the paper's printed characteristic
#: polynomial λ^6 − 7λ^4 − 4λ^3 + 7λ^2 + 4λ − 1.  Recovered by exhaustive
#: search over all connected 6-vertex/7-edge graphs; note the two degree
#: sequences differ ((1,2,2,2,2,5) vs (1,1,3,3,3,3)), which is why the
#: EigenHash's degree component still separates them.
HARARY_COSPECTRAL_6: tuple[Pattern, Pattern] = (
    _pair_graph([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (2, 3)], 6),
    _pair_graph([(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3)], 6),
)

#: Figure 6, right: the smallest cospectral non-isomorphic pair with equal
#: degree sequences needs 9 vertices.  These two trees share the paper's
#: printed polynomial λ^9 − 8λ^7 + 19λ^5 − 14λ^3 + 2λ and the degree
#: sequence (1,1,1,1,2,2,2,3,3) — the EigenHash *cannot* separate them,
#: which is exactly the k < 9 limit of Corollary 1.  Recovered by
#: exhaustive search over the 47 trees on 9 vertices.
HARARY_COSPECTRAL_9: tuple[Pattern, Pattern] = (
    _pair_graph(
        [(0, 6), (0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (6, 7), (7, 8)], 9
    ),
    _pair_graph(
        [(0, 5), (0, 7), (0, 1), (1, 2), (2, 3), (2, 4), (5, 6), (7, 8)], 9
    ),
)
