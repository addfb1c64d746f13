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

:func:`eigen_hash` runs the algorithm on one :class:`Pattern` over plain
Python ints; :func:`eigen_hash_codes` runs it over a stack of code rows
(:meth:`Pattern.to_code`) as array passes per vertex count, bit for bit
the same.  :class:`PatternHasher` puts one structure-keyed memo in front
of both: :meth:`~PatternHasher.hash_pattern` takes one pattern, and
:meth:`~PatternHasher.hash_codes` takes the code rows the block mappers
already hold and hashes the memo's misses in one batched pass.

Correctness (Theorem 2 / Corollary 1): for embeddings with fewer than nine
vertices, equal degrees plus equal spectrum implies isomorphism (Harary et
al.), so the fingerprint is collision-free in the mining regime the paper
targets (k < 9).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..errors import EmbeddingSizeError
from .pattern import MAX_EIGENHASH_VERTICES, Pattern

__all__ = [
    "faddeev_leverrier",
    "weighted_adjacency",
    "eigen_hash",
    "eigen_hash_codes",
    "PatternHasher",
    "HARARY_COSPECTRAL_6",
    "HARARY_COSPECTRAL_9",
]


def faddeev_leverrier(matrix: Sequence[Sequence[int]] | np.ndarray) -> tuple[int, ...]:
    """Exact characteristic-polynomial coefficients of an integer matrix.

    Returns ``(p_1, ..., p_n)`` such that
    ``det(λI − M) = λ^n + p_1 λ^(n−1) + ... + p_n``.

    Implements lines 19-26 of Algorithm 1 with plain Python integers,
    exact at any magnitude (the divisions by ``k`` are exact for integer
    matrices).  One small matrix at a time this beats an array round
    trip; :func:`eigen_hash_codes` runs the same recurrence over a whole
    stack of matrices in int64.
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
    characteristic polynomial, hash — is inlined over plain ints, the
    cheapest form for one pattern.  Many patterns at once go through
    :func:`eigen_hash_codes`, which returns the same values.
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


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = np.uint64(0x100000001B3)

#: ``|value|`` at which :func:`_stable_hash`'s byte string grows by one
#: byte: it is ``bit_length // 8 + 2`` bytes long, 2 to 10 for int64.
_BYTE_STEPS = np.array([1 << (8 * m - 1) for m in range(1, 9)], dtype=np.uint64)

#: Exclusive bound on every Faddeev–LeVerrier intermediate of the int64
#: pass (see :func:`eigen_hash_codes`).
FLV_INT64_BOUND = 1 << 62


def _fnv_rows(values: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """:func:`_stable_hash` of every row of an int64 matrix, as ``uint64``;
    with ``valid``, of each row's valid entries only.

    FNV-1a is sequential in the bytes, so the loop runs over columns and
    byte positions, each step one array operation across all rows.  A
    value's bytes are its little-endian two's complement: the int64's
    eight bytes, then sign bytes.
    """
    rows, width = values.shape
    acc = np.full(rows, _FNV_OFFSET, dtype=np.uint64)
    if rows == 0 or width == 0:
        return acc
    values = np.ascontiguousarray(values, dtype="<i8")
    # abs(int64 min) wraps to itself, which reads as 2^63 unsigned.
    magnitude = np.abs(values).view(np.uint64)
    nbytes = 2 + np.searchsorted(_BYTE_STEPS, magnitude, side="right")
    if valid is not None:
        nbytes[~valid] = 0
    raw = values.view(np.uint8).reshape(rows, width, 8)
    for col in range(width):
        n = nbytes[:, col]
        for b in range(int(n.max())):
            byte = raw[:, col, b] if b < 8 else np.where(values[:, col] < 0, 0xFF, 0)
            mixed = (acc ^ byte.astype(np.uint64)) * _FNV_PRIME
            acc = mixed if b < 2 and valid is None else np.where(n > b, mixed, acc)
        mixed = (acc ^ np.uint64(0xFF)) * _FNV_PRIME
        acc = mixed if valid is None else np.where(n > 0, mixed, acc)
    return acc


def _flv_stack(mats: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_flv` over a ``(D, k, k)`` int64 stack: ``(D, k)`` coefficients
    and the mask of the rows they are exact for.

    ``reach[d]`` is row ``d``'s largest absolute row sum ``R``, in float64
    from the true weights.  **Overflow guard**, checked per row before
    each ``matmul``: the recurrence is ``M_1 = M``, ``c_m = -tr(M_m)/m``,
    ``B_m = M_{m-1} + c_{m-1} I`` and ``M_m = M B_m``.  Every entry of
    ``M B_m``, and every partial sum of it, is at most ``Σ_t |M_it|
    max|B_m| <= R max|B_m|``, and ``tr(M_m)`` adds ``k`` of them.  So
    ``k R max|B_m| < 2^62`` keeps the product, its trace and ``|c_m|``
    below 2^62, and the next diagonal update below ``2^62/k + 2^62 <
    2^63``: ``B_{m+1}`` is exact in int64 and the next check reads its
    true maximum.  ``B_2 = M`` (``c_1 = 0`` on the zero diagonal), whose
    entries are at most ``R``; its check uses ``R`` itself, so ``k R² <
    2^62`` also certifies that the int64 weights did not wrap.  The checks
    run in float64 with a ``1 + 1e-9`` margin for rounding; a row that
    fails one is not exact, and the caller hashes it through the scalar
    :func:`eigen_hash`.
    """
    rows, k, _ = mats.shape
    diag = np.arange(k)
    coeffs = np.empty((rows, k), dtype=np.int64)
    exact = np.ones(rows, dtype=bool)
    work = mats.copy()
    for m in range(1, k + 1):
        if m > 1:
            work[:, diag, diag] += coeffs[:, m - 2, None]
            top = reach if m == 2 else np.abs(work).max(axis=(1, 2)).astype(np.float64)
            with np.errstate(over="ignore", invalid="ignore"):
                exact &= k * reach * top * (1 + 1e-9) < FLV_INT64_BOUND
            work = np.matmul(mats, work)
        coeffs[:, m - 1] = -(work[:, diag, diag].sum(axis=1) // m)
    return coeffs, exact


def _edge_label_profiles(labels: np.ndarray, adj: np.ndarray, elab: np.ndarray) -> np.ndarray:
    """:func:`eigen_hash`'s edge-label profile term, one per row.

    Each vertex's entry is ``(label, *sorted incident edge labels)``; the
    entries are sorted as tuples (a proper prefix first) and hashed
    flattened as ``(len(entry), *entry)``.
    """
    rows, k = labels.shape
    degrees = adj.sum(axis=2)
    incident = np.sort(np.where(adj, elab, np.iinfo(np.int64).max), axis=2)[:, :, : k - 1]
    real = np.arange(k - 1) < degrees[:, :, None]
    flat, flags = incident.reshape(rows * k, k - 1), real.reshape(rows * k, k - 1)
    # Tuple order: per column, a missing entry (flag 0) sorts before any
    # label, and equal flags compare by value.
    keys = [key for c in range(k - 2, -1, -1) for key in (flat[:, c], flags[:, c])]
    order = np.lexsort([*keys, labels.reshape(-1), np.repeat(np.arange(rows), k)])
    count = degrees.reshape(-1)[order]
    values = np.concatenate(
        [(1 + count)[:, None], labels.reshape(-1)[order, None], flat[order]], axis=1
    )
    valid = np.concatenate([np.ones((rows * k, 2), dtype=bool), flags[order]], axis=1)
    return _fnv_rows(values.reshape(rows, -1), valid.reshape(rows, -1))


def eigen_hash_codes(codes: np.ndarray, kmax: int) -> np.ndarray:
    """:func:`eigen_hash` of every code row, as ``uint64``, bit for bit.

    ``codes`` is a ``(D, 2 + kmax [+ kmax(kmax-1)/2])`` int64 stack of
    :meth:`Pattern.to_code` rows ``[k, labels (-1 padded), bits, edge
    labels by cell]``; the edge-label columns mark every row as
    edge-labelled.  Rows may mix vertex counts.  Algorithm 1 runs as array
    passes per ``k``: a stable (label, degree) argsort, one gather for the
    label-weighted adjacency, Faddeev–LeVerrier as ``k`` batched int64
    ``matmul``\\ s with exact trace division, and FNV-1a over the same
    byte strings :func:`_stable_hash` reads (plus the edge-label profile
    term on edge-labelled rows).

    **Overflow guard.**  Let ``R`` be the largest absolute row sum of a
    row's weighted matrix ``M``.  Before each ``matmul``, a row whose
    ``k·R·max|B|`` (``B`` the matrix about to be multiplied) is not below
    :data:`FLV_INT64_BOUND` = 2^62 leaves the int64 pass (see
    :func:`_flv_stack` for why that bounds every intermediate); those rows
    are hashed by the scalar :func:`eigen_hash`, whose :func:`_flv` runs
    on Python ints.  The check reads each row's actual intermediates, so
    it keeps far more rows in the batch than an a-priori bound in ``R``
    alone would.
    """
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape[0], dtype=np.uint64)
    if codes.shape[0] == 0:
        return out
    ks = codes[:, 0]
    top = int(ks.max())
    if top > MAX_EIGENHASH_VERTICES:
        raise EmbeddingSizeError(
            f"EigenHash is only collision-free below 9 vertices; pattern has {top}"
        )
    for k in np.unique(ks).tolist():
        at = np.flatnonzero(ks == k)
        out[at] = _hash_codes_k(codes[at], k, kmax)
    return out


@lru_cache(maxsize=None)
def _cells(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each upper-triangle cell of a ``k``-vertex
    pattern, in bitmap order (read-only: every caller shares them)."""
    iu, ju = np.triu_indices(k, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _hash_codes_k(codes: np.ndarray, k: int, kmax: int) -> np.ndarray:
    """:func:`eigen_hash_codes` over rows that all have ``k`` vertices."""
    rows = codes.shape[0]
    if k == 0:
        # Three empty tuples, XOR'd: one of them is left.
        return np.full(rows, _stable_hash(()), dtype=np.uint64)
    iu, ju = _cells(k)
    labels = codes[:, 1 : 1 + k]
    present = (codes[:, 1 + kmax, None] >> np.arange(iu.shape[0])) & 1 == 1
    adj = np.zeros((rows, k, k), dtype=bool)
    adj[:, iu, ju] = adj[:, ju, iu] = present
    degrees = adj.sum(axis=2)
    # Lines 29-33: stable sort of the positions by (label, degree).
    at = np.arange(rows)[:, None]
    perm = np.argsort(degrees, axis=1, kind="stable")
    perm = perm[at, np.argsort(labels[at, perm], axis=1, kind="stable")]
    # Lines 12-18: each cell's weight, in int64 (wrapping where the guard
    # rejects the row) and in float64 for the guard's R.
    lo = np.minimum(labels[:, iu], labels[:, ju])
    hi = np.maximum(labels[:, iu], labels[:, ju])
    top = labels.max(axis=1, keepdims=True)
    weight = (lo + 1) * (top + 2) + (hi + 1)
    weight_f = (lo + 1.0) * (top + 2.0) + (hi + 1.0)
    labelled = codes.shape[1] > 2 + kmax
    if labelled:
        elab = np.where(present, codes[:, 2 + kmax : 2 + kmax + iu.shape[0]], 0)
        low = np.iinfo(np.int64).min
        emax = np.where(present, elab, low).max(axis=1, keepdims=True, initial=low)
        ebase = np.where(present.any(axis=1, keepdims=True), emax + 2, 2)
        weight = weight * ebase + (elab + 1)
        weight_f = weight_f * ebase + (elab + 1.0)
    weight = np.where(present, weight, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        mats_f = np.zeros((rows, k, k))
        mats_f[:, iu, ju] = mats_f[:, ju, iu] = np.where(present, np.abs(weight_f), 0.0)
        reach = mats_f.sum(axis=2).max(axis=1)
    mats = np.zeros((rows, k, k), dtype=np.int64)
    mats[:, iu, ju] = mats[:, ju, iu] = weight
    poly, exact = _flv_stack(mats[at[:, :, None], perm[:, :, None], perm[:, None, :]], reach)
    parts = _fnv_rows(np.concatenate([labels[at, perm], degrees[at, perm], poly]))
    value = parts.reshape(3, -1)
    value = value[0] ^ value[1] ^ value[2]
    if labelled:
        edged = np.flatnonzero(present.any(axis=1))
        if edged.shape[0]:
            full = np.zeros((edged.shape[0], k, k), dtype=np.int64)
            full[:, iu, ju] = full[:, ju, iu] = elab[edged]
            value[edged] ^= _edge_label_profiles(labels[edged], adj[edged], full)
    for d in np.flatnonzero(~exact).tolist():
        value[d] = eigen_hash(Pattern.from_code(codes[d], kmax))
    return value


class PatternHasher:
    """Memoising front of :func:`eigen_hash` and :func:`eigen_hash_codes`.

    One memo maps a structure's raw key ``(labels, bits, edge_labels)``
    to its hash; :meth:`hash_pattern` (one pattern) and :meth:`hash_codes`
    (a stack of code rows, each keyed as :meth:`Pattern.from_code` would
    build it, whatever the ``kmax`` padding) share it, so a structure
    hashed through one is a hit through the other.  The block mappers
    pass each part's distinct structures to :meth:`hash_codes`: FSM one
    canonical row per isomorphism class, motif counting one row per
    adjacency code.

    Also keeps a representative per hash — the (label, degree)-normalised
    pattern of the least structure, in ``(labels, bits, edge_labels)``
    order, that missed with it, whatever order they missed in — so results
    can be reported as structures, not bare integers.

    The memo and the representatives are bounded: at most
    ``max_entries`` entries live in each, with least-recently-used
    eviction once the cap is reached (``evictions`` counts them, summed
    across the two).  One engine run never approaches the default cap —
    distinct pattern structures are few — but the hasher is shared across
    runs by the long-running service tier, where an unbounded memo is a
    slow leak.
    """

    #: Default cache cap: far above any single run's distinct-structure
    #: count, small enough that a service sharing one hasher for days
    #: stays bounded (~tens of MB at the accounted ~120 B/entry).
    DEFAULT_MAX_ENTRIES = 1 << 18

    #: Below this many misses :meth:`hash_codes` hashes them one by one:
    #: a batched pass costs 110–151 µs even for one row (k 3–5), and
    #: :func:`eigen_hash` 15–38 µs per pattern, so they break even at about
    #: 6–8 rows (EXPERIMENTS.md, Fig. 12).
    BATCH_MIN = 8

    def __init__(self, cache: bool = True, max_entries: int | None = None) -> None:
        #: ``cache=False`` keeps no memo and recomputes the polynomial on
        #: every call — the paper's per-embedding checking regime, used by
        #: the Figure-12 benchmark and the caching ablation.
        self.cache = cache
        if max_entries is None:
            max_entries = self.DEFAULT_MAX_ENTRIES
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._memo: dict[tuple, int] = {}
        #: hash -> the least structure key that missed with it; normalised
        #: only when :meth:`representative` asks, so a miss costs a tuple
        #: comparison (the memo-less regime misses on every call).
        self._representatives: dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0
        #: Entries dropped by the LRU cap, across the memo and the
        #: representatives.
        self.evictions = 0
        # Concurrent executors hash from pool threads; the dict reads are
        # atomic (and deterministic per key), but the counters and the LRU
        # reordering need the lock — bare += loses updates across threads,
        # and eviction must not race a touch.
        self._stats_lock = threading.Lock()

    def _insert(self, cache: dict, key, value) -> None:
        """Insert at the recently-used end, evicting the LRU overflow."""
        cache[key] = value
        while len(cache) > self.max_entries:
            cache.pop(next(iter(cache)))
            self.evictions += 1

    def _account(self, key: tuple, value: int) -> None:
        """One lookup's bookkeeping, under ``_stats_lock``: a hit moves the
        memo entry to the recently-used end (dicts keep insertion order);
        a miss inserts it and records (or moves) the hash's
        representative key, keeping the least."""
        if self.cache and key in self._memo:
            self.hits += 1
            self._memo[key] = self._memo.pop(key)
            return
        self.misses += 1
        if self.cache:
            self._insert(self._memo, key, value)
        held = self._representatives.pop(value, None)
        if held is None:
            self._insert(self._representatives, value, key)
        else:
            least = _structure_order(key) < _structure_order(held)
            self._representatives[value] = key if least else held

    def hash_pattern(self, pattern: Pattern) -> int:
        key = (pattern.labels, pattern.bits, pattern.edge_labels)
        value = self._memo.get(key) if self.cache else None
        if value is None:
            value = eigen_hash(pattern)
        with self._stats_lock:
            self._account(key, value)
        return value

    def hash_codes(self, codes: np.ndarray, kmax: int) -> np.ndarray:
        """The hash of every code row, as ``uint64``: exactly
        ``[hash_pattern(Pattern.from_code(row, kmax)) for row in codes]``
        — the same values, hits, misses, memo order, evictions and
        representatives — without a pattern per row.

        ``codes`` holds :data:`~repro.apps.mni.BlockEncoder` rows ``[k,
        labels (-1 padded), bits, edge labels by cell]``; the mappers pass
        distinct ones.  The rows the memo lacks are hashed in one
        :func:`eigen_hash_codes` pass, or through :func:`eigen_hash` when
        there are fewer than :attr:`BATCH_MIN`; then every row is
        accounted, in order, under one lock acquisition.  A row of more
        than :data:`MAX_EIGENHASH_VERTICES` vertices raises where the loop
        would, after the rows before it are accounted.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.shape[0] == 0:
            return np.zeros(0, dtype=np.uint64)
        oversized = np.flatnonzero(codes[:, 0] > MAX_EIGENHASH_VERTICES)
        if oversized.shape[0]:
            self.hash_codes(codes[: oversized[0]], kmax)
            Pattern.from_code(codes[oversized[0]], kmax).check_eigenhash_size()
        keys = [Pattern.code_fields(row, kmax) for row in codes.tolist()]
        memo = self._memo if self.cache else {}
        values = [memo.get(key) for key in keys]
        todo = [d for d, value in enumerate(values) if value is None]
        if len(todo) >= self.BATCH_MIN:
            for d, value in zip(todo, eigen_hash_codes(codes[todo], kmax).tolist()):
                values[d] = value
        else:
            for d in todo:
                values[d] = eigen_hash(Pattern(*keys[d]))
        with self._stats_lock:
            for key, value in zip(keys, values):
                self._account(key, value)
        return np.array(values, dtype=np.uint64)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def representative(self, hash_value: int) -> Pattern | None:
        """A normalised pattern that produced ``hash_value``, if any seen.

        May return ``None`` for a hash whose representative was evicted
        by the LRU cap; callers already treat unseen hashes that way.
        """
        with self._stats_lock:
            key = self._representatives.pop(hash_value, None)
            if key is None:
                return None
            # Back at the recently-used end.
            self._representatives[hash_value] = key
        return Pattern(*key).sorted_by_label_degree()[0]

    @property
    def nbytes(self) -> int:
        """Rough accounted footprint of the memo (for the MemoryMeter)."""
        per_entry = 120  # dict slot + key tuple + int, measured empirically
        return len(self._memo) * per_entry + len(self._representatives) * 96

    def __len__(self) -> int:
        return len(self._memo)


def _structure_order(key: tuple) -> tuple:
    """A structure key ``(labels, bits, edge_labels)`` as a sort key that
    also orders ``None`` edge labels."""
    return key[0], key[1], key[2] or ()


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
