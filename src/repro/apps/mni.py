"""Minimum image-based (MNI) support counting (Bringmann & Nijssen).

The MNI support of a pattern is the minimum, over pattern positions, of
the number of distinct graph vertices observed at that position across all
of the pattern's embeddings.  It is anti-monotonic, which is what lets FSM
prune by support level by level.

Positions are the *normalised* pattern positions (after the Algorithm-1
``(label, degree)`` sort), so automorphic raw structures contribute to the
same domains.

The paper's Kaleido does not compute exact supports: once a pattern's
domains all reach the threshold it is marked frequent and its counting
short-circuits (Section 6.2's discussion of Figure 11).
:class:`MNIDomains` implements both the short-circuit mode and the exact
mode used for verification.

The FSM block mappers never call :meth:`MNIDomains.add`: a domain is a
set union over placements, so :func:`fold_mni_block` computes each
vertex's *first* (row, placement) step with one sort and derives the
domains — including where short-circuit counting would have frozen them —
from those first occurrences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.isomorphism import (
    CanonicalKey,
    automorphisms,
    canonical_form,
    pattern_from_key,
)
from ..core.pattern import Pattern

__all__ = [
    "MNIDomains",
    "merge_domains",
    "PositionMapper",
    "PlacementTable",
    "distinct_rows",
    "fold_mni_block",
    "frequent_mask",
    "SLAB_ROWS",
]

#: Rows per slab of :func:`fold_mni_block`: bounds its ``rows ×
#: placements × positions`` key temporaries whatever the part size.
SLAB_ROWS = 4096

_NEVER = np.iinfo(np.int64).max

#: ``(verts, codes) = encode(slab)``: per row, the structure-order vertex
#: ids (``(rows, kmax)``, padded past the row's vertex count) and one code
#: row ``[k, labels (kmax, padded with -1), bits, edge labels by cell]`` —
#: the edge-label columns, one per upper-triangle cell of a ``kmax``-vertex
#: pattern (0 where no edge), only on edge-labelled graphs.
BlockEncoder = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class MNIDomains:
    """Per-position distinct-vertex domains of one pattern."""

    __slots__ = ("domains", "frozen")

    def __init__(self, k: int) -> None:
        self.domains: list[set[int]] = [set() for _ in range(k)]
        #: True once the short-circuit threshold was reached.
        self.frozen = False

    def add(self, vertices_by_position: tuple[int, ...], threshold: int | None) -> int:
        """Record one embedding's vertices (already in normalised order).

        With a ``threshold``, counting freezes as soon as every domain
        holds at least ``threshold`` vertices (the paper's short-circuit).
        Returns the number of set insertions performed — the Figure-11
        benchmark uses the total as a deterministic cost proxy.
        """
        if self.frozen:
            return 0
        inserted = 0
        for domain, vertex in zip(self.domains, vertices_by_position):
            before = len(domain)
            domain.add(vertex)
            inserted += len(domain) - before
        if threshold is not None and all(
            len(domain) >= threshold for domain in self.domains
        ):
            self.frozen = True
        return inserted

    @property
    def support(self) -> int:
        """Current (possibly short-circuited lower-bound) support."""
        if not self.domains:
            return 0
        return min(len(domain) for domain in self.domains)

    @property
    def nbytes(self) -> int:
        """Accounted size: set overhead + 28 bytes per stored int."""
        return sum(64 + 28 * len(domain) for domain in self.domains)

    def __eq__(self, other: object) -> bool:
        """Value equality over the recorded domains (the executor parity
        tests compare whole pattern maps)."""
        if not isinstance(other, MNIDomains):
            return NotImplemented
        return self.domains == other.domains and self.frozen == other.frozen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MNIDomains(support={self.support}, frozen={self.frozen})"


class PositionMapper:
    """Maps embedding vertices onto *canonical* pattern positions.

    MNI domains must use one consistent position space per pattern class.
    Raw structures of the same class can differ (first-appearance order
    varies across embeddings), so we canonicalise each raw structure once
    (cached) and keep the witnessing permutation; every embedding's
    vertices are then placed at canonical positions, and each automorphism
    of the canonical form contributes an additional valid placement (GraMi
    semantics — without this, supports of symmetric patterns are wrong).
    """

    def __init__(self) -> None:
        self._cache: dict[
            tuple[tuple[int, ...], int],
            tuple[tuple[int, ...], list[tuple[int, ...]]],
        ] = {}

    def placements(
        self, pattern: Pattern, structure_vertices: list[int]
    ) -> list[tuple[int, ...]]:
        """All canonical-position vertex assignments of one embedding."""
        key = (pattern.labels, pattern.bits, pattern.edge_labels)
        entry = self._cache.get(key)
        if entry is None:
            canon_key, perm = canonical_form(pattern)
            auts = automorphisms(pattern_from_key(canon_key))
            entry = self._cache[key] = (perm, auts)
        perm, auts = entry
        base = tuple(structure_vertices[p] for p in perm)
        return [tuple(base[a] for a in aut) for aut in auts]

    @property
    def nbytes(self) -> int:
        return 220 * len(self._cache)


class PlacementTable:
    """The block mappers' per-structure memo.

    Keyed by raw structure ``(labels, bits, edge_labels)``, it holds the
    pattern hash and the ``(n_aut, k)`` placement index matrix: row ``a``
    gives, for each canonical position ``t``, the structure position
    ``perm[aut[t]]`` whose vertex lands there under the ``a``-th
    automorphism — :meth:`PositionMapper.placements` as one gather over a
    whole block.  Automorphism groups are cached per canonical key, which
    many raw structures share.  Concurrent parts may share a table: dict
    get/set are atomic and every value is deterministic per key, so a
    race costs at most a duplicate computation.
    """

    def __init__(self) -> None:
        self._hashes: dict[tuple, int] = {}
        self._placements: dict[tuple, np.ndarray] = {}
        self._automorphisms: dict[CanonicalKey, list[tuple[int, ...]]] = {}

    def phash(self, ctx, pattern: Pattern) -> int:
        """The pattern's hash, computed once per raw structure."""
        key = (pattern.labels, pattern.bits, pattern.edge_labels)
        value = self._hashes.get(key)
        if value is None:
            value = self._hashes[key] = ctx.hash_pattern(pattern)
        return value

    def placements(self, pattern: Pattern) -> np.ndarray:
        """The ``(n_aut, k)`` placement index matrix of a raw structure."""
        key = (pattern.labels, pattern.bits, pattern.edge_labels)
        matrix = self._placements.get(key)
        if matrix is None:
            canon_key, perm = canonical_form(pattern)
            auts = self._automorphisms.get(canon_key)
            if auts is None:
                auts = self._automorphisms[canon_key] = automorphisms(
                    pattern_from_key(canon_key)
                )
            matrix = np.array([[perm[a] for a in aut] for aut in auts], dtype=np.intp)
            self._placements[key] = matrix
        return matrix


def _pattern_of(code: list[int], kmax: int) -> Pattern:
    """Decode one :data:`BlockEncoder` code row."""
    k, bits = code[0], code[1 + kmax]
    labels = tuple(code[1 : 1 + k])
    cells = code[2 + kmax :]
    if not cells:
        return Pattern(labels, bits)
    return Pattern(labels, bits, tuple(c for t, c in enumerate(cells) if bits >> t & 1))


def distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first_rows, inverse)``: the first row of each distinct code, in
    first-appearance order, and each row's index into it."""
    order = np.lexsort(codes.T)
    ordered = codes[order]
    new = np.ones(order.shape[0], dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    # lexsort is stable, so each run starts at its code's first row.
    firsts = order[new]
    rank = np.argsort(firsts)
    remap = np.empty_like(rank)
    remap[rank] = np.arange(rank.shape[0])
    inverse = np.empty_like(order)
    inverse[order] = remap[np.cumsum(new) - 1]
    return firsts[rank], inverse


def fold_mni_block(
    ctx,
    block: np.ndarray,
    pmap: dict,
    encode: BlockEncoder,
    table: PlacementTable,
    threshold: int | None,
    hash_every_embedding: bool = False,
) -> tuple[np.ndarray, int]:
    """Fold one part's embeddings into fresh MNI domains in ``pmap``.

    Equal, domains and ``frozen`` flags alike, to calling
    :meth:`MNIDomains.add` for every automorphic placement of every row in
    order.  Each distinct code is decoded, hashed (through ``table``, or
    once per row under ``hash_every_embedding``) and placed once.  Every
    placed vertex becomes a packed key ``(group·kmax + position)·n +
    vertex``, where a group is a pattern hash numbered in first-appearance
    order (so ``pmap`` keeps its insertion order); a stable sort of the
    keys in (row, placement) order yields each vertex's first step.  A
    domain that reaches ``threshold`` at every position freezes at the
    largest per-position ``threshold``-th first step, and holds exactly
    the vertices first seen by then.

    Returns each row's pattern hash (``uint64``) and the number of set
    insertions the per-row fold would have made.
    """
    rows_total = block.shape[0]
    row_hashes = np.empty(rows_total, dtype=np.uint64)
    n = ctx.graph.num_vertices
    groups: dict[int, int] = {}
    group_sizes: list[int] = []
    head_keys: list[np.ndarray] = []
    head_steps: list[np.ndarray] = []
    step_base = 0
    kmax = 0
    for start in range(0, rows_total, SLAB_ROWS):
        verts, codes = encode(block[start : start + SLAB_ROWS])
        rows, kmax = verts.shape
        first_rows, inverse = distinct_rows(codes)
        counts = np.bincount(inverse, minlength=first_rows.shape[0]).tolist()
        code_hash = np.empty(first_rows.shape[0], dtype=np.uint64)
        code_group = np.empty(first_rows.shape[0], dtype=np.int64)
        matrices = []
        for d, code in enumerate(codes[first_rows].tolist()):
            pattern = _pattern_of(code, kmax)
            if hash_every_embedding:
                for _ in range(counts[d]):
                    phash = ctx.hash_pattern(pattern)
            else:
                phash = table.phash(ctx, pattern)
            group = groups.setdefault(phash, len(groups))
            if group == len(group_sizes):
                group_sizes.append(pattern.num_vertices)
            code_hash[d] = phash
            code_group[d] = group
            matrices.append(table.placements(pattern))
        row_hashes[start : start + rows] = code_hash[inverse]
        # Pad every code's matrix to (width, kmax) so one gather places
        # the whole slab; padded cells are masked out below.
        width = max(m.shape[0] for m in matrices)
        index = np.zeros((len(matrices), width, kmax), dtype=np.intp)
        valid = np.zeros((len(matrices), width, kmax), dtype=bool)
        for d, m in enumerate(matrices):
            index[d, : m.shape[0], : m.shape[1]] = m
            valid[d, : m.shape[0], : m.shape[1]] = True
        keys = verts[np.arange(rows)[:, None, None], index[inverse]]
        keys += (code_group[inverse][:, None, None] * kmax + np.arange(kmax)) * n
        steps = step_base + np.arange(rows * width, dtype=np.int64).reshape(rows, width, 1)
        mask = valid[inverse]
        keys, first = np.unique(keys[mask], return_index=True)
        head_keys.append(keys)
        head_steps.append(np.broadcast_to(steps, mask.shape)[mask][first])
        step_base += rows * width
    if not head_keys:
        return row_hashes, 0
    keys, first = np.unique(np.concatenate(head_keys), return_index=True)
    steps = np.concatenate(head_steps)[first]
    cell = keys // n  # group * kmax + position
    frozen = np.zeros(len(groups), dtype=bool)
    if threshold is not None:
        # The threshold-th smallest first step of each (group, position).
        order = np.lexsort((steps, cell))
        ordered = cell[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        sizes = np.diff(np.r_[starts, ordered.shape[0]])
        kth = np.full(starts.shape[0], _NEVER, dtype=np.int64)
        reached = sizes >= threshold
        kth[reached] = steps[order[starts[reached] + threshold - 1]]
        freeze = np.full(len(groups), -1, dtype=np.int64)
        np.maximum.at(freeze, ordered[starts] // kmax, kth)
        frozen = freeze < _NEVER
        keep = steps <= freeze[cell // kmax]
        keys, cell = keys[keep], cell[keep]
    doms = []
    for phash, size, is_frozen in zip(groups, group_sizes, frozen.tolist()):
        dom = pmap[phash] = MNIDomains(size)
        dom.frozen = is_frozen
        doms.append(dom)
    vertices = (keys - cell * n).tolist()
    bounds = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1], True]).tolist()
    for lo, hi, c in zip(bounds, bounds[1:], cell[bounds[:-1]].tolist()):
        group, position = divmod(c, kmax)
        doms[group].domains[position] = set(vertices[lo:hi])
    return row_hashes, len(vertices)


def frequent_mask(
    hashes: list[np.ndarray], reduced: dict, support: int
) -> np.ndarray | None:
    """Keep-mask of the rows whose pattern hash is frequent in ``reduced``
    (``None`` when every row is kept) — the FSM apps' ``prune``."""
    frequent = np.array(
        sorted(phash for phash, dom in reduced.items() if dom.support >= support),
        dtype=np.uint64,
    )
    row_hashes = np.concatenate(hashes) if hashes else np.zeros(0, dtype=np.uint64)
    if frequent.shape[0] == 0:
        keep = np.zeros(row_hashes.shape[0], dtype=bool)
    else:
        at = np.searchsorted(frequent, row_hashes)
        np.minimum(at, frequent.shape[0] - 1, out=at)
        keep = frequent[at] == row_hashes
    if keep.all():
        return None
    return keep


def merge_domains(
    into: MNIDomains, other: MNIDomains, threshold: int | None
) -> MNIDomains:
    """Union per-position domains (the Reducer side of MNI counting)."""
    if into.frozen:
        return into
    for mine, theirs in zip(into.domains, other.domains):
        mine.update(theirs)
    if other.frozen or (
        threshold is not None
        and all(len(domain) >= threshold for domain in into.domains)
    ):
        into.frozen = True
    return into
