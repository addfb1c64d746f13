"""Minimum image-based (MNI) support counting (Bringmann & Nijssen).

The MNI support of a pattern is the minimum, over pattern positions, of
the number of distinct graph vertices observed at that position across all
of the pattern's embeddings.  It is anti-monotonic, which is what lets FSM
prune by support level by level.

Positions are the *canonical* pattern positions, so automorphic raw
structures contribute to the same domains.

The paper's Kaleido does not compute exact supports: once a pattern's
domains all reach the threshold it is marked frequent and its counting
short-circuits (Section 6.2's discussion of Figure 11).
:class:`MNIDomains` implements both the short-circuit mode and the exact
mode used for verification.

The FSM block mappers never call :meth:`MNIDomains.add`: a domain is a
set union over placements, so :func:`fold_mni_block` computes each
vertex's *first* (row, placement) step with one sort and derives the
domains — including where short-circuit counting would have frozen them —
from those first occurrences.  Placements come from one batched
canonicaliser per slab (:func:`canonical_placements`), which finds every
distinct code's canonical witness and automorphic placements with array
operations over a fixed permutation table, and also returns each code's
canonical code.

The canonical code is the mappers' pattern identity: hashes are memoised
per canonical code (:class:`PlacementTable`), and a miss hashes the
canonical pattern, so each isomorphism class costs one hash call however
many raw structures it arrives as.  A part's unseen classes reach the
hasher as one :meth:`~repro.core.eigenhash.PatternHasher.hash_patterns`
batch.  This is exact:

* two codes have equal canonical codes exactly when their patterns are
  isomorphic (labels and edge labels included), because the canonical
  code is :func:`~repro.core.isomorphism.canonical_form`'s key;
* EigenHash is an isomorphism invariant;
* so a class's hash equals every member's hash, and the pattern-map keys
  are the ones per-structure hashing gives, bit for bit.

Hashing the canonical pattern also makes the hasher's representative of
each hash (and with it ``FSMResult.patterns``) the canonical pattern,
whichever raw structure or executor thread reached the memo first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Callable, NamedTuple

import numpy as np

from ..core.pattern import Pattern

__all__ = [
    "MNIDomains",
    "merge_domains",
    "PlacementTable",
    "canonical_placements",
    "distinct_rows",
    "fold_mni_block",
    "frequent_mask",
    "SLAB_ROWS",
    "CANON_CELLS",
]

#: Rows per slab of :func:`fold_mni_block`: bounds its ``rows ×
#: placements × positions`` key temporaries whatever the part size.
SLAB_ROWS = 4096

#: Bound on one :func:`canonical_placements` chunk's ``codes × k! × k²``
#: temporaries: at ``k = 8`` a single code has 40,320 candidate
#: permutations, so a chunk holds one code.
CANON_CELLS = 1 << 22

_NEVER = np.iinfo(np.int64).max

#: ``(verts, codes) = encode(slab)``: per row, the structure-order vertex
#: ids (``(rows, kmax)``, padded past the row's vertex count) and one code
#: row ``[k, labels (kmax, padded with -1), bits, edge labels by cell]`` —
#: the edge-label columns, one per upper-triangle cell of a ``kmax``-vertex
#: pattern (0 where no edge), only on edge-labelled graphs.  The layout is
#: :meth:`Pattern.from_code` / :meth:`Pattern.to_code`'s.
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


class PlacementTable:
    """The block mappers' hash memo, one entry per isomorphism class.

    Keyed by a class's canonical :data:`BlockEncoder` code row (as a
    tuple; :func:`canonical_placements` returns it), it holds the pattern
    hash, so each class is hashed once — through its canonical pattern —
    however many raw structures, slabs and parts it appears in.  A part
    asks for all its classes at once, and the ones the table has not seen
    go to the hasher as one batch.  Concurrent parts may share a table:
    dict get/set are atomic and every value is deterministic per key, so
    a race costs at most a duplicate hash call.
    """

    def __init__(self) -> None:
        self._hashes: dict[tuple, int] = {}

    def hashes(self, ctx, codes: list[tuple], kmax: int) -> list[int]:
        """The hashes of the classes whose canonical code rows are
        ``codes``; the unseen ones go to one ``ctx.hash_patterns`` call."""
        out = [self._hashes.get(code) for code in codes]
        new = [c for c, value in enumerate(out) if value is None]
        if new:
            values = ctx.hash_patterns([Pattern.from_code(codes[c], kmax) for c in new])
            for c, value in zip(new, values):
                out[c] = self._hashes[codes[c]] = value
        return out


class _PermTable(NamedTuple):
    """Fixed tables of all ``k!`` permutations of ``k`` positions."""

    #: ``(k!, k)``, in lexicographic order (the order in which
    #: :func:`~repro.core.isomorphism.canonical_form` tries them).
    perms: np.ndarray
    #: ``(k!, cells)``: the source cell that lands on each upper-triangle
    #: cell when ``pattern.permute(perm)`` is applied.
    cell_src: np.ndarray
    #: ``(cells, k)`` cell-vertex incidence; ``cellbits @ incidence`` are
    #: the degrees.
    incidence: np.ndarray
    #: ``k ** (k - 1 - t)``: ``perm @ radix`` increases with lex rank.
    radix: np.ndarray


@lru_cache(maxsize=None)
def _perm_table(k: int) -> _PermTable:
    perms = np.array(list(permutations(range(k))), dtype=np.intp).reshape(-1, k)
    iu, ju = np.triu_indices(k, 1)
    cell_of = np.zeros((k, k), dtype=np.intp)
    cell_of[iu, ju] = cell_of[ju, iu] = np.arange(iu.shape[0])
    incidence = np.zeros((iu.shape[0], k), dtype=np.int64)
    incidence[np.arange(iu.shape[0]), iu] = 1
    incidence[np.arange(iu.shape[0]), ju] = 1
    radix = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return _PermTable(perms, cell_of[perms[:, iu], perms[:, ju]], incidence, radix)


def _canonicalise(
    codes: np.ndarray, k: int, kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Placement rows of ``k``-vertex code rows: ``(owner, slot, q)``, one
    entry per (code, automorphism), with ``q`` the structure positions
    placed at canonical positions ``0..k-1`` and ``slot`` the
    automorphism's rank in :func:`~repro.core.isomorphism.automorphisms`
    order; then each code's canonical code row."""
    table = _perm_table(k)
    cells = table.cell_src.shape[1]
    shifts = np.arange(cells, dtype=np.int64)
    cellbits = (codes[:, 1 + kmax, None] >> shifts) & 1
    key = codes[:, 1 : 1 + k] * (k + 1) + cellbits @ table.incidence
    # Candidates: the permutations along which (label, degree) ascends.
    along = key[:, table.perms]
    owner, p = np.nonzero(np.all(along[:, :, 1:] >= along[:, :, :-1], axis=2))
    src = table.cell_src[p]
    # A candidate's permuted pattern compares by its bits as an integer,
    # then by its edge labels in ascending cell order (no columns when
    # the graph has no edge labels).
    pbits = (cellbits[owner[:, None], src] << shifts).sum(axis=1)
    labelled = codes.shape[1] > 2 + kmax
    elabels = codes[:, 2 + kmax :][owner[:, None], src if labelled else src[:, :0]]
    # Stable: within one code, ties keep lex order, so each code's first
    # row is canonical_form's witness b.
    order = np.lexsort([*elabels.T[::-1], pbits, owner])
    ranked = owner[order]
    least = order[np.searchsorted(ranked, ranked)]
    first = order[np.searchsorted(ranked, np.arange(codes.shape[0]))]
    witness = table.perms[p[first]]
    # Every candidate permutes the labels alike (they ascend by (label,
    # degree)), so canonical_form's key is the code permuted by b: the
    # least bits, then the least edge labels.
    canon = codes.copy()
    canon[:, 1 : 1 + k] = np.take_along_axis(codes[:, 1 : 1 + k], witness, axis=1)
    canon[:, 1 + kmax] = pbits[first]
    canon[:, 2 + kmax : 2 + kmax + elabels.shape[1]] = elabels[first]
    # The minima are exactly q = b∘a over the automorphisms a of the
    # canonical form; automorphisms() yields them in lex order of a.
    keep = order[
        (pbits[order] == pbits[least]) & np.all(elabels[order] == elabels[least], axis=1)
    ]
    owner, q = owner[keep], table.perms[p[keep]]
    a = np.take_along_axis(np.argsort(witness, axis=1)[owner], q, axis=1)
    order = np.lexsort((a @ table.radix, owner))
    owner, q = owner[order], q[order]
    return owner, np.arange(owner.shape[0]) - np.searchsorted(owner, owner), q, canon


def canonical_placements(
    codes: np.ndarray, kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(index, valid, canon)`` of distinct :data:`BlockEncoder` code rows.

    ``index[d, a, t]`` is the structure position of code ``d`` whose
    vertex lands on canonical position ``t`` under the ``a``-th
    automorphism of its canonical form — ``perm[aut[t]]`` with ``(perm,
    aut)`` from :func:`~repro.core.isomorphism.canonical_form` and
    :func:`~repro.core.isomorphism.automorphisms` — padded with zeros to
    ``(codes, width, kmax)``; ``valid`` masks the padding.  ``canon[d]`` is
    code ``d``'s canonical code row, in the :data:`BlockEncoder` layout:
    the code of ``pattern_from_key(canonical_form(pattern)[0])``, so two
    rows are equal exactly when their patterns are isomorphic.  One array
    pass per vertex count over the fixed ``k!`` permutation table, in
    chunks of at most :data:`CANON_CELLS` ``codes × k! × k²`` cells.
    """
    ks = codes[:, 0]
    canon = np.empty_like(codes)
    found = []
    for k in np.unique(ks).tolist():
        ds = np.flatnonzero(ks == k)
        chunk = max(1, CANON_CELLS // (_perm_table(k).perms.shape[0] * k * k))
        for lo in range(0, ds.shape[0], chunk):
            at = ds[lo : lo + chunk]
            owner, slot, q, rows = _canonicalise(codes[at], k, kmax)
            canon[at] = rows
            found.append((at[owner], slot, q))
    width = max(int(slot.max()) for _, slot, _ in found) + 1
    index = np.zeros((codes.shape[0], width, kmax), dtype=np.intp)
    valid = np.zeros((codes.shape[0], width, kmax), dtype=bool)
    for owner, slot, q in found:
        index[owner, slot, : q.shape[1]] = q
        valid[owner, slot, : q.shape[1]] = True
    return index, valid, canon


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
    order.  One :func:`canonical_placements` call per slab places its
    distinct codes and groups them into isomorphism classes by canonical
    code; classes are numbered part-wide in first-sighting order.  Every
    placed vertex becomes a packed key ``(class·kmax + position)·n +
    vertex``, and a stable sort of each slab's keys in (row, placement)
    order yields each vertex's first step.  After the slabs, the part's
    classes are hashed at once through ``table`` (or once per row under
    ``hash_every_embedding``), and a group — a pattern hash numbered in
    first-appearance order over the classes, so ``pmap`` keeps its
    insertion order — replaces the class in each key; that renumbering is
    the identity unless two classes share a hash.  A domain that reaches
    ``threshold`` at every position freezes at the largest per-position
    ``threshold``-th first step, and holds exactly the vertices first seen
    by then.

    Returns each row's pattern hash (``uint64``) and the number of set
    insertions the per-row fold would have made.
    """
    rows_total = block.shape[0]
    n = ctx.graph.num_vertices
    classes: dict[tuple, int] = {}
    row_cls = np.empty(rows_total, dtype=np.intp)
    row_hashes = np.empty(rows_total, dtype=np.uint64)
    head_keys: list[np.ndarray] = []
    head_steps: list[np.ndarray] = []
    step_base = 0
    kmax = 0
    for start in range(0, rows_total, SLAB_ROWS):
        verts, codes = encode(block[start : start + SLAB_ROWS])
        rows, kmax = verts.shape
        first_rows, inverse = distinct_rows(codes)
        index, valid, canon = canonical_placements(codes[first_rows], kmax)
        class_rows, cls_of = distinct_rows(canon)
        slab_cls = np.array(
            [classes.setdefault(tuple(code), len(classes)) for code in canon[class_rows].tolist()],
            dtype=np.intp,
        )
        cls = row_cls[start : start + rows] = slab_cls[cls_of[inverse]]
        # One gather places the whole slab; padded cells are masked out.
        width = index.shape[1]
        keys = verts[np.arange(rows)[:, None, None], index[inverse]]
        keys += (cls[:, None, None] * kmax + np.arange(kmax)) * n
        steps = step_base + np.arange(rows * width, dtype=np.int64).reshape(rows, width, 1)
        mask = valid[inverse]
        keys, first = np.unique(keys[mask], return_index=True)
        head_keys.append(keys)
        head_steps.append(np.broadcast_to(steps, mask.shape)[mask][first])
        step_base += rows * width
    codes = list(classes)
    if hash_every_embedding:
        cls_hash = []
        for code, count in zip(codes, np.bincount(row_cls, minlength=len(codes)).tolist()):
            pattern = Pattern.from_code(code, kmax)
            for _ in range(count):
                phash = ctx.hash_pattern(pattern)
            cls_hash.append(phash)
    else:
        cls_hash = table.hashes(ctx, codes, kmax)
    group_k: dict[int, int] = {}  # group hash -> vertex count, in group order
    for code, phash in zip(codes, cls_hash):
        group_k.setdefault(phash, code[0])
    group_of = {phash: group for group, phash in enumerate(group_k)}
    cls_group = np.array([group_of[phash] for phash in cls_hash], dtype=np.int64)
    np.take(np.array(cls_hash, dtype=np.uint64), row_cls, out=row_hashes)
    del row_cls  # not held through the part-wide unique below
    if not head_keys:
        return row_hashes, 0
    keys = np.concatenate(head_keys)
    if len(group_k) < len(codes):
        # Classes that share a hash share domains: renumber their keys by
        # group, and order by step so each key keeps its earliest one.
        steps = np.concatenate(head_steps)
        cell = keys // n
        keys = (cls_group[cell // kmax] * kmax + cell % kmax) * n + keys % n
        order = np.argsort(steps, kind="stable")
        keys, head_steps = keys[order], [steps[order]]
    keys, first = np.unique(keys, return_index=True)
    steps = np.concatenate(head_steps)[first]
    cell = keys // n  # group * kmax + position
    frozen = np.zeros(len(group_k), dtype=bool)
    if threshold is not None:
        # The threshold-th smallest first step of each (group, position).
        order = np.lexsort((steps, cell))
        ordered = cell[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        sizes = np.diff(np.r_[starts, ordered.shape[0]])
        kth = np.full(starts.shape[0], _NEVER, dtype=np.int64)
        reached = sizes >= threshold
        kth[reached] = steps[order[starts[reached] + threshold - 1]]
        freeze = np.full(len(group_k), -1, dtype=np.int64)
        np.maximum.at(freeze, ordered[starts] // kmax, kth)
        frozen = freeze < _NEVER
        keep = steps <= freeze[cell // kmax]
        keys, cell = keys[keep], cell[keep]
    doms = []
    for (phash, size), is_frozen in zip(group_k.items(), frozen.tolist()):
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
