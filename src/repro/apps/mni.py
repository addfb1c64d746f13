"""Minimum image-based (MNI) support counting (Bringmann & Nijssen).

The MNI support of a pattern is the minimum, over pattern positions, of
the number of distinct graph vertices observed at that position across all
of the pattern's embeddings.  It is anti-monotonic, which is what lets FSM
prune by support level by level.

Positions are the *canonical* pattern positions, so automorphic raw
structures contribute to the same domains.

The paper's Kaleido does not compute exact supports: once a pattern's
domains all reach the threshold it is marked frequent and its counting
short-circuits (Section 6.2's discussion of Figure 11).  Both the
short-circuit mode and the exact mode used for verification live here.

MNI state is sorted int64 arrays, never Python sets.  A part's state
(:class:`MNIState`) is the sorted key array its fold builds, one key
``(group·kmax + position)·n + vertex`` per domain member, plus per-group
hashes, vertex counts, ``frozen`` flags and supports; the pattern map's
values are read-only :class:`MNIDomains` views of it.  A domain is a set
union over placements, so :func:`fold_mni_block` computes each vertex's
*first* (row, placement) step and derives the domains — including where
short-circuit counting would have frozen them — from those first
occurrences; :func:`reduce_domains` merges the parts the same way, with
the part index as the step.  Every dedup, first occurrence and per-cell
order is one ``np.sort`` of packed int64 keys (:func:`first_occurrences`,
:func:`distinct_rows`), not ``np.unique``'s stable argsort or a
``lexsort``.  The set-based reference (``MNIDomains.add`` per placement
and its pairwise merge) lives in :mod:`repro.baselines.mni_sets`.

Placements come from one batched canonicaliser per slab
(:func:`canonical_placements`), which finds every distinct code's
canonical witness and automorphic placements with array operations over a
fixed permutation table, and also returns each code's canonical code.

The canonical code is the mappers' pattern identity: a part hands the
hasher its classes' canonical code rows in one
:meth:`~repro.core.eigenhash.PatternHasher.hash_codes` call, so each
isomorphism class costs one memo lookup per part however many raw
structures it arrives as, and one EigenHash the first time it is seen.
This is exact:

* two codes have equal canonical codes exactly when their patterns are
  isomorphic (labels and edge labels included), because the canonical
  code is :func:`~repro.core.isomorphism.canonical_form`'s key;
* EigenHash is an isomorphism invariant;
* so a class's hash equals every member's hash, and the pattern-map keys
  are the ones per-structure hashing gives, bit for bit.

Canonical rows are already (label, degree)-sorted, so the hasher's
representative of each hash (and with it ``FSMResult.patterns``) is the
canonical pattern, whichever executor thread reached the memo first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Callable, NamedTuple

import numpy as np

from ..core.pattern import Pattern

__all__ = [
    "MNIState",
    "MNIDomains",
    "canonical_placements",
    "first_occurrences",
    "distinct_rows",
    "fold_mni_block",
    "reduce_domains",
    "mni_state",
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

#: Exclusive bound on a packed sort key: the packed paths run only when
#: every key they build is below it.
_PACK_BOUND = 1 << 63

#: ``(verts, codes) = encode(slab)``: per row, the structure-order vertex
#: ids (``(rows, kmax)``, padded past the row's vertex count) and one code
#: row ``[k, labels (kmax, padded with -1), bits, edge labels by cell]`` —
#: the edge-label columns, one per upper-triangle cell of a ``kmax``-vertex
#: pattern (0 where no edge), only on edge-labelled graphs.  The layout is
#: :meth:`Pattern.from_code` / :meth:`Pattern.to_code`'s.
BlockEncoder = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique, first)`` of a 1-D int64 array, equal to
    ``np.unique(keys, return_index=True)``.

    With ``m`` keys, all ``>= 0`` and ``(max + 1)·m < 2^63``, one in-place
    ``np.sort`` of ``key·m + index`` orders the keys and, within equal
    keys, their indices, so each run's head is the key's first index.
    Other keys take ``np.unique``'s stable argsort.
    """
    m = keys.shape[0]
    if m == 0:
        return keys[:0].astype(np.int64), np.zeros(0, dtype=np.intp)
    if int(keys.min()) < 0 or (int(keys.max()) + 1) * m >= _PACK_BOUND:
        unique, first = np.unique(keys, return_index=True)
        return unique, first.astype(np.intp, copy=False)
    packed = np.multiply(keys, m, dtype=np.int64)
    packed += np.arange(m, dtype=np.int64)
    packed.sort()
    unique, first = np.divmod(packed, m)
    head = np.empty(m, dtype=bool)
    head[0] = True
    np.not_equal(unique[1:], unique[:-1], out=head[1:])
    return unique[head], first[head].astype(np.intp, copy=False)


class MNIState:
    """The MNI domains of one pattern map, as sorted int64 arrays.

    Group ``g`` is the ``g``-th pattern of the map (its insertion order).
    ``keys`` holds one ascending key ``(g·kmax + position)·n + vertex``
    per domain member, so each (group, position) cell is one contiguous
    run; ``support[g]`` is the smallest of group ``g``'s ``sizes[g]`` cell
    sizes and ``frozen[g]`` whether short-circuit counting stopped it.
    A part's state also carries ``rows``, its rows' pattern hashes in row
    order (``None`` on a reduced state).
    """

    __slots__ = ("hashes", "sizes", "keys", "frozen", "support", "kmax", "n", "rows")

    def __init__(
        self,
        hashes: np.ndarray,
        sizes: np.ndarray,
        keys: np.ndarray,
        frozen: np.ndarray,
        kmax: int,
        n: int,
    ) -> None:
        #: ``uint64`` pattern hash per group.
        self.hashes = hashes
        #: Vertex count per group.
        self.sizes = sizes
        self.keys = keys
        self.frozen = frozen
        self.kmax = kmax
        self.n = n
        #: ``uint64`` pattern hash per mapped row (a part's state only).
        self.rows: np.ndarray | None = None
        groups = hashes.shape[0]
        counts = np.bincount(keys // n, minlength=groups * kmax).reshape(groups, kmax)
        counts[np.arange(kmax) >= sizes[:, None]] = _NEVER
        self.support = counts.min(axis=1)

    def __reduce__(self):
        # A checkpoint pickles the defining arrays: ``support`` is rebuilt
        # from them and ``rows`` is part output, never in a reduced map.
        return MNIState, (self.hashes, self.sizes, self.keys, self.frozen, self.kmax, self.n)

    @property
    def nbytes(self) -> int:
        """The state's domain array bytes (``rows`` excluded)."""
        return sum(
            getattr(self, name).nbytes for name in ("hashes", "sizes", "keys", "frozen", "support")
        )

    def group_keys(self, group: int) -> np.ndarray:
        """Group ``group``'s keys (a view of its contiguous run)."""
        span = self.kmax * self.n
        lo, hi = np.searchsorted(self.keys, [group * span, (group + 1) * span]).tolist()
        return self.keys[lo:hi]

    def domains(self, group: int) -> list[set[int]]:
        """Group ``group``'s per-position vertex sets, materialised."""
        keys = self.group_keys(group) - group * self.kmax * self.n
        position, vertex = np.divmod(keys, self.n)
        return [set(vertex[position == p].tolist()) for p in range(int(self.sizes[group]))]

    def publish(self, pmap: dict) -> None:
        """Fill ``pmap`` with one :class:`MNIDomains` view per group, in
        group order."""
        views = [MNIDomains(self, group) for group in range(self.hashes.shape[0])]
        pmap.update(zip(self.hashes.tolist(), views))


class MNIDomains:
    """Read-only view of one pattern's domains in an :class:`MNIState`."""

    __slots__ = ("state", "group")

    def __init__(self, state: MNIState, group: int) -> None:
        self.state = state
        self.group = group

    @property
    def support(self) -> int:
        """Current (possibly short-circuited lower-bound) support."""
        return int(self.state.support[self.group])

    @property
    def frozen(self) -> bool:
        """True once the short-circuit threshold was reached."""
        return bool(self.state.frozen[self.group])

    @property
    def domains(self) -> list[set[int]]:
        """Per-position vertex sets (built on each access)."""
        return self.state.domains(self.group)

    @property
    def nbytes(self) -> int:
        """This pattern's share of the state: its keys and its per-group
        entries (hash, size, support and flag: 25 bytes)."""
        return self.state.group_keys(self.group).nbytes + 25

    def __eq__(self, other: object) -> bool:
        """Value equality over the domains and the ``frozen`` flag, with any
        object that has both (the set-based baseline class included)."""
        domains = getattr(other, "domains", None)
        if domains is None:
            return NotImplemented
        return self.domains == domains and self.frozen == getattr(other, "frozen", None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MNIDomains(support={self.support}, frozen={self.frozen})"


def mni_state(pmap: dict) -> MNIState | None:
    """The state behind a pattern map's views (``None`` when empty)."""
    for dom in pmap.values():
        return dom.state
    return None


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
    width = max((int(slot.max()) + 1 for _, slot, _ in found), default=0)
    index = np.zeros((codes.shape[0], width, kmax), dtype=np.intp)
    valid = np.zeros((codes.shape[0], width, kmax), dtype=bool)
    for owner, slot, q in found:
        index[owner, slot, : q.shape[1]] = q
        valid[owner, slot, : q.shape[1]] = True
    return index, valid, canon


def distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first_rows, inverse)``: the first row of each distinct code, in
    first-appearance order, and each row's index into it.

    Each row packs into one int64, a mixed radix over its columns'
    observed ranges, and :func:`first_occurrences` dedups the packed keys;
    only when the radix product times the row count reaches 2^63 do the
    rows take a ``lexsort``.
    """
    rows = codes.shape[0]
    if rows == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    # Reductions along a contiguous transposed copy, not down the columns.
    columns = np.ascontiguousarray(codes.T, dtype=np.int64)
    lows = columns.min(axis=1).tolist()
    spans = [high - low + 1 for low, high in zip(lows, columns.max(axis=1).tolist())]
    radix = 1
    for span in spans:
        radix *= span
    if radix * rows < _PACK_BOUND:
        packed = np.zeros(rows, dtype=np.int64)
        for column, low, span in zip(columns, lows, spans):
            if span > 1:
                packed *= span
                packed += column - low
        unique, firsts = first_occurrences(packed)
        inverse = np.searchsorted(unique, packed)
    else:
        order = np.lexsort(columns)
        ordered = codes[order]
        new = np.ones(rows, dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
        # lexsort is stable, so each run starts at its code's first row.
        firsts = order[new]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
    rank = np.argsort(firsts)
    remap = np.empty_like(rank)
    remap[rank] = np.arange(rank.shape[0])
    return firsts[rank], remap[inverse]


def _steps_by_cell(cell: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``steps`` sorted ascending within each run of the ascending ``cell``
    array: one ``np.sort`` of ``cell·S + step`` (``S`` one past the largest
    step) while that stays below 2^63, a ``lexsort`` beyond."""
    span = int(steps.max()) + 1
    if (int(cell[-1]) + 1) * span >= _PACK_BOUND:
        return steps[np.lexsort((steps, cell))]
    offset = cell * span
    packed = offset + steps
    packed.sort()
    packed -= offset
    return packed


def _settle(
    hashes: np.ndarray,
    sizes: np.ndarray,
    keys: np.ndarray,
    steps: np.ndarray,
    n: int,
    kmax: int,
    threshold: int | None,
) -> MNIState:
    """The :class:`MNIState` of distinct ascending ``keys`` first seen at
    ``steps``.

    With a ``threshold``, a group freezes at the first step by which every
    one of its positions holds ``threshold`` vertices — the largest
    per-position ``threshold``-th first step — and then holds exactly the
    vertices first seen by that step.
    """
    cell = keys // n
    stop = np.full(hashes.shape[0], _NEVER, dtype=np.int64)
    if threshold is not None and keys.shape[0]:
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        counts = np.diff(np.r_[starts, cell.shape[0]])
        kth = np.full(starts.shape[0], _NEVER, dtype=np.int64)
        reached = counts >= threshold
        kth[reached] = _steps_by_cell(cell, steps)[starts[reached] + threshold - 1]
        run_group = cell[starts] // kmax
        heads = np.flatnonzero(np.r_[True, run_group[1:] != run_group[:-1]])
        at = run_group[heads]
        stop[at] = np.maximum.reduceat(kth, heads)
    frozen = stop < _NEVER
    if frozen.any():
        keys = keys[steps <= stop[cell // kmax]]
    return MNIState(hashes, sizes, keys, frozen, kmax, n)


def fold_mni_block(
    ctx,
    block: np.ndarray,
    pmap: dict,
    encode: BlockEncoder,
    threshold: int | None,
    hash_every_embedding: bool = False,
) -> None:
    """Fold one part's embeddings into a fresh :class:`MNIState` and
    publish its views in ``pmap`` (nothing for an empty part).

    Equal, domains and ``frozen`` flags alike, to calling the set-based
    ``MNIDomains.add`` for every automorphic placement of every row in
    order.  One :func:`canonical_placements` call per slab places its
    distinct codes and groups them into isomorphism classes by canonical
    code; classes are numbered part-wide in first-sighting order.  Every
    placed vertex becomes a packed key ``(class·kmax + position)·n +
    vertex``, and :func:`first_occurrences` over each slab's keys in (row,
    placement) order yields each distinct key's first step (the per-slab
    dedup shrinks a slab's placed keys to its heads before they are held
    for the part).  After the slabs, the part's classes' canonical rows
    are hashed in one ``ctx.hash_codes`` call (or once per row under
    ``hash_every_embedding``), and a group — a pattern hash numbered in
    first-appearance order over the classes, so ``pmap`` keeps its
    insertion order — replaces the class in each key; that renumbering is
    the identity unless two classes share a hash.  One more :func:`first_occurrences` over the part's
    heads gives the state's keys, which :func:`_settle` trims at each
    group's short-circuit freeze step.

    The state's ``rows`` holds each row's pattern hash (``uint64``); its
    key count is the number of set insertions the per-row fold would have
    made.
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
        # Flat position (row·width + placement)·kmax + position of each
        # placed vertex; its step is the (row, placement) part.
        placed = np.flatnonzero(valid[inverse])
        keys, first = first_occurrences(keys.reshape(-1)[placed])
        head_keys.append(keys)
        head_steps.append(step_base + placed[first] // kmax)
        step_base += rows * width
    codes = list(classes)
    if hash_every_embedding:
        cls_hash = []
        for code, count in zip(codes, np.bincount(row_cls, minlength=len(codes)).tolist()):
            pattern = Pattern.from_code(code, kmax)
            for _ in range(count):
                phash = ctx.hash_pattern(pattern)
            cls_hash.append(phash)
    elif codes:
        cls_hash = ctx.hash_codes(np.array(codes, dtype=np.int64), kmax).tolist()
    else:
        cls_hash = []
    group_k: dict[int, int] = {}  # group hash -> vertex count, in group order
    for code, phash in zip(codes, cls_hash):
        group_k.setdefault(phash, code[0])
    group_of = {phash: group for group, phash in enumerate(group_k)}
    cls_group = np.array([group_of[phash] for phash in cls_hash], dtype=np.int64)
    np.take(np.array(cls_hash, dtype=np.uint64), row_cls, out=row_hashes)
    del row_cls  # not held through the part-wide dedup below
    if not head_keys:
        return
    keys = np.concatenate(head_keys)
    steps = np.concatenate(head_steps)
    if len(group_k) < len(codes):
        # Classes that share a hash share domains: renumber their keys by
        # group, and order by step so each key keeps its earliest one.
        cell = keys // n
        keys = (cls_group[cell // kmax] * kmax + cell % kmax) * n + keys % n
        order = np.argsort(steps, kind="stable")
        keys, steps = keys[order], steps[order]
    # Slabs come in step order, so each key's first index is its first step.
    keys, first = first_occurrences(keys)
    state = _settle(
        np.array(list(group_k), dtype=np.uint64),
        np.array(list(group_k.values()), dtype=np.int64),
        keys,
        steps[first],
        n,
        kmax,
        threshold,
    )
    state.rows = row_hashes
    state.publish(pmap)


def reduce_domains(pmaps: list[dict], threshold: int | None) -> dict:
    """Merge the parts' pattern maps into one, in one array pass.

    Equal — domains, ``frozen`` flags and insertion order — to folding
    the parts in order with the set-based pairwise merge (a group's first
    part's domains, then each later part's unioned in until the group
    freezes).  Groups are numbered in first-appearance order over the
    parts, in part order (:func:`distinct_rows` over the parts' hashes);
    each part's keys are renumbered to them and concatenated with the part index as the step, and
    :func:`first_occurrences` gives each key's first part.  A group stops
    taking keys after the first part by which the union reaches
    ``threshold`` at every position (:func:`_settle`).  The set merge also
    freezes a group at the first part whose own domains were frozen, but
    such a part already holds ``threshold`` vertices at every position,
    so the union has reached it by then: the parts' ``frozen`` flags add
    nothing.  In exact mode (``threshold=None``) nothing freezes and the
    result is the plain union.
    """
    parts = [(p, state) for p, state in enumerate(map(mni_state, pmaps)) if state is not None]
    if not parts:
        return {}
    # One level's parts: every state has the level's kmax and the graph's n.
    kmax, n = parts[0][1].kmax, parts[0][1].n
    hashes = np.concatenate([state.hashes for _, state in parts])
    heads, number = distinct_rows(hashes.view(np.int64)[:, None])
    shifted, part_of = [], []
    offset = 0
    for p, state in parts:
        group = number[offset : offset + state.hashes.shape[0]]
        offset += state.hashes.shape[0]
        # Move each key by its group's shift: (g - own)·kmax·n.
        shift = (group - np.arange(group.shape[0])) * (kmax * n)
        shifted.append(state.keys + shift[state.keys // (kmax * n)])
        part_of.append(np.full(state.keys.shape[0], p, dtype=np.int64))
    # Parts are concatenated in order, so each key's first index is in
    # its first part.
    keys, first = first_occurrences(np.concatenate(shifted))
    merged = _settle(
        hashes[heads],
        np.concatenate([state.sizes for _, state in parts])[heads],
        keys,
        np.concatenate(part_of)[first],
        n,
        kmax,
        threshold,
    )
    reduced: dict = {}
    merged.publish(reduced)
    return reduced


def frequent_mask(
    hashes: list[np.ndarray], reduced: dict, support: int
) -> np.ndarray | None:
    """Keep-mask of the rows whose pattern hash is frequent in ``reduced``
    (``None`` when every row is kept) — the FSM apps' ``prune``."""
    state = mni_state(reduced)
    if state is None:
        frequent = np.zeros(0, dtype=np.uint64)
    else:
        frequent = np.sort(state.hashes[state.support >= support])
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
