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
The short-circuit saves time as well as memory: once a pattern class's
domains in a part reach the threshold at the end of a slab, the fold
still classifies its later rows (their groups feed ``prune``) but places
none of their vertices.

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

Placements come from a batched canonicaliser
(:func:`canonical_placements`), which finds every distinct code's
canonical witness and automorphic placements with array operations over a
fixed permutation table, and also returns each code's canonical code.
The fold memoises its result per part, so each distinct raw code is
canonicalised once per part: a slab sends only the codes no earlier slab
brought.

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
    "frequent_patterns",
    "SLAB_ROWS",
    "CANON_CELLS",
]

#: Rows per slab of :func:`fold_mni_block`: bounds its ``rows ×
#: placements × positions`` key temporaries whatever the part size (about
#: 265 B per slab row on 2-edge FSM).  The encoders cost per row; each
#: slab also pays fixed costs — a :func:`distinct_rows` pass, a memo
#: lookup whose unseen codes go through :func:`canonical_placements`, a
#: head dedup and a freeze count — so small slabs pay those too often and
#: large ones outgrow the cache.  Fold times of captured parts (medians
#: of 15-25 interleaved rounds, support 3, 2-core x86 box) at 4 / 8 / 16
#: Ki rows: ``fsm3-mem``'s seed-7 72,217-row 2-edge part 38.8-40.2 /
#: 32.8-34.4 / 34.8-35.3 ms (2 Ki: 51.7, 6 Ki: 34.6-36.3, 12 Ki:
#: 32.4-33.8, 32 Ki: 40.8); its 70,416-row 3-vertex vFSM part 44.9 / 39.4
#: / 43.5 ms; ``service-mix``'s 25,888-row part 13.3-16.7 / 13.0-17.2 /
#: 18.1 ms.  8 Ki is the best or within noise of it everywhere, and
#: end to end (``perf/run.py --seed 7``, 3 runs each) ``fsm3-mem`` takes
#: 33.1 / 31.5 / 30.4 ms at 4 / 6 / 8 Ki rows for 53.8 / 54.0 / 54.3 MB
#: peak RSS, and ``service-mix`` 31.4 / 31.0 / 30.5 ms.
SLAB_ROWS = 8192

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
    A part's state also carries ``rows``, its rows' groups in row order
    (``None`` on a reduced state).
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
        #: ``np.intp`` group per mapped row (a part's state only):
        #: ``hashes[rows]`` are the rows' pattern hashes.
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

    def select(self, keep: np.ndarray) -> "MNIState":
        """The state of the groups ``keep`` marks (a ``bool`` per group),
        renumbered in group order; each kept group's keys, size, flag and
        support are unchanged."""
        span = self.kmax * self.n
        group = self.keys // span
        kept = keep[group]
        group = group[kept]
        renumber = np.cumsum(keep) - 1
        keys = self.keys[kept] - (group - renumber[group]) * span
        return MNIState(
            self.hashes[keep], self.sizes[keep], keys, self.frozen[keep], self.kmax, self.n
        )

    def without_rows(self) -> "MNIState":
        """This state's arrays, shared, under a state whose ``rows`` is
        ``None``."""
        state = MNIState.__new__(MNIState)
        for name in MNIState.__slots__:
            setattr(state, name, getattr(self, name))
        state.rows = None
        return state

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


class _CodeMemo:
    """A part's memo from raw code row to its isomorphism class and its
    placement rows (:func:`canonical_placements`' ``index`` and ``valid``
    rows, padded to the widest automorphism group seen so far).

    Raw codes are keyed by their row bytes; classes by canonical code row,
    numbered in first-sighting order, so ``classes`` lists their canonical
    rows in class order.  The per-row arrays grow by doubling.
    """

    def __init__(self, kmax: int) -> None:
        self.kmax = kmax
        self.rows: dict[bytes, int] = {}
        self.classes: dict[tuple, int] = {}
        #: Per memo row (the first ``len(rows)`` entries): class,
        #: placement count, placement rows.
        self.cls = np.zeros(0, dtype=np.intp)
        self.width = np.zeros(0, dtype=np.intp)
        self.index = np.zeros((0, 0, kmax), dtype=np.intp)
        self.valid = np.zeros((0, 0, kmax), dtype=bool)
        #: Per class: vertex count.
        self.sizes = np.zeros(0, dtype=np.int64)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """The memo row of each of the distinct ``codes``; only codes not
        seen before go through :func:`canonical_placements`, in order."""
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        raw = codes.view(np.dtype((np.void, codes.shape[1] * 8))).ravel().tolist()
        seen = len(self.rows)
        at = np.array([self.rows.setdefault(code, len(self.rows)) for code in raw], dtype=np.intp)
        if len(self.rows) > seen:
            # Unseen codes were numbered seen, seen + 1, ... in order.
            index, valid, canon = canonical_placements(codes[at >= seen], self.kmax)
            classes = self.classes
            cls = [classes.setdefault(tuple(code), len(classes)) for code in canon.tolist()]
            self.sizes = _grow(self.sizes, len(self.classes))
            self.sizes[cls] = canon[:, 0]
            self._reserve(len(self.rows), index.shape[1])
            self.cls[seen : len(self.rows)] = cls
            self.width[seen : len(self.rows)] = valid[:, :, 0].sum(axis=1)
            self.index[seen : len(self.rows), : index.shape[1]] = index
            self.valid[seen : len(self.rows), : index.shape[1]] = valid
        return at

    def _reserve(self, rows: int, width: int) -> None:
        """Room for ``rows`` memo rows of up to ``width`` placements."""
        held, wide = self.index.shape[:2]
        if rows <= held and width <= wide:
            return
        capacity = max(rows, 2 * held) if rows > held else held
        cls = np.zeros(capacity, dtype=np.intp)
        cls[:held] = self.cls
        counts = np.zeros(capacity, dtype=np.intp)
        counts[:held] = self.width
        index = np.zeros((capacity, max(width, wide), self.kmax), dtype=np.intp)
        index[:held, :wide] = self.index
        valid = np.zeros(index.shape, dtype=bool)
        valid[:held, :wide] = self.valid
        self.cls, self.width, self.index, self.valid = cls, counts, index, valid


def _grow(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` extended with zeros to ``size`` entries."""
    extra = size - array.shape[0]
    return array if extra == 0 else np.concatenate([array, np.zeros(extra, dtype=array.dtype)])


class _FreezeCounts:
    """Per (class, position) distinct-vertex counts of a part's heads, and
    which classes they froze: every position below the class's vertex
    count holds ``threshold`` vertices.

    Only cells below ``threshold`` need their keys to dedup later heads
    against, so ``open`` holds at most ``threshold - 1`` keys per cell.
    Slabs' heads wait until they outnumber ``open`` and are then counted
    together, so each key is merged into ``open`` a logarithmic number of
    times however many slabs the part has; a class freezes at most that
    late, which only places a few more rows than needed.
    """

    def __init__(self, threshold: int, kmax: int, n: int) -> None:
        self.threshold = threshold
        self.kmax = kmax
        self.n = n
        self.counts = np.zeros(0, dtype=np.int64)
        self.open = np.zeros(0, dtype=np.int64)
        self.frozen = np.zeros(0, dtype=bool)
        self.waiting: list[np.ndarray] = []

    def add(self, heads: np.ndarray, sizes: np.ndarray) -> None:
        """Take a slab's distinct keys; ``sizes`` is every class's vertex
        count so far."""
        self.waiting.append(heads)
        if sum(keys.shape[0] for keys in self.waiting) < self.open.shape[0]:
            return
        heads = np.unique(np.concatenate(self.waiting)) if len(self.waiting) > 1 else heads
        self.waiting = []
        cells = sizes.shape[0] * self.kmax
        self.counts = _grow(self.counts, cells)
        heads = heads[self.counts[heads // self.n] < self.threshold]
        if self.open.shape[0] and heads.shape[0]:
            at = np.searchsorted(self.open, heads)
            np.minimum(at, self.open.shape[0] - 1, out=at)
            heads = heads[self.open[at] != heads]
        self.counts += np.bincount(heads // self.n, minlength=cells)
        merged = np.concatenate([self.open, heads])
        merged.sort()
        self.open = merged[self.counts[merged // self.n] < self.threshold]
        full = self.counts.reshape(-1, self.kmax) >= self.threshold
        self.frozen = np.all(full | (np.arange(self.kmax) >= sizes[:, None]), axis=1)

    def live(self, cls: np.ndarray, classes: int) -> np.ndarray | None:
        """Indices of the rows whose class (of ``classes`` so far) has not
        frozen, or ``None`` when none has; a class first seen after the
        last ``add`` is live."""
        if not self.frozen.any():
            return None
        return np.flatnonzero(~_grow(self.frozen, classes)[cls])


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

    ``block`` is the whole part, mapped in one call: a non-empty
    ``pmap`` raises ``ValueError``.

    Equal, domains and ``frozen`` flags alike, to calling the set-based
    ``MNIDomains.add`` for every automorphic placement of every row in
    order.  Each distinct raw code is canonicalised once per part: a
    part-wide memo maps it to its isomorphism class (by canonical code;
    classes are numbered in first-sighting order) and its placement rows,
    and only a slab's unseen codes go through :func:`canonical_placements`.
    Every placed vertex becomes a packed key ``(class·kmax + position)·n +
    vertex``, and :func:`first_occurrences` over each slab's keys in (row,
    placement) order yields each distinct key's first step (the per-slab
    dedup shrinks a slab's placed keys to its heads before they are held
    for the part).  A slab's steps run over its own widest placement
    count, after the earlier slabs' steps, so they ascend in (row,
    placement) order across the part.

    With a ``threshold``, each slab's heads also count distinct vertices
    per (class, position); once a class holds ``threshold`` at each of
    its positions, its rows in later slabs get their class but are not
    placed.  This drops no key the state keeps: classes that share a hash
    share one vertex count, so the class's group holds ``threshold``
    vertices at each of its positions by then too, and :func:`_settle`
    trims every key first seen after the group's freeze step.

    After the slabs, the part's classes' canonical rows are hashed in one
    ``ctx.hash_codes`` call (or once per row under
    ``hash_every_embedding``), and a group — a pattern hash numbered in
    first-appearance order over the classes, so ``pmap`` keeps its
    insertion order — replaces the class in each key; that renumbering is
    the identity unless two classes share a hash.  One more
    :func:`first_occurrences` over the part's heads gives the state's
    keys, which :func:`_settle` trims at each group's short-circuit
    freeze step.

    The state's ``rows`` holds each row's group (``np.intp``, so
    ``hashes[rows]`` are the rows' pattern hashes); its key count is the
    number of set insertions the per-row fold would have made.
    """
    if pmap:
        raise ValueError(
            "fold_mni_block maps a whole part in one call: its pattern map "
            f"already holds {len(pmap)} patterns"
        )
    rows_total = block.shape[0]
    n = ctx.graph.num_vertices
    memo: _CodeMemo | None = None
    freeze: _FreezeCounts | None = None
    row_cls = np.empty(rows_total, dtype=np.intp)
    head_keys: list[np.ndarray] = []
    head_steps: list[np.ndarray] = []
    step_base = 0
    kmax = 0
    for start in range(0, rows_total, SLAB_ROWS):
        verts, codes = encode(block[start : start + SLAB_ROWS])
        rows, kmax = verts.shape
        if memo is None:
            memo = _CodeMemo(kmax)
            freeze = None if threshold is None else _FreezeCounts(threshold, kmax, n)
        first_rows, inverse = distinct_rows(codes)
        at = memo.lookup(codes[first_rows])[inverse]
        cls = row_cls[start : start + rows] = memo.cls[at]
        live = None if freeze is None else freeze.live(cls, memo.sizes.shape[0])
        if live is not None:
            verts, at, cls = verts[live], at[live], cls[live]
            rows = live.shape[0]
            if rows == 0:
                continue
        # One gather places the slab's live rows; padded cells are masked.
        width = int(memo.width[at].max())
        keys = verts[np.arange(rows)[:, None, None], memo.index[:, :width][at]]
        keys += (cls[:, None, None] * kmax + np.arange(kmax)) * n
        # Flat position (row·width + placement)·kmax + position of each
        # placed vertex; its step is the (row, placement) part.
        placed = np.flatnonzero(memo.valid[:, :width][at])
        # Rebinding frees the slab's whole key array before the dedup copies.
        keys = keys.reshape(-1)[placed]
        keys, first = first_occurrences(keys)
        head_keys.append(keys)
        head_steps.append(step_base + placed[first] // kmax)
        step_base += rows * width
        if freeze is not None:
            freeze.add(keys, memo.sizes)
    codes = [] if memo is None else list(memo.classes)
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
    cls_group = np.array([group_of[phash] for phash in cls_hash], dtype=np.intp)
    # Each row's class becomes its group, in place: the state's ``rows``.
    np.take(cls_group, row_cls, out=row_cls)
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
    state.rows = row_cls
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

    With one non-empty part that merge is the identity — its groups are
    already numbered in first-appearance order, its keys distinct and
    sorted, and a group whose every position holds ``threshold`` vertices
    is one its fold froze — so the part's state is returned as it is,
    without ``rows``.
    """
    parts = [(p, state) for p, state in enumerate(map(mni_state, pmaps)) if state is not None]
    if not parts:
        return {}
    reduced: dict = {}
    if len(parts) == 1:
        parts[0][1].without_rows().publish(reduced)
        return reduced
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
    merged.publish(reduced)
    return reduced


def frequent_patterns(reduced: dict, support: int) -> dict:
    """Listing 1's PatternFilter over a reduced map: the map of its
    patterns with support ``>= support`` (``reduced`` itself when every
    pattern is)."""
    state = mni_state(reduced)
    if state is None:
        return reduced
    frequent = state.support >= support
    if frequent.all():
        return reduced
    out: dict = {}
    state.select(frequent).publish(out)
    return out


def frequent_mask(
    parts: list[tuple[np.ndarray, np.ndarray]], reduced: dict, support: int
) -> np.ndarray | None:
    """Keep-mask of the parts' rows, in part order, whose pattern is
    frequent in ``reduced`` (``None`` when every row is kept) — the FSM
    apps' ``prune``.

    Each part is ``(hashes, rows)`` of its :class:`MNIState`: its groups'
    pattern hashes and each row's group.  A part's groups are tested
    against the frequent hashes, then gathered by row.
    """
    state = mni_state(reduced)
    if state is None:
        frequent = np.zeros(0, dtype=np.uint64)
    else:
        frequent = state.hashes[state.support >= support]
    kept = [np.isin(hashes, frequent) for hashes, _ in parts]
    if all(keep.all() for keep in kept):
        return None
    return np.concatenate([keep[rows] for keep, (_, rows) in zip(kept, parts)])
