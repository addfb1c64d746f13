"""Vectorized expansion kernel over the graph's CSR arrays.

The exploration hot loop — expand every embedding of the CSE's top level
by one vertex/edge under the Definition-2 canonical filter — runs here
as *block* operations rather than per-embedding Python loops over
``frozenset`` adjacency: a part's embeddings arrive
as one 2-D ``(rows, k)`` integer array (decoded straight from the CSE
``off``/``vert`` arrays by :meth:`repro.core.cse.CSE.decode_block`), all
candidates are generated with CSR gathers (``np.repeat`` +
cumulative-sum index arithmetic), and the canonical filter becomes
bounds on those gathers plus boolean masks over the flat ``(row,
candidate)`` pair arrays.

There is **one** kernel, :func:`expand_block`, for both exploration
modes: vertex and edge expansion are the same bounded set operation over
sorted CSR lists, and only the lists differ.  Each embedding contributes
``arity`` *gather columns* per entry — its vertices' neighbor lists
(vertex mode, arity 1) or its edges' endpoints' incident-edge lists
(edge mode, arity 2) — and the context object picks the CSR and its
packed sorted view (``Graph.adjacency_keys()`` /
``EdgeIndex.incident_keys()``).  The canonical clauses then read:

* **min-id and suffix order, fused into the gather** — gather column
  ``c`` only admits candidates ``>= max(block[:, 0] + 1, suffix_max[:,
  c // arity + 1])``, i.e. the clauses assuming ``c`` is the candidate's
  first adjacency.  One ``searchsorted`` into the packed view per
  column (:func:`gather_bounds`) moves each list's start past the
  ruled-out candidates, so they are never materialised;
* **dedup + first adjacency** — one sort of packed ``key = row << (vb
  + cb) | candidate << cb | column`` keys, with ``vb =
  bit_length(modulus - 1)`` and ``cb = bit_length(width - 1)``, dedups
  the pairs, reproduces the scalar loops' ``sorted(candidate set)``
  emission order, and leaves each head carrying its smallest
  *surviving* source column.  Every field is a shift and a mask away
  (pair ``key >> cb``, row ``pair >> vb``, candidate ``pair & (2^vb -
  1)``, column ``key & (2^cb - 1)``); no pair pays a division.  The key
  dtype is ``id_dtype(rows << (vb + cb))``: ``int32`` whenever the
  chunk's keys fit (numpy sorts it about twice as fast as ``int64``),
  ``int64`` past that, and ``OverflowError`` rather than a silent wrap
  past ``int64``.  No ``np.unique`` (whose hash-based implementation in
  recent numpy is an order of magnitude slower than a plain sort at
  these sizes);
* **membership** — the candidate is not already in the embedding (the
  embedding's ids packed as ``row << vb | id``, searched into the
  heads);
* **first-adjacency verification** — the bounds are non-increasing in
  ``c``, so a head whose true first adjacency ``f`` was pruned is
  exactly a suffix-order violation at ``f``; one packed-key
  ``searchsorted`` membership test per earlier column rejects those
  heads.  Only heads below the column's bound are probed: had a column
  of arrival ``j`` held a head ``x >= lower[j + 1]`` (its bound), its
  bounded slice would have gathered ``x`` and made ``x``'s first
  surviving arrival at most ``j``, so a head of a later first arrival
  at or above the bound cannot hit.  In edge mode a head that an
  arrival's first column rejects is not probed in its second.  Emitted
  levels are therefore *bit-identical* to the scalar oracle
  (oracle-differential and property-tested), while
  ``candidates_examined`` counts only the deduped pairs that survived
  the bounds;
* **adjacency mask** — the same sorted runs give each emitted
  candidate a bitmask of the gather columns whose lists hold it (the
  OR of ``1 << column`` over its group of the sort), and the chunk
  kernel returns it beside the pairs, cut by the same member,
  verification and filter masks.  In vertex mode that is the
  candidate's adjacency to the embedding's vertices, so the motif mapper
  reads its extension bits instead of probing every pair again.  The
  mask is exact although the gathers were bounded.  Take a surviving
  head whose first surviving column is ``f``: the verification found
  that no column before ``f`` holds it (by a probe, or by the bound
  that makes a probe needless), and for ``c >= f`` the bound ``lb_c =
  max(v0 + 1, max(block[c+1:]))`` does not increase with ``c``, so a
  candidate ``>= lb_f`` is in column ``c``'s bounded slice exactly when
  it is in that column's whole list.
  Edge mode bounds per arrival (``c // 2``) and verifies per arrival,
  and the same argument holds column by column.

**Pattern gather.** A level of a complete, uniformly labelled query
pattern (clique discovery, triangle counting, matching K_k) arrives with
a :class:`~repro.core.restrictions.PatternGather` ``(required_cols,
bound_cols)`` from its plan and takes one branch instead of the clauses
above.  Each row's lower bound is ``max(block[:, bound_cols]) + 1``;
one ``searchsorted`` per required column finds that bound in the
column's neighbor list, and only the *shortest* surviving tail is
gathered (``PAIR_BUDGET`` chunks cut from the exact tail lengths).  Each
candidate is then ``_in_packed``-probed against the other required
columns.  There is no union, no dedup and no verification pass: one
sorted source list has no duplicates and is already ascending per row.
For these patterns pattern-order bindings are the canonical embeddings,
so the emitted level is byte-identical to the generic clauses followed
by an all-adjacent filter, while ``candidates_examined`` counts only
the one tail per row.

**The length oracle.** :func:`gather_bounds` is the one source of
per-row lengths: the bounded slice of every gather column (under a
pattern gather, of every required column), so a row's length is exactly
the pairs the kernel gathers for it and an upper bound on its emitted
children.  The kernel gathers those slices and cuts its ``PAIR_BUDGET``
chunks from their lengths, the motif mappers cut their slabs from them,
and the planner reads them as its candidate-size prediction
(:func:`repro.balance.predict.predict_costs`): the guard, the next
level's predicted size and the balanced part cuts.

The application's **block filter** (Listing 1's ``EmbeddingFilter``, see
:data:`repro.core.api.BlockFilter`) runs last, over the ``(row,
candidate)`` pairs that survived the canonical clauses (or the pattern
probe), and returns one boolean keep-mask per chunk — so filtered
applications (FSM, pattern matching) expand on the same kernel as
unfiltered ones.

Dispatch (:func:`repro.core.explore.expand_vertex_level`): every level
is block-decodable — resident, or spilled and served through ``mmap`` —
so the kernel runs on every level.  Its parity oracle, the
per-embedding scalar loops calling the same block filter with one-row
blocks, lives with the tests and swaps in through the executor seam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .restrictions import PatternGather

__all__ = [
    "id_dtype",
    "DEFAULT_ID_DTYPE",
    "VertexKernelContext",
    "EdgeKernelContext",
    "vertex_kernel_context",
    "edge_kernel_context",
    "expand_block",
    "expand_chunks",
    "gather_bounds",
    "call_block_filter",
]

#: Gathered ``(row, candidate)`` pairs per internal chunk.  Chunks are cut
#: from the exact per-row gather lengths (:func:`gather_bounds`), so the
#: transient pair arrays (about eight temporaries per pair, ``int32``
#: where the chunk's dedup keys fit) stay
#: bounded however large a part the planner cut and however skewed the
#: degrees — a row cap would not bound them: one hub in every row gathers
#: its whole neighbor list per row.  A single row whose own length
#: exceeds the budget still runs, alone.  Measured with ``perf/run.py
#: --seed 7 --seconds 3`` on a 2-core x86 box (two runs each), at 8 / 16
#: / 32 Ki pairs: ``motif4-mem`` runs in 34-39 / 33 / 34 ms at 48.9-49.5
#: / 48.9-49.1 / 49.8-50.0 MB RSS, ``motif4-threads`` in 43-44 / 36-38 /
#: 30-32 ms at 51.2-51.4 / 52.1-52.2 / 51.7-51.8 MB, and
#: ``explore4-spill`` in 0.29-0.36 / 0.31-0.35 / 0.31 s at 73.5 / 72.2 /
#: 70.7 MB; ``fsm3-mem`` (49-52 ms, 53.5-53.8 MB), ``clique4-filter``
#: (8.3-8.8 ms, 48.3 MB) and ``service-mix`` (50-53 ms, 53.1-53.7 MB) do
#: not move.  16 Ki is the serial motif op's best in time and RSS; 32 Ki
#: buys the threaded op fewer chunks to hand round under the GIL for
#: ~0.8 MB more serial RSS.
PAIR_BUDGET = 16_384

_INT32_MAX = int(np.iinfo(np.int32).max)


def id_dtype(count: int, boundary: int = _INT32_MAX) -> np.dtype:
    """Narrowest dtype for ids in ``range(count)``.

    ``boundary`` is the largest id count that still fits the narrow
    dtype; tests lower it to exercise the widening path without building
    a 2^31-entry graph.  Ids past ``int64`` raise ``OverflowError``
    rather than wrap.
    """
    if count > 1 << 63:
        raise OverflowError(f"ids in range({count}) do not fit int64")
    return np.dtype(np.int32) if count <= boundary else np.dtype(np.int64)


#: The id dtype of an empty id space — the canonical fallback wherever a
#: sink or level needs a dtype before any ids have been produced.  Using
#: this instead of a hard-coded ``np.int32`` keeps the selection logic in
#: exactly one place (and keeps rule R004 quiet).  The kernel emits in
#: ``out_dtype``, does its CSR-key arithmetic (bounds and probes) in
#: ``int64``, and picks its dedup keys' dtype with :func:`id_dtype` too.
DEFAULT_ID_DTYPE = id_dtype(0)


# ----------------------------------------------------------------------
# Kernel contexts: the read-only array bundles the kernel gathers from
# ----------------------------------------------------------------------
@dataclass
class VertexKernelContext:
    """Vertex-mode arrays for :func:`expand_block`."""

    indptr: np.ndarray
    indices: np.ndarray
    #: Packed sorted adjacency view (``u * n + w``, globally ascending):
    #: the kernel binary-searches its gather bounds and first-adjacency
    #: probes into it.
    adjacency_keys: np.ndarray
    num_vertices: int
    out_dtype: np.dtype

    kind = "vertex"
    #: Gather columns per embedding entry: one neighbor list per vertex.
    arity = 1

    def gather_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``(indptr, data, packed_keys, modulus)`` of the CSR the kernel
        gathers candidates from; ``modulus`` is the candidate id space."""
        return self.indptr, self.indices, self.adjacency_keys, self.num_vertices

    def gather_keys(self, block: np.ndarray) -> np.ndarray:
        """The CSR rows each embedding gathers: its own vertices."""
        return block

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized adjacency test: ``out[i]`` is whether ``(u[i], v[i])``
        is an edge — one binary search per pair into ``adjacency_keys``.

        The building block for block filters that need adjacency (clique
        closure, internal-degree bounds); ``u`` and ``v`` must be
        ``int64`` (what the kernel hands a filter) so the packed probe
        cannot overflow.
        """
        return _in_packed(self.adjacency_keys, self.num_vertices, u, v)


@dataclass
class EdgeKernelContext:
    """Edge-mode arrays for :func:`expand_block`."""

    edge_u: np.ndarray
    edge_v: np.ndarray
    #: Vertex → incident-edge CSR pair.
    inc_indptr: np.ndarray
    incident: np.ndarray
    #: Packed sorted incidence view (``w * m + edge_id``, globally
    #: ascending) — the edge analogue of ``adjacency_keys``.
    incident_keys: np.ndarray
    num_vertices: int
    num_edges: int
    out_dtype: np.dtype

    kind = "edge"
    #: Gather columns per embedding entry: both endpoints of each edge.
    arity = 2

    def gather_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Edge analogue of :meth:`VertexKernelContext.gather_view`."""
        return self.inc_indptr, self.incident, self.incident_keys, self.num_edges

    def gather_keys(self, block: np.ndarray) -> np.ndarray:
        """Columns ``(2j, 2j + 1)`` are the endpoints of the j-th
        embedding edge, so ``column // 2`` is the arrival position the
        edge-canonicality rule ranks by."""
        rows_total, k = block.shape
        ends = np.empty((rows_total, 2 * k), dtype=self.edge_u.dtype)
        ends[:, 0::2] = self.edge_u[block]
        ends[:, 1::2] = self.edge_v[block]
        return ends


def vertex_kernel_context(
    graph: Graph, out_dtype: np.dtype | None = None
) -> VertexKernelContext:
    """Build the vertex-mode array bundle from a graph.

    The packed views come from the graph's caches, so every context
    built from the same graph shares the same array objects.
    """
    return VertexKernelContext(
        indptr=graph.indptr,
        indices=graph.indices,
        adjacency_keys=graph.adjacency_keys(),
        num_vertices=graph.num_vertices,
        out_dtype=out_dtype if out_dtype is not None else graph.id_dtype,
    )


def edge_kernel_context(
    index: EdgeIndex, out_dtype: np.dtype | None = None
) -> EdgeKernelContext:
    """Build the edge-mode array bundle from an edge index."""
    inc_indptr, incident = index.incident_arrays()
    return EdgeKernelContext(
        edge_u=index.edge_u,
        edge_v=index.edge_v,
        inc_indptr=inc_indptr,
        incident=incident,
        incident_keys=index.incident_keys(),
        num_vertices=index.graph.num_vertices,
        num_edges=index.num_edges,
        out_dtype=out_dtype if out_dtype is not None else index.id_dtype,
    )


# ----------------------------------------------------------------------
# Gather and set helpers
# ----------------------------------------------------------------------
def _ranged_gather(
    starts: np.ndarray, ends: np.ndarray, data: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``data[starts[i]:ends[i]]`` for every slice.

    Returns ``(values, owner_per_value)`` where ``owners[i]`` tags every
    value gathered for slice ``i``.  This is the ``np.repeat`` +
    cumulative-offset trick that turns per-vertex adjacency walks into
    one flat gather; the kernel's lower bounds move each slice's *start*
    forward past the candidates the canonical order rules out.
    """
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return (
            np.zeros(0, dtype=data.dtype),
            np.zeros(0, dtype=owners.dtype),
        )
    cum = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=cum[1:])
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - cum[:-1], lengths)
    return data[flat], np.repeat(owners, lengths)


def _in_packed(
    packed: np.ndarray, modulus: int, keys: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``out[i]`` is whether ``values[i]`` is in CSR row ``keys[i]``:
    one binary search per pair into the packed ``key * modulus + value``
    view."""
    if packed.shape[0] == 0:
        return np.zeros(np.shape(keys), dtype=bool)
    probe = keys * modulus + values
    pos = np.searchsorted(packed, probe)
    np.minimum(pos, packed.shape[0] - 1, out=pos)
    return packed[pos] == probe


def _suffix_max(block: np.ndarray) -> np.ndarray:
    """``out[r, j] = max(block[r, j:])`` with an extra all ``-1`` column.

    ``out[r, f + 1]`` is then the largest embedding entry *after*
    position ``f`` — the suffix-order bound for a candidate whose first
    adjacency is at ``f``.
    """
    rows, k = block.shape
    out = np.full((rows, k + 1), -1, dtype=np.int64)
    for j in range(k - 1, -1, -1):
        np.maximum(block[:, j], out[:, j + 1], out=out[:, j])
    return out


def _canonical_lower(block64: np.ndarray) -> np.ndarray:
    """``lower[:, j + 1] = max(block[:, 0] + 1, max(block[:, j + 1:]))``,
    the gather bound of a column of arrival ``j``."""
    lower = _suffix_max(block64)
    np.maximum(lower, block64[:, :1] + 1, out=lower)
    return lower


def _mask_members(
    keep: np.ndarray, pair_ids: np.ndarray, block: np.ndarray, vb: int
) -> None:
    """Clear ``keep`` where the candidate is already in its embedding.

    ``pair_ids`` is the *sorted* packed ``row << vb | candidate`` array;
    the embedding ids re-packed the same way, in its dtype, are a much
    smaller set, so searching them into the candidates is ``rows * k``
    binary searches instead of a ``(pairs, k)`` comparison matrix.
    """
    emb_keys = block.astype(pair_ids.dtype)
    emb_keys |= np.arange(block.shape[0], dtype=pair_ids.dtype)[:, None] << vb
    emb_keys = emb_keys.reshape(-1)
    pos = np.searchsorted(pair_ids, emb_keys)
    np.minimum(pos, pair_ids.shape[0] - 1, out=pos)
    hits = pos[pair_ids[pos] == emb_keys]
    keep[hits] = False


def _dedup_heads(
    values: np.ndarray, owner: np.ndarray, rows_total: int, width: int, vb: int, cb: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort-dedup the gathered ``(row, candidate)`` pairs of one chunk.

    ``owner`` is the flat ``row * width + column`` position each value
    was gathered for, in the key dtype.  One sort of packed ``row << (vb
    + cb) | candidate << cb | column`` keys does three jobs at once: it
    (a) dedups the per-row candidate set, (b) orders candidates
    ascending within each row — the scalar loop's ``sorted(set)``
    emission order — and (c) leaves each group's *head* carrying the
    smallest source column; OR-ing each group's source columns gives
    its column bitmask.  Returns the heads as ``(pair_ids, rows, cands,
    first_column, columns)`` with ``pair_ids = row << vb | candidate``
    ascending and bit ``c`` of the ``int64`` ``columns`` set when column
    ``c`` gathered the candidate (columns past 63 are dropped from it;
    no reader of the mask has a block that wide).
    """
    # A (rows x width) table maps each owner to its key's row and column
    # fields, so no pair pays a division.
    bases = np.arange(rows_total, dtype=owner.dtype)[:, None] << (vb + cb)
    bases = (bases | np.arange(width, dtype=owner.dtype)).reshape(-1)
    keys = np.left_shift(values, cb, dtype=owner.dtype)
    keys |= bases[owner]
    keys.sort()
    cmask = (1 << cb) - 1
    pair_ids = keys >> cb
    head = np.empty(keys.shape, dtype=bool)
    head[0] = True
    np.not_equal(pair_ids[1:], pair_ids[:-1], out=head[1:])
    first = keys[head]
    heads = first >> cb
    first &= cmask
    # int64 masks whatever width the keys were packed at (NEP 50 keeps
    # an int32 key's shift int32).
    columns = np.left_shift(1, first, dtype=np.int64)
    # The few non-head members (a candidate more than one column
    # gathered) OR their column into their group's mask: the j-th of
    # them (from 0), at position p, follows p - j heads, so it belongs
    # to head p - j - 1.
    extra = np.flatnonzero(~head)
    if extra.shape[0]:
        bits = np.left_shift(1, keys[extra] & cmask, dtype=np.int64)
        extra -= np.arange(1, extra.shape[0] + 1)
        np.bitwise_or.at(columns, extra, bits)
    return heads, heads >> vb, heads & ((1 << vb) - 1), first, columns


def call_block_filter(
    block_filter, ctx, block64: np.ndarray, rows: np.ndarray, cands: np.ndarray
) -> np.ndarray:
    """The one place the application's block filter is invoked (once per
    kernel chunk), holding it to its contract: one ``bool`` per pair."""
    mask = np.asarray(block_filter(ctx, block64, rows, cands))
    if mask.dtype != np.bool_ or mask.shape != rows.shape:
        raise ValueError(
            f"block filter must return a bool mask of shape {rows.shape}, "
            f"got {mask.dtype} {mask.shape}"
        )
    return mask


def _pair_budget_chunks(row_pairs: np.ndarray):
    """Cut ``range(rows)`` into contiguous chunks of at most
    :data:`PAIR_BUDGET` gathered pairs (``row_pairs[r]`` is row ``r``'s
    gather length); a row over the budget on its own gets a chunk to
    itself."""
    prefix = np.cumsum(row_pairs)
    rows_total = prefix.shape[0]
    start = 0
    done = 0
    while start < rows_total:
        end = int(np.searchsorted(prefix, done + PAIR_BUDGET, side="right"))
        end = max(end, start + 1)
        yield start, end
        done = int(prefix[end - 1])
        start = end


# ----------------------------------------------------------------------
# The length oracle
# ----------------------------------------------------------------------
def gather_bounds(
    ctx: VertexKernelContext | EdgeKernelContext,
    block64: np.ndarray,
    keys64: np.ndarray,
    gather: "PatternGather | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The bounded slice ``[starts, ends)`` of every gather column: the
    positions of the gathered CSR's data array the kernel reads.

    Without ``gather`` (the canonical expansion) both arrays are
    ``(rows, k * arity)``, one column per column of the gather-key
    matrix ``keys64``, and column ``c``'s slice starts at its first
    neighbor ``>= lb_c`` (the min-id and suffix-order bounds), so
    ``(ends - starts).sum(axis=1)`` is exactly how many pairs each row
    gathers.  With a pattern ``gather`` they are ``(rows,
    len(required_cols))``: the required columns' tails past the row's
    bound, of which the row gathers the shortest.  The module
    docstring's "length oracle" lists the readers.

    The binary searches run one column at a time: a CSE level's columns
    are nearly ascending in storage order, and ``searchsorted`` is much
    cheaper on nearly sorted needles than on the row-major interleaving
    of all columns.
    """
    indptr, _, packed, modulus = ctx.gather_view()
    if gather is None:
        columns = keys64
        lower = _canonical_lower(block64)
        arrivals = (np.arange(columns.shape[1]) // ctx.arity + 1).tolist()
    else:
        columns = keys64[:, list(gather.required_cols)]
        lower = block64[:, list(gather.bound_cols)].max(axis=1, keepdims=True) + 1
        arrivals = [0] * columns.shape[1]
    ends = indptr[columns + 1].astype(np.int64, copy=False)
    starts = np.empty_like(ends)
    for c, j in enumerate(arrivals):
        starts[:, c] = np.searchsorted(packed, columns[:, c] * modulus + lower[:, j])
    np.minimum(starts, ends, out=starts)
    return starts, ends


def _canonical_slabs(ctx, block64: np.ndarray, keys64: np.ndarray):
    """``(lo, hi, bounds)`` per :data:`PAIR_BUDGET` chunk of the canonical
    gather, cut from the exact per-row lengths; ``bounds`` is the
    :func:`gather_bounds` pair of rows ``lo..hi``."""
    starts, ends = gather_bounds(ctx, block64, keys64)
    for lo, hi in _pair_budget_chunks((ends - starts).sum(axis=1)):
        yield lo, hi, (starts[lo:hi], ends[lo:hi])


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def expand_block(
    ctx: VertexKernelContext | EdgeKernelContext,
    block: np.ndarray,
    block_filter=None,
    pattern_gather: "PatternGather | None" = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Expand a block of same-length embeddings by one vertex or edge.

    ``block`` is ``(rows, k)``: row ``r`` is the vertex tuple (vertex
    context) or edge-id tuple (edge context) of one embedding.  Returns
    ``(vert, counts, candidates_examined)``; ``vert`` holds the emitted
    last ids in embedding order (candidates ascending within each row)
    and ``counts[r]`` how many row ``r`` emitted — both byte-identical
    to the per-embedding scalar Definition-2 loops given the same
    ``block_filter`` (a :data:`repro.core.api.BlockFilter`, applied to
    the canonical survivors of each chunk; an edge filter's candidates
    are edge ids, ``ctx.edge_u`` / ``ctx.edge_v`` give the endpoints).
    The fused bounds skip filtered candidates during the gather, so
    ``candidates_examined`` counts only the surviving deduped pairs —
    at most the scalar oracle's count.  ``pattern_gather`` (vertex
    context only) selects the gather-and-probe branch of a complete
    query pattern's level, where ``candidates_examined`` is the one
    gathered tail per row.
    """
    chunks = expand_chunks(ctx, block, block_filter, pattern_gather)
    counts = np.zeros(len(block), dtype=np.int64)
    pieces: list[np.ndarray] = []
    examined = 0
    for start, end, vert, chunk_counts, chunk_examined in chunks:
        counts[start:end] = chunk_counts
        pieces.append(vert)
        examined += chunk_examined
    if pieces:
        vert = np.concatenate(pieces)
    else:
        vert = np.zeros(0, dtype=ctx.out_dtype)
    return vert.astype(ctx.out_dtype, copy=False), counts, examined


def expand_chunks(
    ctx: VertexKernelContext | EdgeKernelContext,
    block: np.ndarray,
    block_filter=None,
    pattern_gather: "PatternGather | None" = None,
):
    """:func:`expand_block` one :data:`PAIR_BUDGET` chunk at a time:
    ``(start, end, vert, counts, candidates_examined)`` per chunk of rows
    ``start..end``, in row order, so the concatenated chunks are
    :func:`expand_block`'s result.  A folded level
    (:class:`repro.core.explore.BlockTask` with a mapper) maps each
    chunk's children as it is produced.  The block is walked in
    windows of ``PAIR_BUDGET // (k * arity)`` rows (as
    :func:`repro.balance.predict.predict_costs` walks a level), each
    widened and bounded on its own, so a part's transients stay bounded
    however many rows the planner cut into it."""
    block = np.ascontiguousarray(block)
    if block.ndim != 2:
        raise ValueError(f"block must be 2-D (rows, k), got shape {block.shape}")
    if pattern_gather is not None and ctx.kind != "vertex":
        raise ValueError("a pattern gather needs a vertex kernel context")
    rows_total, k = block.shape
    if not (rows_total and k):
        return iter(())
    window = max(1, PAIR_BUDGET // (k * ctx.arity))
    return (
        (lo + start, lo + end, *chunk)
        for lo in range(0, rows_total, window)
        for start, end, *chunk in (
            _canonical_chunks(ctx, block[lo : lo + window], block_filter)
            if pattern_gather is None
            else _pattern_chunks(ctx, block[lo : lo + window], pattern_gather, block_filter)
        )
    )


def _canonical_chunks(ctx, block: np.ndarray, block_filter):
    """``(start, end, vert, counts, examined)`` per chunk of the generic
    canonical expansion."""
    block64 = block.astype(np.int64, copy=False)
    keys64 = ctx.gather_keys(block64).astype(np.int64, copy=False)
    for start, end, bounds in _canonical_slabs(ctx, block64, keys64):
        vert, rows, examined, _ = _expand_chunk(
            ctx, block64[start:end], keys64[start:end], block_filter, bounds
        )
        yield start, end, vert, np.bincount(rows, minlength=end - start), examined


def _pattern_chunks(ctx, block: np.ndarray, gather: "PatternGather", block_filter):
    """``(start, end, vert, counts, examined)`` per chunk of a complete
    pattern's gather-and-probe.

    Every candidate must be adjacent to all of ``gather.required_cols``
    and exceed the row's ``bound_cols`` maximum, so each row gathers
    only its shortest bounded required tail and probes the other
    required columns.  The graph has no self-loops, so adjacency to a
    column already excludes that column's vertex from the candidates.
    """
    _, data, packed, modulus = ctx.gather_view()
    block64 = block.astype(np.int64, copy=False)
    starts, ends = gather_bounds(ctx, block64, block64, gather)
    source = np.argmin(ends - starts, axis=1)
    row_ids = np.arange(block64.shape[0])
    starts = starts[row_ids, source]
    ends = ends[row_ids, source]
    for lo, hi in _pair_budget_chunks(ends - starts):
        cands, rows = _ranged_gather(starts[lo:hi], ends[lo:hi], data, row_ids[: hi - lo])
        examined = int(cands.shape[0])
        cands = cands.astype(np.int64)
        chunk = block64[lo:hi]
        pair_source = source[lo + rows]
        keep = np.ones(rows.shape[0], dtype=bool)
        for i, column in enumerate(gather.required_cols):
            probe = np.flatnonzero(keep & (pair_source != i))
            keep[probe] = _in_packed(packed, modulus, chunk[rows[probe], column], cands[probe])
        rows = rows[keep]
        cands = cands[keep]
        if block_filter is not None and rows.shape[0]:
            mask = call_block_filter(block_filter, ctx, chunk, rows, cands)
            rows = rows[mask]
            cands = cands[mask]
        counts = np.bincount(rows, minlength=hi - lo)
        yield lo, hi, cands.astype(ctx.out_dtype), counts, examined


def _expand_chunk(
    ctx,
    block64: np.ndarray,
    keys64: np.ndarray,
    block_filter,
    bounds: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """One chunk of :func:`expand_block`; ``keys64`` is the chunk's
    ``(rows, k * arity)`` gather-key matrix and ``bounds`` its
    :func:`gather_bounds`.

    Returns ``(vert, rows, candidates_examined, adjacent)``: ``rows[i]``
    is the chunk row ``vert[i]`` extends (ascending) and bit ``c`` of
    ``adjacent[i]`` whether gather column ``c``'s list holds ``vert[i]``
    — the candidate's adjacency to the embedding, read off the dedup
    runs (see the module docstring for why it is exact).
    """
    rows_total = block64.shape[0]
    width = keys64.shape[1]
    arity = ctx.arity
    _, data, packed, modulus = ctx.gather_view()
    # Dedup keys pack (row, candidate, column) into power-of-two fields,
    # in the narrowest dtype that holds them (id_dtype raises past int64).
    vb = int(modulus - 1).bit_length()
    cb = (width - 1).bit_length()
    key_dtype = id_dtype(rows_total << (vb + cb))

    # Each column's slice already starts past the candidates its min-id
    # and suffix-order clauses rule out.
    starts, ends = bounds
    positions = np.arange(rows_total * width, dtype=key_dtype)
    gathered, owner = _ranged_gather(
        starts.reshape(-1), ends.reshape(-1), data, positions
    )
    if gathered.shape[0] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=ctx.out_dtype), empty, 0, empty
    # Each head carries the earliest *surviving* source column.
    pair_ids, rows, cands, first, adjacent = _dedup_heads(
        gathered, owner, rows_total, width, vb, cb
    )
    first //= arity
    examined = int(rows.shape[0])

    keep = np.ones(examined, dtype=bool)
    _mask_members(keep, pair_ids, block64, vb)
    # First-adjacency verification: reject heads that are also in the
    # (pruned) list of a column of an earlier arrival j — binary searches
    # over the heads, not the raw gather.  A head at or above arrival j's
    # bound would have been gathered from j had j's lists held it, so
    # only heads below the bound are probed.
    lower = _canonical_lower(block64)
    for j in range(width // arity - 1):
        sel = np.flatnonzero(keep & (first > j))
        sel = sel[cands[sel] < lower[rows[sel], j + 1]]
        if sel.shape[0] == 0:
            continue
        for column in range(j * arity, (j + 1) * arity):
            hit = _in_packed(packed, modulus, keys64[rows[sel], column], cands[sel])
            keep[sel[hit]] = False
            sel = sel[~hit]

    rows = rows[keep].astype(np.int64, copy=False)
    cands = cands[keep]
    adjacent = adjacent[keep]
    if block_filter is not None and rows.shape[0]:
        cands = cands.astype(np.int64, copy=False)
        mask = call_block_filter(block_filter, ctx, block64, rows, cands)
        rows = rows[mask]
        cands = cands[mask]
        adjacent = adjacent[mask]
    return cands.astype(ctx.out_dtype), rows, examined, adjacent
