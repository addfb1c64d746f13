"""Vectorized expansion kernels over the graph's CSR arrays.

The exploration hot loop — expand every embedding of the CSE's top level
by one vertex/edge under the Definition-2 canonical filter — used to run
as per-embedding Python loops over ``frozenset`` adjacency
(:func:`repro.core.explore.expand_vertex_part` and friends).  This module
reimplements that loop as *block* operations: a part's embeddings arrive
as one 2-D ``(rows, k)`` integer array (decoded straight from the CSE
``off``/``vert`` arrays by :meth:`repro.core.cse.CSE.decode_block`), all
candidates are generated with CSR gathers (``np.repeat`` +
cumulative-sum index arithmetic), and every clause of the canonical
filter becomes one boolean mask over the flat ``(row, candidate)`` pair
arrays:

* **min-vertex bound** — ``candidate > embedding[0]``;
* **membership** — the candidate is not already in the embedding;
* **first-neighbor** — the earliest embedding position adjacent to the
  candidate;
* **suffix order** — every embedding vertex after the first neighbor must
  not exceed the candidate, checked against a per-row suffix-maximum
  table.

The load-bearing trick is one sort of packed ``(row, candidate, source
column)`` keys per chunk: group heads dedup the candidate pairs, the key
order reproduces the scalar loops' ``sorted(candidate set)`` emission
order, and each head's low bits carry the smallest source column — which
*is* the canonical filter's first-neighbor (vertex kernel) or arrival
position (edge kernel).  No ``np.unique`` (whose hash-based
implementation in recent numpy is an order of magnitude slower than a
plain sort at these sizes).

There are **two** canonical-filter paths:

* **masked** (``restrictions=None``) — generate every neighbor, then
  apply the canonical clauses as post-hoc boolean masks as described
  above.  This path examines exactly the candidates the scalar oracle
  examines (``candidates_examined`` parity) and remains the default at
  this API level.
* **fused** (``restrictions=`` a
  :class:`repro.core.restrictions.KernelRestrictions`) — the
  symmetry-breaking order becomes per-gather-column *lower bounds*
  applied during the CSR gather itself: one ``searchsorted`` into the
  packed sorted adjacency view (:meth:`repro.graph.Graph.adjacency_keys`
  / :meth:`repro.graph.EdgeIndex.incident_keys`) per chunk skips the
  filtered candidates instead of materialising and masking them, so
  ``candidates_examined`` counts only the survivors.  The bounds assume
  each gather column is the candidate's first adjacency; a cheap
  verification pass on the (far fewer) dedup heads rejects candidates
  whose true first adjacency was pruned away — provably exactly the
  candidates the canonical filter rejects, so emitted levels stay
  *bit-identical* to the scalar oracle (oracle-differential and
  property-tested).  The planner turns this path on by default
  (``Planner(use_restrictions=True)``; ``--no-restrictions`` is the
  escape hatch).

On either path the application's **block filter** (Listing 1's
``EmbeddingFilter``, see :data:`repro.core.api.BlockFilter`) runs last,
over the ``(row, candidate)`` pairs that survived dedup and the
canonical clauses, and returns one boolean keep-mask per chunk — so
filtered applications (clique, FSM, pattern matching) expand on the
same kernels as unfiltered ones.

Dispatch (:func:`repro.core.explore.expand_vertex_level`): the kernels
run whenever every CSE level is block-decodable — resident in memory or
spilled and served through ``mmap`` — whether or not the application
installs a block filter.  The scalar loops in :mod:`repro.core.explore`
keep the unrestricted post-hoc canonical filter and call the same block
filter with one-row blocks; they are the parity oracle for both kernel
paths (``use_kernels=False``) and the fallback for a spilled level that
is not mmap-served.

The :class:`VertexKernelContext` / :class:`EdgeKernelContext` bundles are
plain picklable dataclasses so a :class:`repro.core.executor.ProcessExecutor`
can ship the graph arrays to each worker once (via
:func:`install_worker_context` in the pool initializer) instead of once
per task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph

__all__ = [
    "id_dtype",
    "DEFAULT_ID_DTYPE",
    "VertexKernelContext",
    "EdgeKernelContext",
    "vertex_kernel_context",
    "edge_kernel_context",
    "expand_vertex_block",
    "expand_edge_block",
    "call_block_filter",
    "install_worker_context",
    "current_worker_context",
]

#: Gathered ``(row, candidate)`` pairs per internal chunk.  Chunks are cut
#: from the per-row degree-sum prefix, so the transient pair arrays (about
#: eight ``int64`` temporaries per pair) stay bounded however large a part
#: the planner cut and however skewed the degrees — a row cap would not
#: bound them: one hub in every row gathers its whole neighbor list per
#: row.  A single row whose own degree sum exceeds the budget still runs,
#: alone.  Measured on the perf ledger's graphs: on ``clique4-filter``
#: (peak RSS 48.2 MB on the scalar loop) 16 Ki pairs costs +2.9% RSS,
#: 32 Ki +4.0%, 64 Ki +8.3%, and 16 Ki is also the fastest there; on
#: ``explore4-spill`` 16 Ki runs the three levels in the same 0.10-0.11 s
#: as the former 16 Ki-*row* chunks did (at under half their peak RSS),
#: 64 Ki about 15% faster — 3% of that op.  The RSS bound decides.
PAIR_BUDGET = 16_384

_INT32_MAX = int(np.iinfo(np.int32).max)


def id_dtype(count: int, boundary: int = _INT32_MAX) -> np.dtype:
    """Narrowest dtype for ids in ``range(count)``.

    ``boundary`` is the largest id count that still fits the narrow
    dtype; tests lower it to exercise the widening path without building
    a 2^31-entry graph.
    """
    return np.dtype(np.int32) if count <= boundary else np.dtype(np.int64)


#: The id dtype of an empty id space — the canonical fallback wherever a
#: sink or level needs a dtype before any ids have been produced.  Using
#: this instead of a hard-coded ``np.int32`` keeps the selection logic in
#: exactly one place (and keeps rule R004 quiet).  Both kernel paths —
#: masked and restriction-fused — emit in ``out_dtype`` and do their
#: packed-key arithmetic in ``int64`` regardless, so the fused path's
#: ``searchsorted`` bounds widen exactly like the gather keys do.
DEFAULT_ID_DTYPE = id_dtype(0)


# ----------------------------------------------------------------------
# Kernel contexts: the read-only array bundles the kernels gather from
# ----------------------------------------------------------------------
@dataclass
class VertexKernelContext:
    """Everything :func:`expand_vertex_block` needs, picklable."""

    indptr: np.ndarray
    indices: np.ndarray
    num_vertices: int
    out_dtype: np.dtype
    #: Packed sorted adjacency view (``u * n + w``, globally ascending);
    #: the fused restricted path binary-searches its lower bounds into
    #: it.  ``None`` only for hand-built contexts that never take that
    #: path.
    adjacency_keys: np.ndarray | None = None

    kind = "vertex"

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized adjacency test: ``out[i]`` is whether ``(u[i], v[i])``
        is an edge — one binary search per pair into ``adjacency_keys``.

        The building block for block filters that need adjacency (clique
        closure, internal-degree bounds); ``u`` and ``v`` must be
        ``int64`` (what the kernels hand a filter) so the packed probe
        cannot overflow.
        """
        keys = self.adjacency_keys
        if keys is None:
            raise ValueError(
                "has_edges needs a context with adjacency_keys "
                "(build it with vertex_kernel_context)"
            )
        if keys.shape[0] == 0:
            return np.zeros(np.shape(u), dtype=bool)
        probe = u * self.num_vertices + v
        pos = np.searchsorted(keys, probe)
        np.minimum(pos, keys.shape[0] - 1, out=pos)
        return keys[pos] == probe


@dataclass
class EdgeKernelContext:
    """Everything :func:`expand_edge_block` needs, picklable."""

    edge_u: np.ndarray
    edge_v: np.ndarray
    #: Vertex → incident-edge CSR pair.
    inc_indptr: np.ndarray
    incident: np.ndarray
    num_vertices: int
    num_edges: int
    out_dtype: np.dtype
    #: Packed sorted incidence view (``w * m + edge_id``, globally
    #: ascending) — the edge analogue of ``adjacency_keys``.
    incident_keys: np.ndarray | None = None

    kind = "edge"


def vertex_kernel_context(
    graph: Graph, out_dtype: np.dtype | None = None
) -> VertexKernelContext:
    """Build the vertex kernel's array bundle from a graph.

    The packed views come from the graph's caches, so every context
    built from the same graph shares the same array objects — which is
    what lets :class:`~repro.core.executor.ProcessExecutor` reuse its
    pool across levels (context matching is by array identity).
    """
    return VertexKernelContext(
        indptr=graph.indptr,
        indices=graph.indices,
        num_vertices=graph.num_vertices,
        out_dtype=out_dtype if out_dtype is not None else graph.id_dtype,
        adjacency_keys=graph.adjacency_keys(),
    )


def edge_kernel_context(
    index: EdgeIndex, out_dtype: np.dtype | None = None
) -> EdgeKernelContext:
    """Build the edge kernel's array bundle from an edge index."""
    inc_indptr, incident = index.incident_arrays()
    return EdgeKernelContext(
        edge_u=index.edge_u,
        edge_v=index.edge_v,
        inc_indptr=inc_indptr,
        incident=incident,
        num_vertices=index.graph.num_vertices,
        num_edges=index.num_edges,
        out_dtype=out_dtype if out_dtype is not None else index.id_dtype,
        incident_keys=index.incident_keys(),
    )


# ----------------------------------------------------------------------
# Shared gather helpers
# ----------------------------------------------------------------------
def _csr_gather(
    indptr: np.ndarray, data: np.ndarray, keys: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``data[indptr[key]:indptr[key+1]]`` for every key.

    Returns ``(values, owner_per_value)`` where ``owners[i]`` tags every
    value gathered for ``keys[i]``.  This is the ``np.repeat`` +
    cumulative-offset trick that turns per-vertex adjacency walks into
    one flat gather.
    """
    return _ranged_gather(indptr[keys], indptr[keys + 1], data, owners)


def _ranged_gather(
    starts: np.ndarray, ends: np.ndarray, data: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``data[starts[i]:ends[i]]`` for every slice.

    The generalisation of :func:`_csr_gather` the fused restricted path
    needs: its lower bounds move each slice's *start* forward past the
    candidates the symmetry-breaking order rules out, so they are never
    gathered at all.
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


def _suffix_max(block: np.ndarray) -> np.ndarray:
    """``out[r, j] = max(block[r, j:])`` with an extra all ``-1`` column.

    ``out[r, f + 1]`` is then the largest embedding entry *after*
    position ``f`` — the suffix-order clause compares it to the
    candidate in one vectorized step.
    """
    rows, k = block.shape
    out = np.full((rows, k + 1), -1, dtype=np.int64)
    for j in range(k - 1, -1, -1):
        np.maximum(block[:, j], out[:, j + 1], out=out[:, j])
    return out


def _mask_members(
    keep: np.ndarray, pair_ids: np.ndarray, block: np.ndarray, modulus: int
) -> None:
    """Clear ``keep`` where the candidate is already in its embedding.

    ``pair_ids`` is the *sorted* packed ``row * modulus + candidate``
    array; the embedding ids re-packed the same way are a much smaller
    set, so searching them into the candidates is ``rows * k`` binary
    searches instead of a ``(pairs, k)`` comparison matrix.
    """
    rows_total, k = block.shape
    emb_keys = np.arange(rows_total, dtype=np.int64)[:, None] * modulus + block
    pos = np.searchsorted(pair_ids, emb_keys.reshape(-1))
    np.minimum(pos, pair_ids.shape[0] - 1, out=pos)
    hits = pos[pair_ids[pos] == emb_keys.reshape(-1)]
    keep[hits] = False


def _dedup_heads(
    values: np.ndarray, owner: np.ndarray, width: int, modulus: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort-dedup the gathered ``(row, candidate)`` pairs of one chunk.

    ``owner`` is the flat ``row * width + column`` position each value
    was gathered for.  One sort of packed ``(row, candidate, column)``
    keys does three jobs at once: it (a) dedups the per-row candidate
    set, (b) orders candidates ascending within each row — the scalar
    loop's ``sorted(set)`` emission order — and (c) leaves each group's
    *head* carrying the smallest source column.  Returns the heads as
    ``(pair_ids, rows, cands, first_column)`` with ``pair_ids = row *
    modulus + candidate`` ascending.
    """
    row = owner // width
    # (row * modulus + value) * width + column, with column = owner - row * width.
    keys = row * ((modulus - 1) * width)
    keys += owner
    keys += np.multiply(values, width, dtype=np.int64)
    keys.sort()
    pair_ids = keys // width
    head = np.empty(keys.shape, dtype=bool)
    head[0] = True
    np.not_equal(pair_ids[1:], pair_ids[:-1], out=head[1:])
    first_keys = keys[head]
    pair_ids = pair_ids[head]
    rows = pair_ids // modulus
    cands = pair_ids - rows * modulus
    first_keys -= pair_ids * width
    return pair_ids, rows, cands, first_keys


def call_block_filter(
    block_filter, ctx, block64: np.ndarray, rows: np.ndarray, cands: np.ndarray
) -> np.ndarray:
    """The one place the application's block filter is invoked — by the
    kernels per chunk and by the scalar loops per embedding — so both
    hold it to the same contract: one ``bool`` per pair."""
    mask = np.asarray(block_filter(ctx, block64, rows, cands))
    if mask.dtype != np.bool_ or mask.shape != rows.shape:
        raise ValueError(
            f"block filter must return a bool mask of shape {rows.shape}, "
            f"got {mask.dtype} {mask.shape}"
        )
    return mask


def _emit(
    ctx,
    block64: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    keep: np.ndarray,
    block_filter,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the application's block filter to the canonical survivors
    and return the chunk's ``(vert, counts)``."""
    rows = rows[keep]
    cands = cands[keep]
    if block_filter is not None and rows.shape[0]:
        mask = call_block_filter(block_filter, ctx, block64, rows, cands)
        rows = rows[mask]
        cands = cands[mask]
    counts = np.bincount(rows, minlength=block64.shape[0])
    return cands.astype(ctx.out_dtype), counts


def _degree_sums(indptr: np.ndarray, id_columns, rows_total: int) -> np.ndarray:
    """Per-row sum of CSR slice lengths over ``id_columns`` (one 1-D id
    array per gather column): how many pairs each row gathers at most."""
    pairs = np.zeros(rows_total, dtype=np.int64)
    for ids in id_columns:
        pairs += indptr[ids + 1]
        pairs -= indptr[ids]
    return pairs


def _pair_budget_chunks(row_pairs: np.ndarray):
    """Cut ``range(rows)`` into contiguous chunks of at most
    :data:`PAIR_BUDGET` gathered pairs (``row_pairs[r]`` bounds row
    ``r``'s); a row over the budget on its own gets a chunk to itself."""
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


def _expand_block(
    ctx, block: np.ndarray, restrictions, block_filter, row_pairs, masked, fused
) -> tuple[np.ndarray, np.ndarray, int]:
    """Chunk driver shared by the vertex and edge kernels."""
    block = np.ascontiguousarray(block)
    if block.ndim != 2:
        raise ValueError(f"block must be 2-D (rows, k), got shape {block.shape}")
    _check_restrictions(ctx, block, restrictions)
    rows_total, k = block.shape
    counts = np.zeros(rows_total, dtype=np.int64)
    pieces: list[np.ndarray] = []
    examined = 0
    if rows_total and k:
        for start, end in _pair_budget_chunks(row_pairs(ctx, block)):
            chunk = block[start:end].astype(np.int64, copy=False)
            if restrictions is None:
                vert, chunk_counts, chunk_examined = masked(ctx, chunk, block_filter)
            else:
                vert, chunk_counts, chunk_examined = fused(
                    ctx, chunk, restrictions, block_filter
                )
            counts[start:end] = chunk_counts
            pieces.append(vert)
            examined += chunk_examined
    if pieces:
        vert = np.concatenate(pieces)
    else:
        vert = np.zeros(0, dtype=ctx.out_dtype)
    return vert.astype(ctx.out_dtype, copy=False), counts, examined


def _check_restrictions(ctx, block: np.ndarray, restrictions) -> None:
    """Reject restriction bundles laid out for a different kernel/level."""
    if restrictions is None:
        return
    if restrictions.kind != ctx.kind:
        raise ValueError(
            f"{restrictions.kind!r} restrictions passed to the {ctx.kind} kernel"
        )
    k = block.shape[1]
    if k and restrictions.level != k:
        raise ValueError(
            f"restrictions compiled for level {restrictions.level}, "
            f"block has depth {k}"
        )


def _no_output(ctx, rows_total: int) -> tuple[np.ndarray, np.ndarray, int]:
    return np.zeros(0, dtype=ctx.out_dtype), np.zeros(rows_total, dtype=np.int64), 0


# ----------------------------------------------------------------------
# Vertex-induced kernel
# ----------------------------------------------------------------------
def expand_vertex_block(
    ctx: VertexKernelContext, block: np.ndarray, restrictions=None, block_filter=None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Expand a block of same-length embeddings by one vertex.

    ``block`` is ``(rows, k)``: row ``r`` is the vertex tuple of one
    embedding.  Returns ``(vert, counts, candidates_examined)``; ``vert``
    holds the emitted last vertices in embedding order (candidates
    ascending within each row) and ``counts[r]`` how many row ``r``
    emitted — both byte-identical to
    :func:`repro.core.explore.expand_vertex_part` given the same
    ``block_filter`` (a :data:`repro.core.api.BlockFilter`, applied to
    the canonical survivors of each chunk).  With ``restrictions=None``
    (the masked path) ``candidates_examined`` also matches the scalar
    oracle exactly; with a
    :class:`~repro.core.restrictions.KernelRestrictions` the fused
    bounds skip filtered candidates during the gather, so it counts only
    the surviving deduped pairs.
    """
    return _expand_block(
        ctx, block, restrictions, block_filter,
        _vertex_row_pairs, _expand_vertex_chunk, _expand_vertex_chunk_fused,
    )


def _vertex_row_pairs(ctx: VertexKernelContext, block: np.ndarray) -> np.ndarray:
    """Per-row degree sum over the embedding's vertices."""
    return _degree_sums(ctx.indptr, block.T, block.shape[0])


def _expand_vertex_chunk(
    ctx: VertexKernelContext, block64: np.ndarray, block_filter
) -> tuple[np.ndarray, np.ndarray, int]:
    rows_total, k = block64.shape
    n = ctx.num_vertices

    # Candidate generation: gather the neighbor list of every embedding
    # vertex, tagging each gathered neighbor with the flat (row, column)
    # position it came from.
    positions = np.arange(rows_total * k, dtype=np.int64)
    neigh, owner = _csr_gather(ctx.indptr, ctx.indices, block64.reshape(-1), positions)
    if neigh.shape[0] == 0:
        return _no_output(ctx, rows_total)
    # Each head's smallest source column is exactly the canonical
    # filter's first-neighbor index.
    pair_ids, rows, cands, first_nb = _dedup_heads(neigh, owner, k, n)
    examined = int(rows.shape[0])

    # Min-vertex bound.  (The scalar filter's no-neighbor rejection can
    # never fire here: every candidate came off some embedding vertex's
    # neighbor list.)
    keep = cands > block64[rows, 0]
    # Membership clause, inverted: rather than comparing every candidate
    # against all k embedding columns, binary-search the (far fewer)
    # embedding keys into the sorted candidate pair ids and knock out the
    # hits.
    _mask_members(keep, pair_ids, block64, n)
    # Suffix-order clause: max(embedding[first_nb + 1:]) <= candidate.
    sfx = _suffix_max(block64)
    tail_max = sfx[rows, first_nb + 1]
    np.logical_and(keep, tail_max <= cands, out=keep)

    vert, counts = _emit(ctx, block64, rows, cands, keep, block_filter)
    return vert, counts, examined


def _expand_vertex_chunk_fused(
    ctx: VertexKernelContext, block64: np.ndarray, restrictions, block_filter
) -> tuple[np.ndarray, np.ndarray, int]:
    """Restriction-fused vertex expansion: bounds applied *in* the gather.

    Gather column ``j`` (embedding position ``j``'s neighbor slice) only
    admits candidates ``>= lb[r, j] = max(block[r, 0] + 1,
    suffix_max[r, j + 1])`` — the canonical order's min-id and
    suffix-order clauses assuming ``j`` is the candidate's first
    neighbor.  One ``searchsorted`` into the packed ascending
    ``adjacency_keys`` view moves each slice start past the ruled-out
    candidates.  Because ``lb`` is non-increasing in ``j``, a deduped
    head's column ``g`` is the candidate's earliest *surviving*
    occurrence; if its true first neighbor ``f < g`` was pruned, the
    pruning itself proves a suffix-order violation at ``f``, so such
    heads are exactly the canonical filter's rejects — the verification
    pass below knocks them out by binary-searching ``(block[r, f],
    cand)`` edges for ``f`` before each head's ``g``.
    """
    rows_total, k = block64.shape
    adjacency_keys = ctx.adjacency_keys
    if adjacency_keys is None:
        raise ValueError(
            "restricted vertex kernel needs a context with adjacency_keys "
            "(build it with vertex_kernel_context)"
        )
    n = ctx.num_vertices
    sfx = _suffix_max(block64)

    # Per-(row, column) inclusive lower bounds, flattened like the block.
    strict = block64[:, restrictions.strict_lower_col, None] + 1
    cols = np.asarray(restrictions.suffix_from, dtype=np.int64)
    lb = np.maximum(strict, sfx[:, cols])
    flat_verts = block64.reshape(-1)
    slice_ends = ctx.indptr[flat_verts + 1]
    starts = np.searchsorted(adjacency_keys, flat_verts * n + lb.reshape(-1))
    np.minimum(starts, slice_ends, out=starts)

    positions = np.arange(rows_total * k, dtype=np.int64)
    neigh, owner = _ranged_gather(starts, slice_ends, ctx.indices, positions)
    if neigh.shape[0] == 0:
        return _no_output(ctx, rows_total)
    # Each head carries the earliest *surviving* source column.
    pair_ids, rows, cands, first_nb = _dedup_heads(neigh, owner, k, n)
    examined = int(rows.shape[0])

    keep = np.ones(examined, dtype=bool)
    _mask_members(keep, pair_ids, block64, n)
    # First-neighbor verification: reject heads adjacent to an earlier
    # (pruned) column — at most k - 1 rounds of binary searches over the
    # heads, not the raw gather.
    for f in range(k - 1):
        sel = np.nonzero(keep & (first_nb > f))[0]
        if sel.shape[0] == 0:
            continue
        keep[sel[ctx.has_edges(block64[rows[sel], f], cands[sel])]] = False

    vert, counts = _emit(ctx, block64, rows, cands, keep, block_filter)
    return vert, counts, examined


# ----------------------------------------------------------------------
# Edge-induced kernel
# ----------------------------------------------------------------------
def expand_edge_block(
    ctx: EdgeKernelContext, block: np.ndarray, restrictions=None, block_filter=None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Edge-induced analogue of :func:`expand_vertex_block`.

    ``block`` rows hold edge ids; candidates are the edges incident to
    any endpoint of the embedding, filtered by the edge-canonicality rule
    (min-edge-id bound, membership, first-reachable arrival position,
    suffix order) and then by ``block_filter``, whose candidates are
    edge ids (``ctx.edge_u`` / ``ctx.edge_v`` give the endpoints).
    Emitted ids and counts match
    :func:`repro.core.explore.expand_edge_part` exactly on both paths;
    as in the vertex kernel, ``candidates_examined`` only matches the
    scalar oracle on the masked path (``restrictions=None``).
    """
    return _expand_block(
        ctx, block, restrictions, block_filter,
        _edge_row_pairs, _expand_edge_chunk, _expand_edge_chunk_fused,
    )


def _edge_row_pairs(ctx: EdgeKernelContext, block: np.ndarray) -> np.ndarray:
    """Per-row incidence-degree sum over both endpoints of every edge."""
    endpoints = (ends[column] for column in block.T for ends in (ctx.edge_u, ctx.edge_v))
    return _degree_sums(ctx.inc_indptr, endpoints, block.shape[0])


def _endpoint_matrix(ctx: EdgeKernelContext, block64: np.ndarray) -> np.ndarray:
    """Columns ``(2j, 2j + 1)`` are the endpoints of the j-th embedding
    edge, so ``column // 2`` is the arrival position the
    edge-canonicality rule ranks by."""
    rows_total, k = block64.shape
    ends = np.empty((rows_total, 2 * k), dtype=np.int64)
    ends[:, 0::2] = ctx.edge_u[block64]
    ends[:, 1::2] = ctx.edge_v[block64]
    return ends


def _expand_edge_chunk(
    ctx: EdgeKernelContext, block64: np.ndarray, block_filter
) -> tuple[np.ndarray, np.ndarray, int]:
    rows_total, k = block64.shape
    m = ctx.num_edges
    ends = _endpoint_matrix(ctx, block64)

    # Candidate generation: the incident-edge list of every endpoint
    # occurrence, tagged with the flat (row, column) position it came
    # from.
    width = 2 * k
    positions = np.arange(rows_total * width, dtype=np.int64)
    inc, owner = _csr_gather(ctx.inc_indptr, ctx.incident, ends.reshape(-1), positions)
    if inc.shape[0] == 0:
        return _no_output(ctx, rows_total)
    # Each head carries the earliest endpoint occurrence — and since
    # column // 2 is monotone in the column, the head's position is the
    # candidate's minimum arrival `first`.
    pair_ids, rows, cands, first = _dedup_heads(inc, owner, width, m)
    first //= 2
    examined = int(rows.shape[0])

    # Min-edge-id bound and membership clauses.  (Every candidate is
    # incident to some embedding endpoint, so the scalar filter's
    # unreachable-candidate rejection can never fire here.)
    keep = cands > block64[rows, 0]
    _mask_members(keep, pair_ids, block64, m)
    # Suffix-order clause over edge ids.
    sfx = _suffix_max(block64)
    tail_max = sfx[rows, first + 1]
    np.logical_and(keep, tail_max <= cands, out=keep)

    vert, counts = _emit(ctx, block64, rows, cands, keep, block_filter)
    return vert, counts, examined


def _expand_edge_chunk_fused(
    ctx: EdgeKernelContext, block64: np.ndarray, restrictions, block_filter
) -> tuple[np.ndarray, np.ndarray, int]:
    """Restriction-fused edge expansion.

    Endpoint columns ``(2a, 2a + 1)`` belong to embedding edge ``a``, so
    both share the bound ``lb = max(block[r, 0] + 1, suffix_max[r,
    a + 1])`` — the edge-canonicality clauses assuming arrival ``a`` is
    the candidate's first.  ``searchsorted`` into the packed ascending
    ``incident_keys`` view prunes each incidence slice in place.  Since
    the two columns of an arrival carry identical bounds, a pruned
    earlier arrival implies both its columns were pruned, and the same
    suffix-violation argument as the vertex kernel applies; the
    verification pass compares each head's candidate endpoints against
    the endpoint columns before its surviving arrival (direct equality,
    no searches needed — endpoints are right there in ``ends``).
    """
    rows_total, k = block64.shape
    incident_keys = ctx.incident_keys
    if incident_keys is None:
        raise ValueError(
            "restricted edge kernel needs a context with incident_keys "
            "(build it with edge_kernel_context)"
        )
    m = ctx.num_edges
    sfx = _suffix_max(block64)
    ends = _endpoint_matrix(ctx, block64)

    strict = block64[:, restrictions.strict_lower_col, None] + 1
    cols = np.asarray(restrictions.suffix_from, dtype=np.int64)
    lb = np.maximum(strict, sfx[:, cols])
    flat_ends = ends.reshape(-1)
    slice_ends = ctx.inc_indptr[flat_ends + 1]
    starts = np.searchsorted(incident_keys, flat_ends * m + lb.reshape(-1))
    np.minimum(starts, slice_ends, out=starts)

    width = 2 * k
    positions = np.arange(rows_total * width, dtype=np.int64)
    inc, owner = _ranged_gather(starts, slice_ends, ctx.incident, positions)
    if inc.shape[0] == 0:
        return _no_output(ctx, rows_total)
    pair_ids, rows, cands, first = _dedup_heads(inc, owner, width, m)
    first //= 2
    examined = int(rows.shape[0])

    keep = np.ones(examined, dtype=bool)
    _mask_members(keep, pair_ids, block64, m)
    # First-arrival verification: reject heads incident to an endpoint of
    # an earlier (pruned) arrival.
    cand_u = ctx.edge_u[cands].astype(np.int64, copy=False)
    cand_v = ctx.edge_v[cands].astype(np.int64, copy=False)
    for f in range(width - 2):
        sel = np.nonzero(keep & (first > f // 2))[0]
        if sel.shape[0] == 0:
            continue
        endpoint = ends[rows[sel], f]
        hit = (cand_u[sel] == endpoint) | (cand_v[sel] == endpoint)
        keep[sel[hit]] = False

    vert, counts = _emit(ctx, block64, rows, cands, keep, block_filter)
    return vert, counts, examined


# ----------------------------------------------------------------------
# Per-process shared context (ProcessExecutor worker side)
# ----------------------------------------------------------------------
_WORKER_CONTEXT: "VertexKernelContext | EdgeKernelContext | None" = None

#: Keeps the worker's shared-memory mapping alive for as long as the
#: installed context's array views point into it.
_WORKER_SEGMENT = None


def install_worker_context(ctx) -> None:
    """Pool-initializer hook: stash the kernel context in this process.

    :class:`~repro.core.executor.ProcessExecutor` passes either the
    context itself or — on the zero-copy path — a
    :class:`repro.core.shm.SharedContextHandle` naming a shared-memory
    segment; in that case the worker attaches by name and rebuilds the
    context as read-only views, so no graph arrays cross the pipe.
    Block tasks shipped to the worker then look the context up here
    instead of carrying the arrays in every pickle.
    """
    global _WORKER_CONTEXT, _WORKER_SEGMENT
    from . import shm  # lazy: shm imports this module at its top level

    if isinstance(ctx, shm.SharedContextHandle):
        ctx, _WORKER_SEGMENT = shm.attach_context(ctx)
    _WORKER_CONTEXT = ctx


def current_worker_context():
    """The context installed by :func:`install_worker_context`."""
    if _WORKER_CONTEXT is None:
        raise RuntimeError(
            "no kernel context installed in this process; block tasks must "
            "run under a ProcessExecutor pool initializer or carry a local "
            "context"
        )
    return _WORKER_CONTEXT
