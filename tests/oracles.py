"""Scalar reference implementations of the expansion rule, for tests only.

The engine grows every level with one vectorized kernel,
:func:`repro.core.kernels.expand_block`.  This module keeps the
per-embedding Python loops the kernel replaced — the Definition-2 rule
spelled out one candidate at a time over ``frozenset`` adjacency — as an
independent second opinion:

* :func:`extends_canonically` / :func:`edge_extends_canonically` — the
  incremental canonicality checks;
* :func:`expand_block` — the scalar analogue of the kernel, same
  signature, same ``(vert, counts, candidates_examined)`` result;
* :class:`OracleExecutor` — a :class:`~repro.core.executor.PartExecutor`
  that runs every expansion part through :func:`expand_block` instead of
  the kernel, so ``KaleidoEngine(graph, executor=OracleExecutor())`` or
  ``expand_vertex_level(..., executor=OracleExecutor())`` is a whole
  second run with no engine knob;
* :func:`extension_codes` — the motif mapper's codes probed pair by
  pair, against the adjacency masks the kernel returns;
* :func:`canonical_extensions` — the kernel run on one embedding;
* :func:`are_isomorphic`, :func:`position_orbits` and
  :func:`automorphism_count` — exact isomorphism facts about one pattern
  (or a pair), by backtracking and permutation search, beside the
  canonical code rows the mappers compare.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core import kernels
from repro.core.executor import ExecutionReport, PartExecutor, SerialExecutor
from repro.core.explore import BlockTask, PartExpansion, child_block
from repro.core.isomorphism import _group_permutations, _sort_groups, automorphisms
from repro.core.pattern import Pattern, triangle_index
from repro.graph.graph import Graph

__all__ = [
    "extends_canonically",
    "edge_extends_canonically",
    "expand_vertex_part",
    "expand_edge_part",
    "expand_block",
    "OracleExecutor",
    "extension_codes",
    "canonical_extensions",
    "are_isomorphic",
    "position_orbits",
    "automorphism_count",
]


def extends_canonically(
    adjacency: Sequence[frozenset[int]], embedding: Sequence[int], candidate: int
) -> bool:
    """Whether appending ``candidate`` to the canonical ``embedding``
    yields a canonical embedding (the incremental Definition-2 check).

    Conditions: the candidate is new, larger than the first vertex
    (property i), adjacent to some member (property ii), and larger than
    every member positioned after its first neighbor (property iii —
    otherwise the greedy order would have visited it earlier).
    ``adjacency`` is :meth:`repro.graph.Graph.adjacency_sets`.
    """
    if candidate <= embedding[0]:
        return False
    first_neighbor = -1
    for idx, vertex in enumerate(embedding):
        if vertex == candidate:
            return False
        if first_neighbor < 0 and candidate in adjacency[vertex]:
            first_neighbor = idx
    if first_neighbor < 0:
        return False
    return all(embedding[idx] < candidate for idx in range(first_neighbor + 1, len(embedding)))


def edge_extends_canonically(
    edges: Sequence[tuple[int, int]],
    edge_ids: Sequence[int],
    candidate_edge: tuple[int, int],
    candidate_id: int,
) -> bool:
    """Incremental canonicality for edge-induced embeddings.

    ``edges``/``edge_ids`` describe the current canonical embedding in
    order; the candidate must be new, have a larger id than the first edge,
    touch the subgraph, and have a larger id than every edge after the
    point at which it first became reachable.
    """
    if candidate_id <= edge_ids[0]:
        return False
    vertices: set[int] = set()
    first_reachable = -1
    for idx, (edge, eid) in enumerate(zip(edges, edge_ids)):
        if eid == candidate_id:
            return False
        vertices.update(edge)
        if first_reachable < 0 and (
            candidate_edge[0] in vertices or candidate_edge[1] in vertices
        ):
            first_reachable = idx
    if first_reachable < 0:
        return False
    return all(
        edge_ids[idx] < candidate_id for idx in range(first_reachable + 1, len(edge_ids))
    )


def _csr_lists(indptr: np.ndarray, data: np.ndarray) -> list[list[int]]:
    values = data.tolist()
    return [values[indptr[v] : indptr[v + 1]] for v in range(indptr.shape[0] - 1)]


def _filter_row(block_filter, ctx, emb: tuple[int, ...], survivors: list[int]) -> list[int]:
    """Run the block filter over one embedding's canonical survivors: a
    one-row block, every pair pointing at row 0."""
    if block_filter is None or not survivors:
        return survivors
    cands = np.asarray(survivors, dtype=np.int64)
    keep = kernels.call_block_filter(
        block_filter,
        ctx,
        np.asarray([emb], dtype=np.int64),
        np.zeros(cands.shape[0], dtype=np.int64),
        cands,
    )
    return cands[keep].tolist()


def _result(ctx, emitted: list[int], counts: list[int], examined: int):
    return (
        np.asarray(emitted, dtype=ctx.out_dtype),
        np.asarray(counts, dtype=np.int64),
        examined,
    )


def expand_vertex_part(
    ctx: kernels.VertexKernelContext,
    block: np.ndarray,
    block_filter=None,
    pattern_gather=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Expand each row of ``block`` by one vertex, one embedding at a time.

    Candidates are every neighbor of the embedding, ascending; each is
    kept if :func:`extends_canonically`, then (with ``pattern_gather``)
    if it is above every bound column and adjacent to every required
    column, then if ``block_filter`` keeps it.  ``candidates_examined``
    counts the whole neighbor union.
    """
    adjacency = [frozenset(row) for row in _csr_lists(ctx.indptr, ctx.indices)]
    emitted: list[int] = []
    counts: list[int] = []
    examined = 0
    for emb in map(tuple, block.tolist()):
        merged: set[int] = set()
        for v in emb:
            merged.update(adjacency[v])
        candidates = sorted(merged)
        examined += len(candidates)
        survivors = [c for c in candidates if extends_canonically(adjacency, emb, c)]
        if pattern_gather is not None:
            floor = max(emb[c] for c in pattern_gather.bound_cols)
            survivors = [
                cand for cand in survivors
                if cand > floor
                and all(cand in adjacency[emb[c]] for c in pattern_gather.required_cols)
            ]
        survivors = _filter_row(block_filter, ctx, emb, survivors)
        emitted.extend(survivors)
        counts.append(len(survivors))
    return _result(ctx, emitted, counts, examined)


def expand_edge_part(
    ctx: kernels.EdgeKernelContext, block: np.ndarray, block_filter=None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Edge-induced analogue of :func:`expand_vertex_part`: rows hold
    edge ids, and the candidates are every edge incident to one of the
    embedding's endpoint vertices."""
    eu, ev = ctx.edge_u.tolist(), ctx.edge_v.tolist()
    incident = _csr_lists(ctx.inc_indptr, ctx.incident)
    emitted: list[int] = []
    counts: list[int] = []
    examined = 0
    for emb in map(tuple, block.tolist()):
        # Arrival index: first embedding position at which each vertex
        # appears — the "first reachable" step of the edge rule.
        arrival: dict[int, int] = {}
        for idx, eid in enumerate(emb):
            for w in (eu[eid], ev[eid]):
                arrival.setdefault(w, idx)
        candidates: set[int] = set()
        for w in arrival:
            candidates.update(incident[w])
        examined += len(candidates)
        k = len(emb)
        survivors = []
        for cand in sorted(candidates):
            if cand <= emb[0] or cand in emb:
                continue
            first = min(arrival.get(eu[cand], k), arrival.get(ev[cand], k))
            if first < k and all(emb[idx] < cand for idx in range(first + 1, k)):
                survivors.append(cand)
        survivors = _filter_row(block_filter, ctx, emb, survivors)
        emitted.extend(survivors)
        counts.append(len(survivors))
    return _result(ctx, emitted, counts, examined)


def expand_block(ctx, block, block_filter=None, pattern_gather=None):
    """Scalar stand-in for :func:`repro.core.kernels.expand_block`: same
    arguments, same ``(vert, counts, candidates_examined)`` result, and
    ``vert`` / ``counts`` must match it byte for byte."""
    if ctx.kind == "edge":
        if pattern_gather is not None:
            raise ValueError("a pattern gather needs a vertex kernel context")
        return expand_edge_part(ctx, block, block_filter)
    return expand_vertex_part(ctx, block, block_filter, pattern_gather)


def _oracle_task(task: BlockTask) -> Callable[[], PartExpansion]:
    def run() -> PartExpansion:
        vert, counts, examined = expand_block(
            task.ctx, task.block, task.block_filter, task.pattern_gather
        )
        pmap: dict | None = None
        if task.mapper is not None:
            # The whole part's children in one map_block call.
            pmap = {}
            task.mapper(child_block(task.block, vert, counts), pmap)
        return PartExpansion(
            index=task.index,
            bound=task.bound,
            vert=None if task.fold else vert,
            counts=None if task.fold else counts,
            emitted=int(vert.shape[0]),
            candidates_examined=examined,
            pmap=pmap,
        )

    return run


class OracleExecutor(PartExecutor):
    """Runs every expansion part on the scalar loops instead of the kernel.

    Wraps another executor (serial by default), whose measured schedule
    it reports.  Each
    :class:`~repro.core.explore.BlockTask` is replaced by
    :func:`expand_block` over the same block, kernel context, block
    filter and pattern gather; a mapped level's task then maps the whole
    part's children with one ``map_block`` call (the kernel maps a
    folded part one chunk at a time), and returns its ``vert``,
    ``counts`` and map when the level is stored.
    """

    name = "oracle"

    def __init__(self, inner: PartExecutor | None = None) -> None:
        self.inner = inner if inner is not None else SerialExecutor()

    def run(
        self,
        tasks: Iterable[Callable[[], Any]],
        workers: int = 1,
        on_result=None,
        tracer=None,
    ) -> ExecutionReport:
        tasks = (
            _oracle_task(task) if isinstance(task, BlockTask) else task for task in tasks
        )
        return self.inner.run(
            tasks, workers=workers, on_result=on_result, tracer=tracer
        )

    def close(self) -> None:
        self.inner.close()


def extension_codes(kctx: kernels.VertexKernelContext, slab: np.ndarray, k: int):
    """Per-pair reference for :func:`repro.apps.motif.extension_codes`:
    the scalar expansion of ``slab``, then one ``has_edges`` probe per
    (k-embedding, prefix column) pair — same ``(rows, codes)`` result."""
    last = k - 1
    cands, counts, _ = expand_block(kctx, slab)
    rows = np.repeat(np.arange(slab.shape[0]), counts)
    cands = cands.astype(np.int64)
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for i in range(last):
        for j in range(i + 1, last):
            codes[kctx.has_edges(slab[rows, i], slab[rows, j])] |= 1 << triangle_index(i, j, k)
        codes[kctx.has_edges(slab[rows, i], cands)] |= 1 << triangle_index(i, last, k)
    return rows, codes


def canonical_extensions(graph: Graph, embedding: Sequence[int]) -> list[int]:
    """All vertices that extend ``embedding`` canonically (Definition 2),
    ascending: the kernel run on a one-row block."""
    block = np.asarray([embedding], dtype=np.int64)
    vert, _, _ = kernels.expand_block(kernels.vertex_kernel_context(graph), block)
    return vert.tolist()


def are_isomorphic(a: Pattern, b: Pattern) -> bool:
    """Exact labeled-isomorphism test between two patterns."""
    if a.num_vertices != b.num_vertices:
        return False
    if sorted(a.labels) != sorted(b.labels):
        return False
    if sorted(a.edge_labels or ()) != sorted(b.edge_labels or ()):
        return False
    deg_a, deg_b = a.degree_sequence(), b.degree_sequence()
    if sorted(zip(a.labels, deg_a)) != sorted(zip(b.labels, deg_b)):
        return False
    # Backtracking: map positions of `a` to positions of `b`.
    k = a.num_vertices
    candidates: list[list[int]] = []
    for i in range(k):
        cands = [
            j
            for j in range(k)
            if a.labels[i] == b.labels[j] and deg_a[i] == deg_b[j]
        ]
        if not cands:
            return False
        candidates.append(cands)
    order = sorted(range(k), key=lambda i: len(candidates[i]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(step: int) -> bool:
        if step == k:
            return True
        i = order[step]
        for j in candidates[i]:
            if j in used:
                continue
            ok = all(
                a.has_edge(i, other) == b.has_edge(j, mapping[other])
                and (
                    not a.has_edge(i, other)
                    or a.edge_label_at(i, other)
                    == b.edge_label_at(j, mapping[other])
                )
                for other in mapping
            )
            if ok:
                mapping[i] = j
                used.add(j)
                if extend(step + 1):
                    return True
                del mapping[i]
                used.discard(j)
        return False

    return extend(0)



def position_orbits(pattern: Pattern) -> list[tuple[int, ...]]:
    """Orbits of the pattern's positions under its automorphism group.

    Two positions share an orbit iff some automorphism maps one to the
    other — they are structurally interchangeable.  The restriction
    compiler (:mod:`repro.core.restrictions`) breaks exactly these
    symmetries; orbits are returned sorted (and internally ascending) so
    callers iterate deterministically.
    """
    k = pattern.num_vertices
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in automorphisms(pattern):
        for i in range(k):
            a, b = find(i), find(perm[i])
            if a != b:
                parent[max(a, b)] = min(a, b)
    by_root: dict[int, list[int]] = {}
    for i in range(k):
        by_root.setdefault(find(i), []).append(i)
    return [tuple(by_root[root]) for root in sorted(by_root)]



def automorphism_count(pattern: Pattern) -> int:
    """Number of automorphisms of the pattern (exact, for small k)."""
    groups = _sort_groups(pattern)
    count = 0
    base, _ = pattern.sorted_by_label_degree()
    for perm in _group_permutations(groups):
        if pattern.permute(perm) == base:
            count += 1
    return count
