"""Embedding exploration: expanding a CSE by one level (Section 3.1).

Vertex-induced expansion appends one neighboring vertex per step;
edge-induced expansion (used by FSM) appends one adjacent edge.  Both run
the Definition-2 canonical filter plus the application's optional block
filter (Listing 1's ``EmbeddingFilter``, vectorized — see
:data:`repro.core.api.BlockFilter`).

Expansion is partitioned: the caller supplies contiguous part boundaries
over the current top level (either an even split or the prediction-driven
split from :mod:`repro.balance`), and each part becomes one executor task
so a :class:`repro.core.executor.PartExecutor` can run parts in any order
— serially, on a thread pool, or under the work-stealing replay — with
results merged deterministically in part-index order.  There is one
production path and one oracle:

* the **vectorized kernel** (:func:`repro.core.kernels.expand_block`):
  each part's embeddings are decoded straight off the CSE ``off``/``vert``
  arrays as one 2-D block (:meth:`repro.core.cse.CSE.decode_block` —
  resident levels and mmap-served spilled levels alike) and expanded by
  batched numpy CSR gathers with the canonical bounds fused in, the
  block filter applied to each chunk's survivors.  Every level, every
  application, every storage mode; a complete query pattern's level
  (its plan's :class:`~repro.core.restrictions.PatternGather`) takes
  the kernel's gather-and-probe branch;
* the **scalar per-part functions** (:func:`expand_vertex_part` /
  :func:`expand_edge_part`): the original per-embedding Python loops,
  calling the same block filter with one-row blocks and applying a
  pattern gather as a post-filter over their ``frozenset`` adjacency.
  They run only when the caller asks for them (``use_kernels=False``)
  — the independent parity oracle.

Output goes to a *sink* — in-memory for the common case, a spilling sink
(:mod:`repro.storage`) when the memory budget says the next level will not
fit; sinks accept out-of-order part submission (each write carries its
part index) so a concurrent executor can overlap part I/O with compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..balance.worksteal import Schedule
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from . import kernels
from .cse import CSE, InMemoryLevel, Level

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.trace import Tracer
    from .api import BlockFilter
    from .executor import PartExecutor
    from .restrictions import PatternGather

__all__ = [
    "ExpansionStats",
    "PartExpansion",
    "LevelSink",
    "InMemorySink",
    "BlockTask",
    "canonical_extensions",
    "expand_vertex_part",
    "expand_edge_part",
    "expand_vertex_level",
    "expand_edge_level",
    "even_parts",
]

@dataclass
class PartExpansion:
    """What expanding one part produced — the executor's unit of work."""

    index: int
    bound: tuple[int, int]
    #: Emitted last-vertex (or edge-id) array for this part, in order.
    vert: np.ndarray
    #: Per-position emitted counts over ``bound`` (len == end - start).
    counts: np.ndarray
    emitted: int
    candidates_examined: int


@dataclass
class ExpansionStats:
    """What one level expansion did, per part."""

    part_bounds: list[tuple[int, int]] = field(default_factory=list)
    part_seconds: list[float] = field(default_factory=list)
    part_emitted: list[int] = field(default_factory=list)
    candidates_examined: int = 0
    emitted: int = 0
    #: The executor's schedule for this level (real or replayed timeline).
    schedule: Schedule | None = None

    @property
    def span_seconds(self) -> float:
        """Makespan if each part ran on its own worker."""
        return max(self.part_seconds, default=0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.part_seconds)


class LevelSink:
    """Receives expansion output part by part and produces the new level.

    ``write_part`` may be called out of part order by a concurrent
    executor; the ``index`` keyword carries the part's position so
    ``finish`` can assemble the level deterministically.
    """

    def write_part(
        self, vert: np.ndarray, index: int | None = None
    ) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def finish(self, off: np.ndarray) -> Level:  # pragma: no cover - protocol
        raise NotImplementedError

    def abort(self) -> None:
        """Discard everything written so far (error-path cleanup)."""


class InMemorySink(LevelSink):
    """Accumulates parts in memory into an :class:`InMemoryLevel`.

    ``dtype`` is the id storage width of the produced level; the planner
    derives it from the graph / edge-index size
    (:func:`repro.core.kernels.id_dtype`), so id spaces past the
    ``int32`` boundary widen to ``int64`` instead of overflowing.
    """

    def __init__(self, dtype: np.dtype | None = None) -> None:
        self._parts: list[tuple[int, np.ndarray]] = []
        self._seq = 0
        self._dtype = (
            np.dtype(dtype) if dtype is not None else kernels.DEFAULT_ID_DTYPE
        )

    def write_part(self, vert: np.ndarray, index: int | None = None) -> None:
        # Only unindexed writes consume the sequence counter, and explicit
        # indices push it past themselves, so mixing indexed and unindexed
        # writes can never produce duplicate sort keys.
        if index is None:
            key = self._seq
            self._seq += 1
        else:
            key = int(index)
            self._seq = max(self._seq, key + 1)
        self._parts.append((key, vert))

    def finish(self, off: np.ndarray) -> Level:
        ordered = [vert for _, vert in sorted(self._parts, key=lambda kv: kv[0])]
        if ordered:
            vert = np.concatenate(ordered)
        else:
            vert = np.zeros(0, dtype=self._dtype)
        return InMemoryLevel(vert, off, dtype=self._dtype)

    def abort(self) -> None:
        self._parts.clear()


def even_parts(total: int, num_parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``num_parts`` contiguous near-equal parts."""
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    bounds = np.linspace(0, total, num_parts + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(num_parts)]


def _extends_inline(
    adjacency: list[frozenset[int]], embedding: tuple[int, ...], candidate: int
) -> bool:
    """Hot-path copy of :func:`repro.core.canonical.extends_canonically`
    working on pre-fetched adjacency sets (kept in sync by tests)."""
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
    for idx in range(first_neighbor + 1, len(embedding)):
        if embedding[idx] > candidate:
            return False
    return True


def canonical_extensions(graph: Graph, embedding: Sequence[int]) -> list[int]:
    """All vertices that extend ``embedding`` canonically (Definition 2)."""
    adjacency = graph.adjacency_sets()
    emb = tuple(int(v) for v in embedding)
    if len(emb) == 1:
        candidates = graph.neighbors(emb[0]).tolist()
    else:
        merged: set[int] = set()
        for v in emb:
            merged.update(adjacency[v])
        candidates = sorted(merged)
    return [cand for cand in candidates if _extends_inline(adjacency, emb, cand)]


# ----------------------------------------------------------------------
# Per-part pure functions
# ----------------------------------------------------------------------
def _filter_row(block_filter, ctx, emb: tuple[int, ...], survivors: list[int]) -> list[int]:
    """Run the block filter over one embedding's canonical survivors.

    The scalar loops' form of the call the kernel makes once per chunk:
    a one-row block, every pair pointing at row 0."""
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


def _part_expansion(index, bound, buffer, counts, examined, out_dtype) -> PartExpansion:
    return PartExpansion(
        index=index,
        bound=bound,
        vert=np.asarray(
            buffer,
            dtype=out_dtype if out_dtype is not None else kernels.DEFAULT_ID_DTYPE,
        ),
        counts=counts,
        emitted=len(buffer),
        candidates_examined=examined,
    )


def expand_vertex_part(
    graph: Graph,
    adjacency: list[frozenset[int]],
    embeddings: Sequence[tuple[int, ...]],
    bound: tuple[int, int],
    index: int,
    block_filter: "BlockFilter | None" = None,
    out_dtype: np.dtype | None = None,
    pattern_gather: "PatternGather | None" = None,
) -> PartExpansion:
    """Expand one contiguous part of a level by one vertex.

    Pure function of its inputs (the graph and adjacency are read-only),
    so an executor may run parts concurrently and in any order.  This is
    the scalar reference implementation — the parity oracle for
    :func:`repro.core.kernels.expand_block`; ``block_filter``
    is the same hook the kernel takes, called here once per embedding
    with a one-row block.  ``pattern_gather`` keeps only the canonical
    survivors adjacent to every required column and above every bound
    column — the kernel's gather-and-probe rule, checked independently.
    """
    ctx = kernels.vertex_kernel_context(graph) if block_filter is not None else None
    buffer: list[int] = []
    counts = np.zeros(len(embeddings), dtype=np.int64)
    examined = 0
    for i, emb in enumerate(embeddings):
        if len(emb) == 1:
            candidates = graph.neighbors(emb[0]).tolist()
        else:
            merged: set[int] = set()
            for v in emb:
                merged.update(adjacency[v])
            candidates = sorted(merged)
        examined += len(candidates)
        survivors = [
            cand for cand in candidates if _extends_inline(adjacency, emb, cand)
        ]
        if pattern_gather is not None:
            floor = max(emb[c] for c in pattern_gather.bound_cols)
            survivors = [
                cand for cand in survivors
                if cand > floor
                and all(cand in adjacency[emb[c]] for c in pattern_gather.required_cols)
            ]
        survivors = _filter_row(block_filter, ctx, emb, survivors)
        buffer.extend(survivors)
        counts[i] = len(survivors)
    return _part_expansion(index, bound, buffer, counts, examined, out_dtype)


def expand_edge_part(
    eu: Sequence[int],
    ev: Sequence[int],
    incident: Sequence[Sequence[int]],
    embeddings: Sequence[tuple[int, ...]],
    bound: tuple[int, int],
    index: int,
    block_filter: "BlockFilter | None" = None,
    out_dtype: np.dtype | None = None,
    ctx: "kernels.EdgeKernelContext | None" = None,
) -> PartExpansion:
    """Edge-induced analogue of :func:`expand_vertex_part`.

    CSE levels hold edge ids; the candidate set of an embedding is every
    edge incident to one of its endpoint vertices.  Scalar reference for
    :func:`repro.core.kernels.expand_block`.  ``ctx`` is the edge
    kernel context handed to ``block_filter`` (required with a filter:
    the endpoint lists alone cannot rebuild it).
    """
    if block_filter is not None and ctx is None:
        raise ValueError("expand_edge_part needs ctx= to run a block filter")
    buffer: list[int] = []
    counts = np.zeros(len(embeddings), dtype=np.int64)
    examined = 0
    for i, emb in enumerate(embeddings):
        # Arrival index: first embedding position at which each vertex
        # appears — gives the O(1) "first reachable" step of the
        # edge-canonicality rule.
        arrival: dict[int, int] = {}
        for idx, eid in enumerate(emb):
            for w in (eu[eid], ev[eid]):
                if w not in arrival:
                    arrival[w] = idx
        candidates: set[int] = set()
        for w in arrival:
            candidates.update(incident[w])
        emb_set = set(emb)
        first_id = emb[0]
        k = len(emb)
        survivors: list[int] = []
        examined += len(candidates)
        for cand in sorted(candidates):
            if cand <= first_id or cand in emb_set:
                continue
            first = arrival.get(eu[cand], k)
            other = arrival.get(ev[cand], k)
            if other < first:
                first = other
            if first >= k:
                continue
            ok = True
            for idx in range(first + 1, k):
                if emb[idx] > cand:
                    ok = False
                    break
            if ok:
                survivors.append(cand)
        survivors = _filter_row(block_filter, ctx, emb, survivors)
        buffer.extend(survivors)
        counts[i] = len(survivors)
    return _part_expansion(index, bound, buffer, counts, examined, out_dtype)


# ----------------------------------------------------------------------
# Vectorized block tasks (one per part, shipped whole to executors)
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class BlockTask:
    """One part's vectorized expansion: a decoded block plus its bounds.

    Instances are the executor's unit of work on the kernel path, for
    both exploration modes (the context's kind picks the gather).
    ``block_filter`` is the application's filter (or None); graph arrays
    reach it through the kernel context.  ``pattern_gather`` is the
    level plan's gather descriptor (or None).
    """

    ctx: "kernels.VertexKernelContext | kernels.EdgeKernelContext"
    block: np.ndarray
    bound: tuple[int, int]
    index: int
    block_filter: "BlockFilter | None" = None
    pattern_gather: "PatternGather | None" = None

    def __call__(self) -> PartExpansion:
        vert, counts, examined = kernels.expand_block(
            self.ctx, self.block, self.block_filter, self.pattern_gather
        )
        return PartExpansion(
            index=self.index,
            bound=self.bound,
            vert=vert,
            counts=counts,
            emitted=int(vert.shape[0]),
            candidates_examined=examined,
        )


def _scalar_task_factory(cse: CSE, make_part: Callable[..., PartExpansion]):
    """Tasks that stream the level once and decode tuples per part
    (the scalar oracle's path).

    Each part's embeddings are decoded lazily as the executor pulls its
    task, so the serial executor holds at most one part's tuples in
    memory at a time.
    """

    def factory(parts: Sequence[tuple[int, int]]):
        emb_iter = iter(cse.iter_embeddings())
        for index, bound in enumerate(parts):
            start, end = bound
            embeddings = [emb for _, emb in islice(emb_iter, end - start)]
            yield partial(make_part, embeddings, bound, index)

    return factory


def _block_task_factory(cse: CSE, ctx, block_filter=None, pattern_gather=None):
    """Tasks that decode each part as one 2-D block (kernel path).

    Decoding happens as the executor pulls each task, so at most a
    bounded number of blocks (the executor's in-flight window) exist at
    once; ``block_filter`` is the application's keep-mask over each
    chunk's survivors, ``pattern_gather`` the level's gather descriptor.
    """

    def factory(parts: Sequence[tuple[int, int]]):
        for index, (start, end) in enumerate(parts):
            yield BlockTask(
                ctx, cse.decode_block(start, end), (start, end), index,
                block_filter, pattern_gather,
            )

    return factory


# ----------------------------------------------------------------------
# Driver: stream the level into part tasks, execute, merge in part order
# ----------------------------------------------------------------------
def _run_expansion(
    cse: CSE,
    parts: Sequence[tuple[int, int]] | None,
    sink: LevelSink | None,
    executor: "PartExecutor | None",
    workers: int,
    task_factory: Callable[[Sequence[tuple[int, int]]], Iterable[Callable[[], PartExpansion]]],
    tracer: "Tracer | None" = None,
    dtype: np.dtype | None = None,
) -> ExpansionStats:
    """Common expansion driver shared by the vertex and edge paths.

    ``task_factory`` turns the part bounds into executor tasks — either
    the streaming scalar decode or the vectorized block decode.
    Completed parts go to the sink as they finish (possibly out of
    order); counts and stats are assembled in part-index order, so the
    produced level is identical for every executor.
    """
    from .executor import SerialExecutor

    total = cse.size()
    if parts is None:
        parts = [(0, total)]
    _check_parts(parts, total)
    if sink is None:
        sink = InMemorySink(dtype=dtype)
    if executor is None:
        executor = SerialExecutor()

    counts = np.zeros(total, dtype=np.int64)

    def on_result(index: int, part: PartExpansion) -> None:
        sink.write_part(part.vert, index=index)
        start, end = part.bound
        counts[start:end] = part.counts

    try:
        report = executor.run(
            task_factory(parts), workers=workers, on_result=on_result,
            tracer=tracer, phase="execute",
        )
    except BaseException:
        sink.abort()
        raise

    stats = ExpansionStats(schedule=report.schedule)
    for part, seconds in zip(report.results, report.durations):
        stats.part_bounds.append(part.bound)
        stats.part_seconds.append(seconds)
        stats.part_emitted.append(part.emitted)
        stats.candidates_examined += part.candidates_examined
        stats.emitted += part.emitted

    off = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    try:
        cse.append_level(sink.finish(off))
    except BaseException:
        # finish() may surface a background-writer error (or an off/vert
        # mismatch); discard whatever parts already landed so a failed
        # level never leaks spill files.
        sink.abort()
        raise
    return stats


def expand_vertex_level(
    graph: Graph,
    cse: CSE,
    block_filter: "BlockFilter | None" = None,
    parts: Sequence[tuple[int, int]] | None = None,
    sink: LevelSink | None = None,
    executor: "PartExecutor | None" = None,
    workers: int = 1,
    tracer: "Tracer | None" = None,
    use_kernels: bool = True,
    pattern_gather: "PatternGather | None" = None,
) -> ExpansionStats:
    """Expand the CSE's top level by one vertex (one exploration iteration).

    Parts are contiguous position ranges over the top level; each becomes
    one executor task.  Runs the vectorized block kernel
    (:func:`repro.core.kernels.expand_block`); ``use_kernels=False``
    runs the scalar per-embedding loop instead — the parity oracle,
    which emits the same level while examining more candidates.
    ``block_filter`` (the application's
    :data:`~repro.core.api.BlockFilter`, or None) prunes canonical
    survivors on either path.  ``pattern_gather`` (the level plan's
    :class:`~repro.core.restrictions.PatternGather`, or None) restricts
    the level to a complete query pattern's bindings: the kernel's
    gather-and-probe branch, or the scalar loop's post-filter.  Appends
    the new level to the CSE and returns the per-part stats.
    ``tracer`` (optional) receives the executor's per-part worker spans.
    """
    dtype = graph.id_dtype
    if use_kernels:
        ctx = kernels.vertex_kernel_context(graph, out_dtype=dtype)
        return _run_kernel_expansion(
            cse, ctx, block_filter, parts, sink, executor, workers, tracer, dtype,
            pattern_gather,
        )
    adjacency = graph.adjacency_sets()
    make_part = partial(
        _vertex_part_task, graph, adjacency, block_filter, dtype, pattern_gather
    )
    return _run_expansion(
        cse, parts, sink, executor, workers,
        _scalar_task_factory(cse, make_part), tracer, dtype,
    )


def _vertex_part_task(
    graph, adjacency, block_filter, dtype, pattern_gather, embeddings, bound, index
):
    return expand_vertex_part(
        graph, adjacency, embeddings, bound, index, block_filter,
        out_dtype=dtype, pattern_gather=pattern_gather,
    )


def expand_edge_level(
    graph: Graph,
    index: EdgeIndex,
    cse: CSE,
    block_filter: "BlockFilter | None" = None,
    parts: Sequence[tuple[int, int]] | None = None,
    sink: LevelSink | None = None,
    executor: "PartExecutor | None" = None,
    workers: int = 1,
    tracer: "Tracer | None" = None,
    use_kernels: bool = True,
) -> ExpansionStats:
    """Edge-induced analogue of :func:`expand_vertex_level`."""
    dtype = index.id_dtype
    ctx = kernels.edge_kernel_context(index, out_dtype=dtype)
    if use_kernels:
        return _run_kernel_expansion(
            cse, ctx, block_filter, parts, sink, executor, workers, tracer, dtype
        )
    eu, ev = index.endpoint_lists()
    incident = index.incident_lists()
    make_part = partial(_edge_part_task, eu, ev, incident, block_filter, dtype, ctx)
    return _run_expansion(
        cse, parts, sink, executor, workers,
        _scalar_task_factory(cse, make_part), tracer, dtype,
    )


def _edge_part_task(eu, ev, incident, block_filter, dtype, ctx, embeddings, bound, index):
    return expand_edge_part(
        eu, ev, incident, embeddings, bound, index, block_filter,
        out_dtype=dtype, ctx=ctx,
    )


def _run_kernel_expansion(
    cse, ctx, block_filter, parts, sink, executor, workers, tracer, dtype,
    pattern_gather=None,
) -> ExpansionStats:
    """Kernel path of both ``expand_*_level`` functions: one block task
    per part."""
    return _run_expansion(
        cse, parts, sink, executor, workers,
        _block_task_factory(cse, ctx, block_filter, pattern_gather), tracer, dtype,
    )


def _check_parts(parts: Sequence[tuple[int, int]], total: int) -> None:
    expected = 0
    for start, end in parts:
        if start != expected or end < start:
            raise ValueError(f"parts must be contiguous over 0..{total}, got {parts}")
        expected = end
    if expected != total:
        raise ValueError(f"parts cover 0..{expected}, level has {total} embeddings")
