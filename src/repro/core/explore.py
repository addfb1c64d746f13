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
results merged deterministically in part-index order.  Every part runs
the one **vectorized kernel** (:func:`repro.core.kernels.expand_block`):
its embeddings are decoded straight off the CSE ``off``/``vert`` arrays
as one 2-D block (:meth:`repro.core.cse.CSE.decode_block` — resident
levels and mmap-served spilled levels alike) and expanded by batched
numpy CSR gathers with the canonical bounds fused in, the block filter
applied to each chunk's survivors.  Every level, every application,
every storage mode; a complete query pattern's level (its plan's
:class:`~repro.core.restrictions.PatternGather`) takes the kernel's
gather-and-probe branch.  Each part is a :class:`BlockTask`, so a test
executor can swap in an independent implementation per part without
an engine knob.

Output goes to a *sink* — in-memory for the common case, a spilling sink
(:mod:`repro.storage`) when the memory budget says the next level will not
fit; sinks accept out-of-order part submission (each write carries its
part index) so a concurrent executor can overlap part I/O with compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

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
    executor; the required ``index`` carries the part's position so
    ``finish`` can assemble the level deterministically.
    """

    def write_part(
        self, vert: np.ndarray, index: int
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
        self._parts: dict[int, np.ndarray] = {}
        self._dtype = (
            np.dtype(dtype) if dtype is not None else kernels.DEFAULT_ID_DTYPE
        )

    def write_part(self, vert: np.ndarray, index: int) -> None:
        self._parts[index] = vert

    def finish(self, off: np.ndarray) -> Level:
        ordered = [self._parts[i] for i in sorted(self._parts)]
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


# ----------------------------------------------------------------------
# Vectorized block tasks (one per part, shipped whole to executors)
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class BlockTask:
    """One part's vectorized expansion: a decoded block plus its bounds.

    Instances are the executor's unit of work for both exploration
    modes (the context's kind picks the gather); an executor may run a
    different implementation over the same fields, as the tests'
    oracle executor does.
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


def _block_tasks(
    cse: CSE,
    parts: Sequence[tuple[int, int]],
    ctx: "kernels.VertexKernelContext | kernels.EdgeKernelContext",
    block_filter: "BlockFilter | None",
    pattern_gather: "PatternGather | None",
) -> Iterator[BlockTask]:
    """One :class:`BlockTask` per part, each decoded as a 2-D block.

    Decoding happens as the executor pulls each task, so at most a
    bounded number of blocks (the executor's in-flight window) exist at
    once; ``block_filter`` is the application's keep-mask over each
    chunk's survivors, ``pattern_gather`` the level's gather descriptor.
    """
    for index, (start, end) in enumerate(parts):
        yield BlockTask(
            ctx, cse.decode_block(start, end), (start, end), index,
            block_filter, pattern_gather,
        )


# ----------------------------------------------------------------------
# Driver: stream the level into part tasks, execute, merge in part order
# ----------------------------------------------------------------------
def _run_expansion(
    cse: CSE,
    ctx: "kernels.VertexKernelContext | kernels.EdgeKernelContext",
    block_filter: "BlockFilter | None",
    pattern_gather: "PatternGather | None",
    parts: Sequence[tuple[int, int]] | None,
    sink: LevelSink | None,
    executor: "PartExecutor | None",
    workers: int,
    tracer: "Tracer | None",
) -> ExpansionStats:
    """Common expansion driver shared by the vertex and edge paths.

    Each part becomes one :class:`BlockTask`.  Completed parts go to the
    sink as they finish (possibly out of order); counts and stats are
    assembled in part-index order, so the produced level is identical
    for every executor.
    """
    from .executor import SerialExecutor

    total = cse.size()
    if parts is None:
        parts = [(0, total)]
    _check_parts(parts, total)
    if sink is None:
        sink = InMemorySink(dtype=ctx.out_dtype)
    if executor is None:
        executor = SerialExecutor()

    counts = np.zeros(total, dtype=np.int64)

    def on_result(index: int, part: PartExpansion) -> None:
        sink.write_part(part.vert, index=index)
        start, end = part.bound
        counts[start:end] = part.counts

    try:
        report = executor.run(
            _block_tasks(cse, parts, ctx, block_filter, pattern_gather),
            workers=workers, on_result=on_result, tracer=tracer, phase="execute",
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
        # finish() may raise on an off/vert mismatch; discard whatever
        # parts already landed so a failed level never leaks spill files.
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
    pattern_gather: "PatternGather | None" = None,
) -> ExpansionStats:
    """Expand the CSE's top level by one vertex (one exploration iteration).

    Parts are contiguous position ranges over the top level; each becomes
    one executor task running the vectorized block kernel
    (:func:`repro.core.kernels.expand_block`).  ``block_filter`` (the
    application's :data:`~repro.core.api.BlockFilter`, or None) prunes
    canonical survivors.  ``pattern_gather`` (the level plan's
    :class:`~repro.core.restrictions.PatternGather`, or None) restricts
    the level to a complete query pattern's bindings through the
    kernel's gather-and-probe branch.  Appends the new level to the CSE
    and returns the per-part stats.  ``tracer`` (optional) receives the
    executor's per-part worker spans.
    """
    ctx = kernels.vertex_kernel_context(graph)
    return _run_expansion(
        cse, ctx, block_filter, pattern_gather, parts, sink, executor, workers, tracer
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
) -> ExpansionStats:
    """Edge-induced analogue of :func:`expand_vertex_level`."""
    ctx = kernels.edge_kernel_context(index)
    return _run_expansion(
        cse, ctx, block_filter, None, parts, sink, executor, workers, tracer
    )


def _check_parts(parts: Sequence[tuple[int, int]], total: int) -> None:
    expected = 0
    for start, end in parts:
        if start != expected or end < start:
            raise ValueError(f"parts must be contiguous over 0..{total}, got {parts}")
        expected = end
    if expected != total:
        raise ValueError(f"parts cover 0..{expected}, level has {total} embeddings")
