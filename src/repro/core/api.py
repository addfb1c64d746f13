"""The Kaleido programming API (Listing 1 of the paper).

Graph mining applications subclass :class:`MiningApplication` and provide
the hooks of Listing 1:

* ``init``                — seed embeddings (vertices for vertex-induced
  exploration, edge ids for edge-induced);
* ``block_filter``        — optional pruning of candidates during
  exploration, vectorized: a :data:`BlockFilter` that masks a whole
  block of ``(embedding, candidate)`` pairs at once (the canonical
  filter is always applied first, as the paper's "default embedding
  filter");
* ``map_block``           — the AggregatingMapper: fold one part's block
  of embeddings — an ``(rows, k)`` id array decoded straight from the
  CSE — into the part's own PatternMap (a pure per-part function:
  everything a part produces lives in its map, so concurrent executors
  stay deterministic).  Apps with a per-row mapper define
  ``map_embedding`` instead; the default ``map_block`` feeds it one
  tuple per row;
* ``reduce``              — the AggregatingReducer: merge the part maps,
  in part order, and apply the app's PatternFilter.

The engine (:class:`repro.core.engine.KaleidoEngine`) drives the two
phases: embedding exploration then pattern aggregation.  Applications that
aggregate *every* iteration (FSM) set ``aggregate_every_iteration`` and get
a ``prune`` callback to drop embeddings of infrequent patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from .cse import CSE

if TYPE_CHECKING:  # pragma: no cover
    from .engine import KaleidoEngine

__all__ = [
    "PatternMap",
    "BlockFilter",
    "CandidateTable",
    "EngineContext",
    "MiningApplication",
    "MiningResult",
]

#: Rows the default per-row ``map_block`` converts to Python ints at a
#: time.  A Python int costs ~40 bytes per id, so a slab of this many
#: 4-id rows is ~0.7 MB however large the part (a whole 333K-row part
#: would be 53 MB).
ADAPTOR_ROWS = 4096

#: Pattern hash → application-defined aggregate (count, MNI domains, ...).
PatternMap = dict[int, Any]

#: Listing 1's ``EmbeddingFilter``, vectorized:
#: ``keep = block_filter(ctx, block, rows, candidates)``.
#:
#: ``block`` is an ``(n_rows, k)`` ``int64`` array of same-length
#: embeddings (vertex ids, or edge ids under edge-induced exploration);
#: pair ``i`` proposes extending embedding ``block[rows[i]]`` by
#: ``candidates[i]`` (both ``int64``, pairs grouped by row, candidates
#: ascending within a row).  Every pair already passed dedup and the
#: canonical filter.  ``ctx`` is the kernel's read-only graph bundle — a
#: :class:`~repro.core.kernels.VertexKernelContext` (``has_edges``,
#: ``indptr`` / ``indices``) or
#: :class:`~repro.core.kernels.EdgeKernelContext` (``edge_u`` /
#: ``edge_v`` endpoints) — so a filter never has to carry graph arrays
#: itself.  Returns a ``bool`` array, one entry per pair.
#:
#: A filter must be a pure function of its arguments (holding only its
#: own lookup tables): the engine calls it from pool threads.
BlockFilter = Callable[[Any, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Block filter keeping the candidates a boolean table allows.

    ``allowed`` is indexed by candidate id (vertex id, or edge id under
    edge-induced exploration) — the shape of FSM's "expand only by
    frequent edges / labels" pruning."""

    allowed: np.ndarray

    def __call__(self, ctx, block, rows, candidates) -> np.ndarray:
        return self.allowed[candidates]


@dataclass
class EngineContext:
    """Everything a mining application may need while running."""

    graph: Graph
    engine: "KaleidoEngine"
    edge_index: EdgeIndex | None = None

    def hash_pattern(self, pattern) -> int:
        """Fingerprint a pattern with the engine's isomorphism checker."""
        return self.engine.hasher.hash_pattern(pattern)

    def hash_codes(self, codes, kmax: int):
        """Fingerprint a stack of code rows at once (``uint64``): exactly
        ``[hash_pattern(Pattern.from_code(row, kmax)) for row in codes]``,
        with the hasher free to batch the work."""
        return self.engine.hasher.hash_codes(codes, kmax)


class MiningApplication:
    """Base class for Kaleido mining applications (Listing 1)."""

    #: "vertex" or "edge" — which induced exploration to run.
    induced: str = "vertex"
    #: Run map/reduce after every exploration iteration (FSM) instead of
    #: once at the end.
    aggregate_every_iteration: bool = False
    #: Whether the mapper's cost per row scales with the embedding's
    #: candidate count (motif counting expands candidates on the fly) —
    #: if so, the engine partitions the aggregation phase by the
    #: candidate-size prediction; otherwise per-embedding cost is roughly
    #: uniform and an even count split balances better.
    mapper_cost_tracks_candidates: bool = False

    # ------------------------------------------------------------------
    # Phase 1 hooks
    # ------------------------------------------------------------------
    def init(self, ctx: EngineContext) -> np.ndarray:
        """Seed ids for level 1 (vertex ids or edge ids).

        Default: every vertex for vertex-induced exploration, every edge
        for edge-induced."""
        if self.induced == "vertex":
            return np.arange(ctx.graph.num_vertices, dtype=np.int32)
        assert ctx.edge_index is not None
        return np.arange(ctx.edge_index.num_edges, dtype=np.int32)

    def iterations(self) -> int:
        """How many expansion iterations to run after ``init``."""
        raise NotImplementedError

    def block_filter(self, ctx: EngineContext) -> "BlockFilter | None":
        """Listing 1's EmbeddingFilter as a :data:`BlockFilter`, or None
        (the default) to accept every canonical extension.

        Called once per run, after ``init`` — build lookup tables there
        and return the (pure) filter object here; the
        expansion kernels apply it to each chunk's canonical survivors
        on every executor."""
        return None

    def query_pattern(self):
        """The single query :class:`~repro.core.pattern.Pattern` this app
        mines, or None for apps that mine all patterns at once (FSM,
        motif counting).

        The planner compiles the pattern's automorphism group into a
        symmetry-breaking :class:`~repro.core.restrictions.RestrictionSet`,
        surfaced in the run result's ``extra["pattern_restrictions"]``.
        The pattern changes how a vertex-induced app explores when it is
        *complete* with every vertex label equal (K_k): each level then
        gathers only the candidates adjacent to every embedding vertex
        (:func:`~repro.core.restrictions.pattern_gathers`), so the levels
        hold cliques and no all-adjacent block filter is needed.  Any
        other pattern leaves exploration unchanged.
        """
        return None

    # ------------------------------------------------------------------
    # Phase 2 hooks
    # ------------------------------------------------------------------
    def map_block(
        self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap
    ) -> None:
        """AggregatingMapper: fold one part's embeddings into ``pmap``.

        ``block`` is the part's ``(rows, k)`` id array in CSE storage
        order (vertex ids, or edge ids under edge-induced exploration);
        the engine calls this once per part, with a fresh ``pmap``.  Must
        be a pure function of ``(block, pmap)`` — concurrent executors
        run parts on pool threads, so shared application state may only
        be *read* here.  Any per-part output beyond pattern counts
        (positional hashes, materialised embeddings) goes in the part's
        ``pmap`` too, for :meth:`reduce` to take in.

        The default runs ``map_embedding`` once per row, passing the row
        as a tuple of ints.  It converts :data:`ADAPTOR_ROWS` rows to
        Python ints at a time, so a large part never exists as Python
        ints all at once."""
        for lo in range(0, block.shape[0], ADAPTOR_ROWS):
            for embedding in zip(*block[lo : lo + ADAPTOR_ROWS].T.tolist()):
                self.map_embedding(ctx, embedding, pmap)

    def map_embedding(
        self, ctx: EngineContext, embedding: tuple[int, ...], pmap: PatternMap
    ) -> None:
        """Per-row mapper convenience: fold one embedding into ``pmap``.

        Only the default :meth:`map_block` calls this; the same purity
        contract holds."""
        raise NotImplementedError

    def reduce(self, ctx: EngineContext, pmaps: list[PatternMap]) -> PatternMap:
        """AggregatingReducer: merge the part maps into one.

        ``pmaps`` are the parts' maps in part-index order, whatever order
        the executor completed them in.  Called from the coordinating
        thread, so this is where per-part output is taken into the
        application, and where an app drops the patterns its
        PatternFilter rejects.  The default sums numeric values."""
        merged: PatternMap = {}
        for pmap in pmaps:
            for key, value in pmap.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    # ------------------------------------------------------------------
    # Iteration-coupled aggregation (FSM)
    # ------------------------------------------------------------------
    def prune(
        self, ctx: EngineContext, cse: CSE, reduced: PatternMap
    ) -> np.ndarray | None:
        """Return a keep-mask over the top level, or None to keep all.

        Only called when ``aggregate_every_iteration`` is set."""
        return None

    # ------------------------------------------------------------------
    # Mid-run checkpointing (crash recovery)
    # ------------------------------------------------------------------
    def checkpoint_state(self, ctx: EngineContext) -> Any:
        """Cross-iteration state to carry in a mid-run checkpoint.

        Whatever is returned is pickled into the engine's per-level
        checkpoint and handed back to :meth:`restore_state` on resume.
        Only state that *accumulates across iterations* belongs here
        (derived caches are rebuilt; ``init`` runs again on resume);
        the default ``None`` suits stateless applications."""
        return None

    def restore_state(self, ctx: EngineContext, state: Any) -> None:
        """Reinstall :meth:`checkpoint_state`'s value after a resume."""

    # ------------------------------------------------------------------
    def pmap_nbytes(self, pmap: PatternMap) -> int:
        """Accounted size of one PatternMap (override for rich values)."""
        return 160 * len(pmap)

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> Any:
        """Turn the final PatternMap into the application's result value."""
        return pmap

    @property
    def name(self) -> str:
        """The application's name in results and traces.

        ``run(resume=True)`` matches checkpoints by this name, so every
        parameter that changes the answer must either be in it
        (``4-Motif``, not ``Motif``) or be carried in
        :meth:`checkpoint_state` and checked by :meth:`restore_state`
        (FSM's ``exact_mni``); otherwise a run resumes another's
        checkpoint.
        """
        return type(self).__name__


@dataclass
class MiningResult:
    """What one engine run produced and what it cost."""

    app_name: str
    value: Any
    pattern_map: PatternMap
    wall_seconds: float
    simulated_seconds: float
    peak_memory_bytes: int
    level_sizes: list[int] = field(default_factory=list)
    phase_spans: dict[str, float] = field(default_factory=dict)
    io_bytes_read: int = 0
    io_bytes_written: int = 0
    memory_snapshot: dict[str, int] = field(default_factory=dict)
    schedules: list[Any] = field(default_factory=list)
    utilization: float = 1.0
    extra: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.app_name}: {self.wall_seconds:.3f}s wall, "
            f"{self.simulated_seconds:.3f}s simulated, "
            f"peak {self.peak_memory_bytes / 1e6:.2f} MB, "
            f"levels {self.level_sizes}"
        )
