"""Vertex-induced frequent subgraph mining.

The paper's FSM is edge-induced (Section 5.1), but its exploration model
supports both modes (Section 1.1: "The exploration of subgraphs can be
executed as vertex-induced and edge-induced").  This variant mines
frequent *induced* k-vertex patterns: each embedding is a connected
vertex set carrying all of its induced edges, and support is the same
MNI measure over canonical pattern positions.  Only the encoder differs
from edge-induced FSM: :func:`vertex_codes` feeds the same
:func:`~repro.apps.mni.fold_mni_block`, so each part's domains are one
sorted int64 key array (:class:`~repro.apps.mni.MNIState`), merged,
pruned and reported by :class:`~repro.apps.fsm.MNIApplication`'s array
reduce.

Note the semantic difference from edge-induced FSM: a triangle embedding
never contributes to the 2-edge path pattern here, because its induced
subgraph has three edges.  Anti-monotonicity still holds for *vertex*
sub-patterns, so per-iteration pruning drops embeddings whose induced
pattern is infrequent.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..core.api import CandidateTable, EngineContext, PatternMap
from ..core.kernels import VertexKernelContext, vertex_kernel_context
from ..core.pattern import MAX_EIGENHASH_VERTICES, triangle_index
from ..graph.graph import Graph
from .fsm import MNIApplication
from .mni import fold_mni_block

__all__ = ["VertexInducedFSM"]


def edge_keys(graph: Graph) -> np.ndarray | None:
    """Sorted ``u * n + v`` keys of the graph's edges (``u < v``), which
    :func:`vertex_codes` searches for edge labels; ``None`` on graphs
    without edge labels."""
    if not graph.has_edge_labels:
        return None
    eu, ev = graph.edge_arrays()
    return eu.astype(np.int64) * graph.num_vertices + ev


def vertex_codes(
    kctx: VertexKernelContext,
    graph: Graph,
    keys: np.ndarray | None,
    slab: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:data:`~repro.apps.mni.BlockEncoder` of vertex-induced embeddings:
    the block columns already are the structure order, and the induced
    edges come from batched ``has_edges`` probes (their labels from
    ``keys``, :func:`edge_keys` built once per block)."""
    slab = slab.astype(np.int64, copy=False)
    rows, k = slab.shape
    bits = np.zeros(rows, dtype=np.int64)
    by_cell = np.zeros((rows, k * (k - 1) // 2), dtype=np.int64)
    assert keys is None or graph.edge_labels is not None
    for i in range(k):
        for j in range(i + 1, k):
            cell = triangle_index(i, j, k)
            present = kctx.has_edges(slab[:, i], slab[:, j])
            bits[present] |= 1 << cell
            if keys is not None:
                lo = np.minimum(slab[present, i], slab[present, j])
                hi = np.maximum(slab[present, i], slab[present, j])
                eid = np.searchsorted(keys, lo * graph.num_vertices + hi)
                by_cell[present, cell] = graph.edge_labels[eid]
    columns = [np.full((rows, 1), k), graph.labels[slab], bits[:, None]]
    if keys is not None:
        columns.append(by_cell)
    return slab, np.hstack(columns).astype(np.int64, copy=False)


class VertexInducedFSM(MNIApplication):
    """Frequent induced k-vertex patterns under MNI support."""

    induced = "vertex"

    def __init__(
        self, num_vertices: int, support: int, exact_mni: bool = False
    ) -> None:
        if num_vertices < 2:
            raise ValueError("num_vertices must be at least 2")
        if num_vertices > MAX_EIGENHASH_VERTICES:
            raise ValueError(
                f"num_vertices must be at most MAX_EIGENHASH_VERTICES "
                f"({MAX_EIGENHASH_VERTICES}), got {num_vertices}"
            )
        super().__init__(support, exact_mni)
        self.num_vertices = num_vertices
        self._frequent_vertices = np.zeros(0, dtype=bool)

    @property
    def name(self) -> str:
        return f"vFSM(k={self.num_vertices},s={self.support})"

    def init(self, ctx: EngineContext) -> np.ndarray:
        """Seed with vertices of frequent labels (the 1-vertex patterns)."""
        labels = ctx.graph.labels
        values, counts = np.unique(labels, return_counts=True)
        self._frequent_vertices = np.isin(labels, values[counts >= self.support])
        return np.flatnonzero(self._frequent_vertices).astype(np.int32)

    def iterations(self) -> int:
        return self.num_vertices - 1

    def block_filter(self, ctx: EngineContext) -> CandidateTable:
        """Only expand by vertices of frequent labels."""
        return CandidateTable(self._frequent_vertices)

    def map_block(self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap) -> None:
        """Patternise the part's induced subgraphs and fold their
        automorphic placements into per-pattern MNI domains."""
        graph = ctx.graph
        encode = partial(vertex_codes, vertex_kernel_context(graph), graph, edge_keys(graph))
        fold_mni_block(ctx, block, pmap, encode, self._threshold)
