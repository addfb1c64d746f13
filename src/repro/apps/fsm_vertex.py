"""Vertex-induced frequent subgraph mining.

The paper's FSM is edge-induced (Section 5.1), but its exploration model
supports both modes (Section 1.1: "The exploration of subgraphs can be
executed as vertex-induced and edge-induced").  This variant mines
frequent *induced* k-vertex patterns: each embedding is a connected
vertex set carrying all of its induced edges, and support is the same
MNI measure over canonical pattern positions.

Note the semantic difference from edge-induced FSM: a triangle embedding
never contributes to the 2-edge path pattern here, because its induced
subgraph has three edges.  Anti-monotonicity still holds for *vertex*
sub-patterns, so per-iteration pruning drops embeddings whose induced
pattern is infrequent.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..core.api import CandidateTable, EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.kernels import VertexKernelContext, vertex_kernel_context
from ..core.pattern import triangle_index
from ..graph.graph import Graph
from .fsm import FSMMapperPart, FSMResult
from .mni import PlacementTable, fold_mni_block, frequent_mask, merge_domains

__all__ = ["VertexInducedFSM"]


def vertex_codes(
    kctx: VertexKernelContext, graph: Graph, slab: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:data:`~repro.apps.mni.BlockEncoder` of vertex-induced embeddings:
    the block columns already are the structure order, and the induced
    edges come from batched ``has_edges`` probes."""
    slab = slab.astype(np.int64, copy=False)
    rows, k = slab.shape
    bits = np.zeros(rows, dtype=np.int64)
    by_cell = np.zeros((rows, k * (k - 1) // 2), dtype=np.int64)
    if graph.has_edge_labels:
        assert graph.edge_labels is not None
        eu, ev = graph.edge_arrays()
        edge_keys = eu.astype(np.int64) * graph.num_vertices + ev
    for i in range(k):
        for j in range(i + 1, k):
            cell = triangle_index(i, j, k)
            present = kctx.has_edges(slab[:, i], slab[:, j])
            bits[present] |= 1 << cell
            if graph.has_edge_labels:
                lo = np.minimum(slab[present, i], slab[present, j])
                hi = np.maximum(slab[present, i], slab[present, j])
                eid = np.searchsorted(edge_keys, lo * graph.num_vertices + hi)
                by_cell[present, cell] = graph.edge_labels[eid]
    columns = [np.full((rows, 1), k), graph.labels[slab], bits[:, None]]
    if graph.has_edge_labels:
        columns.append(by_cell)
    return slab, np.hstack(columns).astype(np.int64, copy=False)


class VertexInducedFSM(MiningApplication):
    """Frequent induced k-vertex patterns under MNI support."""

    induced = "vertex"
    aggregate_every_iteration = True

    def __init__(
        self, num_vertices: int, support: int, exact_mni: bool = False
    ) -> None:
        if num_vertices < 2:
            raise ValueError("num_vertices must be at least 2")
        if support < 1:
            raise ValueError("support must be at least 1")
        self.num_vertices = num_vertices
        self.support = support
        self.exact_mni = exact_mni
        self._table = PlacementTable()
        self._iter_hashes: list[np.ndarray] = []
        self._frequent_vertices = np.zeros(0, dtype=bool)

    @property
    def name(self) -> str:
        return f"vFSM(k={self.num_vertices},s={self.support})"

    @property
    def _threshold(self) -> int | None:
        return None if self.exact_mni else self.support

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

    def start_part(self, ctx: EngineContext) -> FSMMapperPart:
        return FSMMapperPart()

    def finish_part(self, ctx: EngineContext, part: FSMMapperPart) -> None:
        self._iter_hashes.append(part.hashes)

    def map_block(
        self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap, part=None
    ) -> None:
        """Patternise the part's induced subgraphs and fold their
        automorphic placements into per-pattern MNI domains."""
        encode = partial(vertex_codes, vertex_kernel_context(ctx.graph), ctx.graph)
        part.hashes, part.insertions = fold_mni_block(
            ctx, block, pmap, encode, self._table, self._threshold
        )
        part.mapped = block.shape[0]

    def reduce(self, ctx: EngineContext, pmaps: list[PatternMap]) -> PatternMap:
        merged: PatternMap = {}
        for pmap in pmaps:
            for phash, dom in pmap.items():
                mine = merged.get(phash)
                if mine is None:
                    merged[phash] = dom
                else:
                    merge_domains(mine, dom, self._threshold)
        return merged

    def prune(
        self, ctx: EngineContext, cse: CSE, reduced: PatternMap
    ) -> np.ndarray | None:
        keep = frequent_mask(self._iter_hashes, reduced, self.support)
        self._iter_hashes = []
        return keep

    def pmap_nbytes(self, pmap: PatternMap) -> int:
        return sum(120 + dom.nbytes for dom in pmap.values())

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> FSMResult:
        supports = {
            phash: dom.support
            for phash, dom in pmap.items()
            if dom.support >= self.support
        }
        patterns = {}
        for phash in supports:
            rep = ctx.engine.hasher.representative(phash)
            if rep is not None:
                patterns[phash] = rep
        return FSMResult(supports, patterns)
