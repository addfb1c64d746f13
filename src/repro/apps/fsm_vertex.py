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

import numpy as np

from ..core.api import CandidateTable, EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.pattern import Pattern
from .fsm import FSMMapperPart, FSMResult
from .mni import MNIDomains, PositionMapper, merge_domains

__all__ = ["VertexInducedFSM"]


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
        self._mapper = PositionMapper()
        self._iter_hashes: list[int] = []
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
        self._iter_hashes.extend(part.hashes)

    def map_embedding(
        self,
        ctx: EngineContext,
        embedding: tuple[int, ...],
        pmap: PatternMap,
        part: FSMMapperPart | None = None,
    ) -> None:
        pattern = Pattern.from_vertex_embedding(ctx.graph, embedding)
        phash = ctx.hash_pattern(pattern)
        dom = pmap.get(phash)
        if dom is None:
            dom = pmap[phash] = MNIDomains(len(embedding))
        for placement in self._mapper.placements(pattern, list(embedding)):
            dom.add(placement, self._threshold)
        if part is None:  # direct three-argument call (serial/tests)
            # Engine calls always pass a part; this is the single-threaded
            # direct-call path only.
            self._iter_hashes.append(phash)  # repro: ignore[R001]
        else:
            part.hashes.append(phash)

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
        frequent = {
            phash for phash, dom in reduced.items() if dom.support >= self.support
        }
        keep = np.fromiter(
            (phash in frequent for phash in self._iter_hashes),
            dtype=bool,
            count=len(self._iter_hashes),
        )
        self._iter_hashes = []
        if keep.all():
            return None
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
