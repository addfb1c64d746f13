"""Frequent subgraph mining (edge-induced, MNI support) — Section 5.1.

``k``-FSM mines frequent patterns with ``k - 1`` edges (and at most ``k``
vertices), matching the paper's naming: "for k-FSM, we mine the frequent
subgraphs [with] k − 1 edges".

The implementation follows the paper exactly:

* ``Init`` computes the MNI support of every single-edge pattern and keeps
  only frequent edges as 1-embeddings;
* each iteration expands embeddings by one *frequent* edge
  (EmbeddingFilter), then the Mapper patternises every embedding and the
  Reducer prunes infrequent patterns *and their embeddings* from the CSE;
* support counting short-circuits at the threshold unless
  ``exact_mni=True`` (Kaleido "does not statistic the accurate MNI
  support").
"""

from __future__ import annotations

import numpy as np

from ..core.api import CandidateTable, EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.pattern import Pattern
from .mni import MNIDomains, PositionMapper, merge_domains

__all__ = [
    "FrequentSubgraphMining",
    "FSMResult",
    "FSMMapperPart",
    "edge_pattern_supports",
]


class FSMMapperPart:
    """One mapper part's local state for the FSM apps.

    ``prune`` needs the per-embedding pattern hashes *in level position
    order*; recording them here (instead of on the application) keeps
    ``map_embedding`` pure per part, and the engine's part-ordered
    ``finish_part`` calls reassemble the positional list deterministically
    under any executor."""

    __slots__ = ("hashes", "insertions", "mapped")

    def __init__(self) -> None:
        self.hashes: list[int] = []
        self.insertions = 0
        self.mapped = 0


def edge_pattern_supports(graph) -> dict[tuple[int, int, int], MNIDomains]:
    """MNI domains of every single-edge pattern.

    Keys are ``(label_u, label_v, edge_label)`` with the vertex labels
    ordered; the edge label is 0 for edge-unlabeled graphs."""
    supports: dict[tuple[int, int, int], MNIDomains] = {}
    eu, ev = graph.edge_arrays()
    labels = graph.labels
    elabels = (
        graph.edge_labels.tolist()
        if graph.has_edge_labels
        else [0] * eu.shape[0]
    )
    for u, v, elab in zip(eu.tolist(), ev.tolist(), elabels):
        lu, lv = int(labels[u]), int(labels[v])
        if lu > lv:
            lu, lv = lv, lu
            u, v = v, u
        key = (lu, lv, int(elab))
        dom = supports.get(key)
        if dom is None:
            dom = supports[key] = MNIDomains(2)
        dom.domains[0].add(u)
        dom.domains[1].add(v)
        if lu == lv:
            # Either endpoint can play either role when labels tie.
            dom.domains[0].add(v)
            dom.domains[1].add(u)
    return supports


class FSMResult(dict):
    """Pattern hash → support, plus the representative structures."""

    def __init__(self, supports: dict[int, int], patterns: dict[int, Pattern]):
        super().__init__(supports)
        self.patterns = patterns

    def frequent(self, threshold: int) -> dict[int, int]:
        return {h: s for h, s in self.items() if s >= threshold}


class FrequentSubgraphMining(MiningApplication):
    """Edge-induced k-FSM with MNI support."""

    induced = "edge"
    aggregate_every_iteration = True

    def __init__(
        self,
        num_edges: int,
        support: int,
        exact_mni: bool = False,
        hash_every_embedding: bool = False,
    ) -> None:
        if num_edges < 1:
            raise ValueError("num_edges must be at least 1")
        if support < 1:
            raise ValueError("support must be at least 1")
        self.num_edges = num_edges
        self.support = support
        self.exact_mni = exact_mni
        #: Disable the app-level raw-structure hash memo (Figure 12 /
        #: caching ablation: the paper fingerprints every embedding).
        self.hash_every_embedding = hash_every_embedding
        #: Per-edge-id table of the frequent single-edge patterns' edges.
        self._frequent_edges = np.zeros(0, dtype=bool)
        self._iter_hashes: list[int] = []
        self._mapper = PositionMapper()
        self._phash_cache: dict[tuple[tuple[int, ...], int], int] = {}
        #: Total MNI set insertions performed (deterministic cost proxy for
        #: the Figure-11 support sweep).
        self.total_insertions = 0
        #: Total embeddings mapped across all iterations.
        self.total_mapped = 0

    @property
    def name(self) -> str:
        return f"{self.num_edges + 1}-FSM(s={self.support})"

    @property
    def _threshold(self) -> int | None:
        return None if self.exact_mni else self.support

    # ------------------------------------------------------------------
    def init(self, ctx: EngineContext) -> np.ndarray:
        assert ctx.edge_index is not None
        supports = edge_pattern_supports(ctx.graph)
        frequent_pairs = {
            key for key, dom in supports.items() if dom.support >= self.support
        }
        eu, ev = ctx.graph.edge_arrays()
        labels = ctx.graph.labels
        elabels = (
            ctx.graph.edge_labels.tolist()
            if ctx.graph.has_edge_labels
            else [0] * eu.shape[0]
        )
        keep: list[int] = []
        for eid, (u, v, elab) in enumerate(
            zip(eu.tolist(), ev.tolist(), elabels)
        ):
            lu, lv = int(labels[u]), int(labels[v])
            pair = (lu, lv, int(elab)) if lu <= lv else (lv, lu, int(elab))
            if pair in frequent_pairs:
                keep.append(eid)
        roots = np.asarray(keep, dtype=np.int32)
        self._frequent_edges = np.zeros(eu.shape[0], dtype=bool)
        self._frequent_edges[roots] = True
        return roots

    def iterations(self) -> int:
        return self.num_edges - 1

    def block_filter(self, ctx: EngineContext) -> CandidateTable:
        """Only expand by frequent edges (Section 5.1)."""
        return CandidateTable(self._frequent_edges)

    # ------------------------------------------------------------------
    def start_part(self, ctx: EngineContext) -> FSMMapperPart:
        return FSMMapperPart()

    def finish_part(self, ctx: EngineContext, part: FSMMapperPart) -> None:
        self._iter_hashes.extend(part.hashes)
        self.total_insertions += part.insertions
        self.total_mapped += part.mapped

    def map_embedding(
        self,
        ctx: EngineContext,
        embedding: tuple[int, ...],
        pmap: PatternMap,
        part: FSMMapperPart | None = None,
    ) -> None:
        assert ctx.edge_index is not None
        eu, ev = ctx.edge_index.endpoint_lists()
        edges = [(eu[eid], ev[eid]) for eid in embedding]
        pattern = Pattern.from_edge_embedding(ctx.graph, edges)
        if self.hash_every_embedding:
            phash = ctx.hash_pattern(pattern)
        else:
            # Shared memo is safe under concurrent parts: dict get/set are
            # atomic and the value per key is deterministic, so a race
            # costs at most a duplicate hash computation.
            raw_key = (pattern.labels, pattern.bits, pattern.edge_labels)
            phash = self._phash_cache.get(raw_key)
            if phash is None:
                phash = ctx.hash_pattern(pattern)
                self._phash_cache[raw_key] = phash  # repro: ignore[R001] -- benign memo race (see above)
        # Vertices in structure (first-appearance) order, then placed at
        # canonical pattern positions (all automorphic placements) so the
        # MNI domains are exact and position-consistent across embeddings.
        structure_order: list[int] = []
        seen: set[int] = set()
        for u, v in edges:
            for w in (u, v):
                if w not in seen:
                    seen.add(w)
                    structure_order.append(w)
        dom = pmap.get(phash)
        if dom is None:
            dom = pmap[phash] = MNIDomains(len(structure_order))
        inserted = 0
        for placement in self._mapper.placements(pattern, structure_order):
            inserted += dom.add(placement, self._threshold)
        if part is None:  # direct three-argument call (serial/tests)
            # The engine always passes a part; this branch only runs when
            # tests invoke map_embedding directly, i.e. single-threaded.
            self.total_insertions += inserted  # repro: ignore[R001]
            self.total_mapped += 1  # repro: ignore[R001]
            self._iter_hashes.append(phash)  # repro: ignore[R001]
        else:
            part.insertions += inserted
            part.mapped += 1
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

    # ------------------------------------------------------------------
    def checkpoint_state(self, ctx: EngineContext) -> dict:
        # _frequent_edges and the phash memo are rebuilt deterministically
        # (init reruns on resume); only the accumulated cost counters need
        # to survive a crash.
        return {
            "total_insertions": self.total_insertions,
            "total_mapped": self.total_mapped,
        }

    def restore_state(self, ctx: EngineContext, state: dict) -> None:
        self.total_insertions = state["total_insertions"]
        self.total_mapped = state["total_mapped"]

    # ------------------------------------------------------------------
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
