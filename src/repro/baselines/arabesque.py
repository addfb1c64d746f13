"""Arabesque-like baseline: think-like-an-embedding over an ODAG store.

Arabesque (SOSP'15) stores each level's embeddings in an Overapproximating
Directed Acyclic Graph (ODAG): per position, the array of vertex ids, with
edges between consecutive position arrays.  The ODAG is compact but lossy —
walking it enumerates spurious vertex sequences, so every walked sequence
must pass (a) consecutive-position connectivity and (b) a full canonicality
re-check (the paper pins ~5% of Arabesque's runtime on this re-check; the
walk's spurious sequences cost more).  Isomorphism goes through the
bliss-like search-tree hasher, as Arabesque uses bliss.

Memory is accounted like a JVM object graph: Arabesque materialises each
embedding as an object during processing, so the per-level working set is
``count * (tuple_overhead + 8 * k)`` bytes — the contrast with CSE's flat
4-byte-per-entry arrays is exactly the paper's Figure-10 memory story.

The walk here enumerates (prefix-connected) sequences from the per-position
arrays restricted to parent adjacency, then re-checks canonicality — a
faithful behavioural model even though the spurious-path blowup of a full
ODAG product walk is bounded by indexing parents, keeping Python runtimes
sane.  DESIGN.md records this substitution.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from ..apps.fsm import FSMResult
from .mni_sets import SetMNIDomains, edge_pattern_supports
from ..core.api import MiningResult
from .canonical import edge_is_canonical, is_canonical
from ..core.pattern import Pattern
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from ..storage.meter import MemoryMeter
from .blisslike import BlissLikeHasher
from .positions import PositionMapper

__all__ = ["ArabesqueLikeEngine"]

_TUPLE_OVERHEAD = 56  # CPython tuple header, measured
_LIST_SLOT = 8


class _OdagStore:
    """Per-level embedding store with JVM-like accounting."""

    def __init__(self) -> None:
        self.embeddings: list[tuple[int, ...]] = []

    def add(self, embedding: tuple[int, ...]) -> None:
        self.embeddings.append(embedding)

    def __iter__(self) -> Iterable[tuple[int, ...]]:
        return iter(self.embeddings)

    def __len__(self) -> int:
        return len(self.embeddings)

    @property
    def nbytes(self) -> int:
        if not self.embeddings:
            return 0
        k = len(self.embeddings[0])
        return len(self.embeddings) * (_TUPLE_OVERHEAD + 8 * k + _LIST_SLOT)


class ArabesqueLikeEngine:
    """Single-node model of Arabesque's embedding-centric engine."""

    def __init__(self, graph: Graph, hasher: BlissLikeHasher | None = None) -> None:
        self.graph = graph
        # Arabesque links bliss and canonicalises per embedding — no
        # memoisation (Section 1.2 pins >53% of its FSM runtime on the
        # resulting allocation churn).
        self.hasher = hasher if hasher is not None else BlissLikeHasher(cache=False)
        self.meter = MemoryMeter()
        self.meter.set("graph", graph.nbytes)
        # Arabesque's base system (Giraph workers, Hadoop client) holds a
        # large constant heap; we do not fabricate it (see EXPERIMENTS.md,
        # "known deviations") — accounted memory covers data structures only.

    # ------------------------------------------------------------------
    # Vertex-induced exploration with the ODAG re-check
    # ------------------------------------------------------------------
    def _expand_vertex_level(
        self, store: _OdagStore, clique_filter: bool = False
    ) -> _OdagStore:
        nxt = _OdagStore()
        graph = self.graph
        for emb in store:
            neighbor_arrays = [graph.neighbors(v) for v in emb]
            if len(neighbor_arrays) == 1:
                candidates = neighbor_arrays[0]
            else:
                candidates = np.unique(np.concatenate(neighbor_arrays))
            for cand in candidates.tolist():
                if cand in emb:
                    continue
                candidate_emb = emb + (cand,)
                # ODAG traversal cannot trust the stored order: full
                # canonical re-check of the whole embedding (Section 1.2).
                if not is_canonical(graph, candidate_emb):
                    continue
                if clique_filter and not all(
                    graph.has_edge(v, cand) for v in emb
                ):
                    continue
                nxt.add(candidate_emb)
        return nxt

    def _explore_vertex(self, depth: int, clique_filter: bool = False) -> _OdagStore:
        store = _OdagStore()
        for v in range(self.graph.num_vertices):
            store.add((v,))
        self.meter.set("odag-1", store.nbytes)
        for level in range(2, depth + 1):
            store = self._expand_vertex_level(store, clique_filter=clique_filter)
            self.meter.set(f"odag-{level}", store.nbytes)
        return store

    # ------------------------------------------------------------------
    # Applications
    # ------------------------------------------------------------------
    def run_motif(self, k: int) -> MiningResult:
        started = time.perf_counter()
        store = self._explore_vertex(k)
        counts: dict[int, int] = {}
        for emb in store:
            pattern = Pattern.from_vertex_embedding(self.graph, emb, use_labels=False)
            phash = self.hasher.hash_pattern(pattern)
            counts[phash] = counts.get(phash, 0) + 1
        self.meter.set("pattern_map", 160 * len(counts))
        self.meter.set("hasher", self.hasher.nbytes)
        return self._result(f"{k}-Motif", counts, counts, started)

    def run_clique(self, k: int) -> MiningResult:
        started = time.perf_counter()
        store = self._explore_vertex(k, clique_filter=True)
        count = len(store)
        return self._result(f"{k}-Clique", count, {0: count}, started)

    def run_triangles(self) -> MiningResult:
        started = time.perf_counter()
        store = self._explore_vertex(2)
        total = 0
        for u, v in store:
            common = self.graph.common_neighbors(u, v)
            total += int(np.count_nonzero(common > v))
        return self._result("TC", total, {0: total}, started)

    def run_fsm(self, num_edges: int, support: int) -> MiningResult:
        started = time.perf_counter()
        index = EdgeIndex(self.graph)
        self.meter.set("edge_index", index.nbytes)
        supports = edge_pattern_supports(self.graph)
        frequent_pairs = {
            key for key, dom in supports.items() if dom.support >= support
        }
        labels = self.graph.labels
        store: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = []
        frequent_edges: set[tuple[int, int]] = set()
        eu, ev = self.graph.edge_arrays()
        elabels = (
            self.graph.edge_labels.tolist()
            if self.graph.has_edge_labels
            else [0] * eu.shape[0]
        )
        for eid, (u, v, elab) in enumerate(
            zip(eu.tolist(), ev.tolist(), elabels)
        ):
            lu, lv = int(labels[u]), int(labels[v])
            pair = (
                (lu, lv, int(elab)) if lu <= lv else (lv, lu, int(elab))
            )
            if pair in frequent_pairs:
                store.append(((eid,), ((u, v),)))
                frequent_edges.add((u, v))
        mapper = PositionMapper()
        reduced: dict[int, SetMNIDomains] = {}
        for _ in range(num_edges - 1):
            nxt: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = []
            for ids, edges in store:
                vertices = sorted({w for e in edges for w in e})
                incident = [index.incident_edges(w) for w in vertices]
                candidates = np.unique(np.concatenate(incident))
                for cand in candidates.tolist():
                    if cand in ids:
                        continue
                    cand_edge = index.endpoints(cand)
                    if cand_edge not in frequent_edges:
                        continue
                    cand_ids = ids + (cand,)
                    cand_edges = edges + (cand_edge,)
                    # Full canonical re-check, as with the vertex walk.
                    if not edge_is_canonical(cand_edges, cand_ids):
                        continue
                    nxt.append((cand_ids, cand_edges))
            store = nxt
            self.meter.set(
                "odag-fsm",
                len(store) * (_TUPLE_OVERHEAD * 3 + 8 * 4 * num_edges + _LIST_SLOT),
            )
            reduced = {}
            keep = []
            for ids, edges in store:
                pattern = Pattern.from_edge_embedding(self.graph, edges)
                phash = self.hasher.hash_pattern(pattern)
                structure_order: list[int] = []
                seen: set[int] = set()
                for a, b in edges:
                    for w in (a, b):
                        if w not in seen:
                            seen.add(w)
                            structure_order.append(w)
                dom = reduced.get(phash)
                if dom is None:
                    dom = reduced[phash] = SetMNIDomains(len(structure_order))
                for placement in mapper.placements(pattern, structure_order):
                    dom.add(placement, None)
                keep.append(phash)
            frequent = {h for h, d in reduced.items() if d.support >= support}
            store = [entry for entry, h in zip(store, keep) if h in frequent]
            self.meter.set(
                "pattern_map", sum(120 + d.nbytes for d in reduced.values())
            )
            self.meter.set("hasher", self.hasher.nbytes)
        result_supports = {
            h: d.support for h, d in reduced.items() if d.support >= support
        }
        patterns = {}
        for phash in result_supports:
            rep = self.hasher.representative(phash)
            if rep is not None:
                patterns[phash] = rep
        value = FSMResult(result_supports, patterns)
        return self._result(
            f"{num_edges + 1}-FSM(s={support})", value, result_supports, started
        )

    # ------------------------------------------------------------------
    def _result(
        self, name: str, value, pattern_map: dict, started: float
    ) -> MiningResult:
        wall = time.perf_counter() - started
        return MiningResult(
            app_name=name,
            value=value,
            pattern_map=pattern_map,
            wall_seconds=wall,
            peak_memory_bytes=self.meter.peak_bytes,
            memory_snapshot=self.meter.snapshot(),
        )
