"""RStream-like baseline: GRAS (GAS + relational algebra) graph mining.

RStream (OSDI'18) is an X-Stream descendant: it keeps embeddings as tuple
*relations* in streaming partitions on disk and grows them with relational
all-joins against the edge table.  Consequences the paper measures and this
model reproduces:

* only edge-induced exploration — vertex-flavoured problems (motifs,
  cliques) need more join iterations (4-Motif takes C(4,2) = 6) and touch
  far more intermediate tuples;
* the all-join emits every *ordered* way of reaching an edge set, so a
  dedup/shuffle pass is needed per iteration — the dominant cost;
* every iteration's relation is written to and re-read from real disk
  (streaming partitions), so intermediate-data bytes are measured, not
  estimated.

Isomorphism goes through the bliss-like hasher (RStream links bliss).
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from ..apps.fsm import FSMResult
from .mni_sets import SetMNIDomains, edge_pattern_supports
from ..core.api import MiningResult
from ..core.pattern import Pattern
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from ..storage.meter import MemoryMeter
from ..storage.spill import PartStore
from .blisslike import BlissLikeHasher
from .positions import PositionMapper

__all__ = ["RStreamLikeEngine"]


class RStreamLikeEngine:
    """Single-machine out-of-core relational mining engine model."""

    def __init__(
        self,
        graph: Graph,
        num_partitions: int = 10,
        spill_dir: str | None = None,
        hasher: BlissLikeHasher | None = None,
        max_intermediate_bytes: int | None = None,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.graph = graph
        self.num_partitions = num_partitions
        #: Simulated disk-capacity limit: exceeding it raises StorageError,
        #: reproducing the paper's "/" cells (4-Motif filled a 480 GB SSD).
        self.max_intermediate_bytes = max_intermediate_bytes
        self.store = PartStore(spill_dir)
        # RStream's shuffle turns every tuple into a quick pattern through
        # bliss, per tuple — no memoisation (paper Section 6.2).
        self.hasher = hasher if hasher is not None else BlissLikeHasher(cache=False)
        self.meter = MemoryMeter()
        self.meter.set("graph", graph.nbytes)
        self.index = EdgeIndex(graph)
        self.meter.set("edge_index", self.index.nbytes)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "RStreamLikeEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Streaming-relation plumbing
    # ------------------------------------------------------------------
    def _stream_out(self, relation: list[tuple[int, ...]], tag: str) -> list:
        """Write a relation to disk in partitions (the scatter phase)."""
        if not relation:
            return []
        width = len(relation[0])
        array = np.asarray(relation, dtype=np.int64).reshape(len(relation), width)
        if (
            self.max_intermediate_bytes is not None
            and self.store.io.bytes_written + array.nbytes > self.max_intermediate_bytes
        ):
            from ..errors import StorageError

            raise StorageError(
                f"intermediate data exceeds the simulated disk capacity "
                f"({self.max_intermediate_bytes / 1e6:.0f} MB)"
            )
        handles = []
        bounds = np.linspace(0, len(relation), self.num_partitions + 1).astype(int)
        for p in range(self.num_partitions):
            chunk = array[bounds[p] : bounds[p + 1]]
            if chunk.shape[0]:
                handles.append(self.store.save(chunk, tag=tag))
        self.meter.set("relation", array.nbytes)
        return handles

    def _stream_in(self, handles: list) -> list[tuple[int, ...]]:
        """Read a relation back (the gather phase)."""
        rows: list[tuple[int, ...]] = []
        for handle in handles:
            chunk = self.store.load(handle)
            rows.extend(tuple(int(x) for x in row) for row in chunk)
        return rows

    # ------------------------------------------------------------------
    # All-join expansion over edge-id tuples
    # ------------------------------------------------------------------
    def _all_join(
        self,
        relation: list[tuple[int, ...]],
        frequent_edges: set[int] | None = None,
        max_vertices: int | None = None,
    ) -> list[tuple[int, ...]]:
        """Join each tuple with every adjacent edge; dedup by edge set.

        The join purposely generates each edge set once per generation
        order (the relational blowup), then the shuffle dedups — the
        temporary "joined" list is the intermediate data RStream writes.
        """
        joined: list[tuple[int, ...]] = []
        width = (len(relation[0]) + 1) if relation else 2
        for ids in relation:
            if (
                self.max_intermediate_bytes is not None
                and len(joined) % 4096 == 0
                and self.store.io.bytes_written + len(joined) * width * 8
                > self.max_intermediate_bytes
            ):
                from ..errors import StorageError

                raise StorageError(
                    "all-join intermediate data exceeds the simulated disk "
                    f"capacity ({self.max_intermediate_bytes / 1e6:.0f} MB)"
                )
            vertices: set[int] = set()
            for eid in ids:
                u, v = self.index.endpoints(eid)
                vertices.add(u)
                vertices.add(v)
            incident = [self.index.incident_edges(w) for w in vertices]
            candidates = np.unique(np.concatenate(incident))
            id_set = set(ids)
            for cand in candidates.tolist():
                if cand in id_set:
                    continue
                if frequent_edges is not None and cand not in frequent_edges:
                    continue
                if max_vertices is not None:
                    u, v = self.index.endpoints(cand)
                    extra = (u not in vertices) + (v not in vertices)
                    if len(vertices) + extra > max_vertices:
                        continue
                joined.append(ids + (cand,))
        # Shuffle: dedup by the unordered edge set (sorted id tuple).
        deduped: dict[tuple[int, ...], tuple[int, ...]] = {}
        for ids in joined:
            deduped.setdefault(tuple(sorted(ids)), ids)
        self.meter.set(
            "join_buffer", len(joined) * (56 + 8 * (len(relation[0]) + 1 if relation else 2))
        )
        return list(deduped.values())

    # ------------------------------------------------------------------
    # Applications
    # ------------------------------------------------------------------
    def run_triangles(self) -> MiningResult:
        """GAS-style triangle counting over the streamed 2-path relation."""
        started = time.perf_counter()
        eu, ev = self.graph.edge_arrays()
        wedges: list[tuple[int, int, int]] = []
        for u, v in zip(eu.tolist(), ev.tolist()):
            # Wedge (u, v, w) centred at v with u < v < w.
            for w in self.graph.neighbors(v).tolist():
                if w > v and u < v:
                    wedges.append((u, v, w))
        handles = self._stream_out(wedges, "wedges")
        total = 0
        for u, v, w in self._stream_in(handles):
            if self.graph.has_edge(u, w):
                total += 1
        return self._result("TC", total, {0: total}, started)

    def run_clique(self, k: int) -> MiningResult:
        """Clique discovery in k iterations of edge-relation all-joins.

        RStream's "tricky solution": join the current vertex-tuple
        relation with the edge relation on any shared vertex (the join
        output is materialised to disk *before* the clique selection —
        that unfiltered output is the 51.2 GB the paper measures for
        4-clique over MiCo), then a selection keeps tuples that stay
        cliques and a shuffle dedups the sorted vertex sets.
        """
        started = time.perf_counter()
        eu, ev = self.graph.edge_arrays()
        adjacency = self.graph.adjacency_sets()
        relation: list[tuple[int, ...]] = [
            (u, v) for u, v in zip(eu.tolist(), ev.tolist())
        ]
        for _ in range(k - 2):
            handles = self._stream_out(relation, "clique")
            relation = self._stream_in(handles)
            # All-join with the edge relation: emit every extension by a
            # vertex adjacent to *some* tuple member (no clique filter yet).
            joined: list[tuple[int, ...]] = []
            for verts in relation:
                vset = set(verts)
                candidates: set[int] = set()
                for v in verts:
                    candidates.update(adjacency[v])
                for w in candidates:
                    if w not in vset:
                        joined.append(verts + (w,))
            # Scatter the raw join output (the intermediate-data blowup).
            handles = self._stream_out(joined, "clique-join")
            joined = self._stream_in(handles)
            # Selection (clique predicate) + shuffle (dedup by vertex set).
            grown: dict[tuple[int, ...], tuple[int, ...]] = {}
            for tup in joined:
                w = tup[-1]
                if all(w in adjacency[v] for v in tup[:-1]):
                    key = tuple(sorted(tup))
                    grown.setdefault(key, key)
            relation = list(grown.values())
        handles = self._stream_out(relation, "clique-final")
        relation = self._stream_in(handles)
        count = len(relation)
        return self._result(f"{k}-Clique", count, {0: count}, started)

    def run_motif(self, k: int) -> MiningResult:
        """Motif counting via edge-induced all-joins (paper Section 1.2).

        Edge sets grow up to C(k, 2) edges; a k-vertex embedding is
        counted when its edge set is *closed* (equals the induced edge set
        of its vertices) — exactly once per vertex set."""
        started = time.perf_counter()
        max_edges = k * (k - 1) // 2
        relation: list[tuple[int, ...]] = [
            (eid,) for eid in range(self.index.num_edges)
        ]
        counts: dict[int, int] = {}
        for _size in range(1, max_edges + 1):
            handles = self._stream_out(relation, f"motif-{_size}")
            relation = self._stream_in(handles)
            self._count_closed(relation, k, counts)
            if _size < max_edges:
                relation = self._all_join(relation, max_vertices=k)
                if not relation:
                    break
        self.meter.set("pattern_map", 160 * len(counts))
        self.meter.set("hasher", self.hasher.nbytes)
        return self._result(f"{k}-Motif", counts, counts, started)

    def _count_closed(
        self, relation: list[tuple[int, ...]], k: int, counts: dict[int, int]
    ) -> None:
        for ids in relation:
            vertices: list[int] = []
            seen: set[int] = set()
            edges = []
            for eid in ids:
                u, v = self.index.endpoints(eid)
                edges.append((u, v))
                for w in (u, v):
                    if w not in seen:
                        seen.add(w)
                        vertices.append(w)
            if len(vertices) != k:
                continue
            induced = sum(
                1
                for a, b in combinations(sorted(vertices), 2)
                if self.graph.has_edge(a, b)
            )
            if induced != len(ids):
                continue
            pattern = Pattern.from_vertex_embedding(
                self.graph, vertices, use_labels=False
            )
            phash = self.hasher.hash_pattern(pattern)
            counts[phash] = counts.get(phash, 0) + 1

    def run_fsm(self, num_edges: int, support: int) -> MiningResult:
        """Edge-induced FSM with per-iteration relational aggregation."""
        started = time.perf_counter()
        supports = edge_pattern_supports(self.graph)
        frequent_pairs = {
            key for key, dom in supports.items() if dom.support >= support
        }
        labels = self.graph.labels
        eu, ev = self.graph.edge_arrays()
        frequent_edge_ids: set[int] = set()
        relation: list[tuple[int, ...]] = []
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
                frequent_edge_ids.add(eid)
                relation.append((eid,))
        mapper = PositionMapper()
        reduced: dict[int, SetMNIDomains] = {}
        for _ in range(num_edges - 1):
            handles = self._stream_out(relation, "fsm")
            relation = self._stream_in(handles)
            relation = self._all_join(relation, frequent_edges=frequent_edge_ids)
            # X-Stream discipline: the joined UPDATE relation is scattered
            # back to streaming partitions before the aggregation pass.
            handles = self._stream_out(relation, "fsm-upd")
            relation = self._stream_in(handles)
            reduced = {}
            hashes: list[int] = []
            for ids in relation:
                edges = [self.index.endpoints(e) for e in ids]
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
                hashes.append(phash)
            frequent = {h for h, d in reduced.items() if d.support >= support}
            relation = [ids for ids, h in zip(relation, hashes) if h in frequent]
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
            io_bytes_read=self.store.io.bytes_read,
            io_bytes_written=self.store.io.bytes_written,
            memory_snapshot=self.meter.snapshot(),
        )
