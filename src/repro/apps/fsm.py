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

The Mapper works on whole blocks: one quick-pattern code per embedding
(structure-order labels, adjacency bits and edge labels), the placements
and canonical codes of a slab's distinct codes from one batched
canonicaliser, one hasher lookup per *isomorphism class* per part (its
canonical code row, through ``ctx.hash_codes``), and MNI domains as one
sorted int64 key array per part
(:func:`~repro.apps.mni.fold_mni_block`).  The Reducer merges the parts'
arrays in one pass (:func:`~repro.apps.mni.reduce_domains`), and prune
and the result read its per-pattern supports; no Python set holds a
vertex.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..core.api import CandidateTable, EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.pattern import MAX_EIGENHASH_VERTICES, Pattern
from ..errors import StorageError
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from .mni import (
    distinct_rows,
    first_occurrences,
    fold_mni_block,
    frequent_mask,
    mni_state,
    reduce_domains,
)

__all__ = [
    "FrequentSubgraphMining",
    "MNIApplication",
    "FSMResult",
    "frequent_edge_mask",
]


def edge_codes(
    index: EdgeIndex, graph: Graph, slab: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:data:`~repro.apps.mni.BlockEncoder` of edge-induced embeddings.

    Vertices are numbered in first-appearance order over the edges'
    ``(u, v)`` endpoints, exactly as :meth:`Pattern.from_edge_embedding`
    numbers them, by comparing each endpoint column with the earlier ones.
    """
    rows, m = slab.shape
    kmax = m + 1
    ends = np.empty((rows, 2 * m), dtype=np.int64)
    ends[:, 0::2] = index.edge_u[slab]
    ends[:, 1::2] = index.edge_v[slab]
    pos = np.empty_like(ends)
    verts = np.zeros((rows, kmax), dtype=np.int64)
    nv = np.zeros(rows, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(2 * m):
        col = ends[:, c]
        at = nv.copy()
        fresh = np.ones(rows, dtype=bool)
        for prev in range(c):
            same = col == ends[:, prev]
            at = np.where(same, pos[:, prev], at)
            fresh &= ~same
        pos[:, c] = at
        verts[row_ids[fresh], nv[fresh]] = col[fresh]
        nv += fresh
    lo = np.minimum(pos[:, 0::2], pos[:, 1::2])
    hi = np.maximum(pos[:, 0::2], pos[:, 1::2])
    # triangle_index(lo, hi, k) with each row's own vertex count k.
    cells = lo * (nv[:, None] - 1) - lo * (lo - 1) // 2 + (hi - lo - 1)
    bits = np.bitwise_or.reduce(np.left_shift(1, cells), axis=1)
    labels = np.where(np.arange(kmax) < nv[:, None], graph.labels[verts], -1)
    columns = [nv[:, None], labels, bits[:, None]]
    if graph.has_edge_labels:
        assert graph.edge_labels is not None
        by_cell = np.zeros((rows, kmax * (kmax - 1) // 2), dtype=np.int64)
        by_cell[row_ids[:, None], cells] = graph.edge_labels[slab]
        columns.append(by_cell)
    return verts, np.hstack(columns)


def frequent_edge_mask(graph: Graph, support: int) -> np.ndarray:
    """Per-edge-id mask of the edges whose single-edge pattern
    ``(min label, max label, edge label)`` has MNI support ``>= support``
    — the baselines' set-based
    :func:`~repro.baselines.mni_sets.edge_pattern_supports` thresholded,
    with array operations."""
    eu, ev = graph.edge_arrays()
    lu, lv = graph.labels[eu], graph.labels[ev]
    # ``a`` plays the lower-labelled position, ``b`` the other.
    a = np.where(lu <= lv, eu, ev).astype(np.int64)
    b = np.where(lu <= lv, ev, eu).astype(np.int64)
    elabels = graph.edge_labels if graph.has_edge_labels else np.zeros_like(lu)
    keys = np.stack([np.minimum(lu, lv), np.maximum(lu, lv), elabels], axis=1)
    distinct, kid = distinct_rows(keys)
    # When the labels tie, either endpoint fills either position.
    tie = lu == lv
    n = graph.num_vertices
    sizes = []
    for first, second in ((a, b), (b, a)):
        domain = np.concatenate([kid * n + first, (kid * n + second)[tie]])
        members = first_occurrences(domain)[0]
        sizes.append(np.bincount(members // n, minlength=distinct.shape[0]))
    return (np.minimum(*sizes) >= support)[kid]


class FSMResult(dict):
    """Pattern hash → support, plus the representative structures."""

    def __init__(self, supports: dict[int, int], patterns: dict[int, Pattern]):
        super().__init__(supports)
        self.patterns = patterns

    def frequent(self, threshold: int) -> dict[int, int]:
        return {h: s for h, s in self.items() if s >= threshold}


class MNIApplication(MiningApplication):
    """The MNI plumbing both FSM apps share: support threshold, the
    one-pass array reduce of the parts' MNI states, the cost counters,
    pruning and the frequent result.

    Subclasses supply ``init``, ``iterations``, ``block_filter`` and a
    ``map_block`` that folds each block into its part's map through
    :func:`fold_mni_block`.  Each part's :class:`~repro.apps.mni.MNIState`
    carries its rows' pattern hashes, which ``reduce`` collects, in part
    order, for ``prune``."""

    aggregate_every_iteration = True

    def __init__(self, support: int, exact_mni: bool) -> None:
        if support < 1:
            raise ValueError("support must be at least 1")
        self.support = support
        self.exact_mni = exact_mni
        self._iter_hashes: list[np.ndarray] = []
        #: Total MNI set insertions performed (deterministic cost proxy for
        #: the Figure-11 support sweep).
        self.total_insertions = 0
        #: Total embeddings mapped across all iterations.
        self.total_mapped = 0

    @property
    def _threshold(self) -> int | None:
        return None if self.exact_mni else self.support

    def reduce(self, ctx: EngineContext, pmaps: list[PatternMap]) -> PatternMap:
        # A part with rows always publishes a state; an empty part maps none.
        states = [state for state in map(mni_state, pmaps) if state is not None]
        self._iter_hashes = [state.rows for state in states]
        self.total_insertions += sum(state.keys.shape[0] for state in states)
        self.total_mapped += sum(state.rows.shape[0] for state in states)
        return reduce_domains(pmaps, self._threshold)

    def prune(
        self, ctx: EngineContext, cse: CSE, reduced: PatternMap
    ) -> np.ndarray | None:
        keep = frequent_mask(self._iter_hashes, reduced, self.support)
        self._iter_hashes = []
        return keep

    def pmap_nbytes(self, pmap: PatternMap) -> int:
        # The state's arrays plus each pattern's map slot and view.
        state = mni_state(pmap)
        return 0 if state is None else state.nbytes + 120 * len(pmap)

    def checkpoint_state(self, ctx: EngineContext) -> dict:
        # exact_mni changes the supports but not the name, so the resume
        # checks it here; the cost counters accumulate across iterations.
        return {
            "exact_mni": self.exact_mni,
            "total_insertions": self.total_insertions,
            "total_mapped": self.total_mapped,
        }

    def restore_state(self, ctx: EngineContext, state: dict) -> None:
        saved = state.get("exact_mni")
        if saved != self.exact_mni:
            raise StorageError(
                f"checkpoint belongs to {self.name!r} with exact_mni={saved!r}, "
                f"not exact_mni={self.exact_mni!r}"
            )
        self.total_insertions = state["total_insertions"]
        self.total_mapped = state["total_mapped"]

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> FSMResult:
        supports: dict[int, int] = {}
        state = mni_state(pmap)
        if state is not None:
            frequent = state.support >= self.support
            supports = dict(
                zip(state.hashes[frequent].tolist(), state.support[frequent].tolist())
            )
        patterns = {}
        for phash in supports:
            rep = ctx.engine.hasher.representative(phash)
            if rep is not None:
                patterns[phash] = rep
        return FSMResult(supports, patterns)


class FrequentSubgraphMining(MNIApplication):
    """Edge-induced k-FSM with MNI support."""

    induced = "edge"

    def __init__(
        self,
        num_edges: int,
        support: int,
        exact_mni: bool = False,
        hash_every_embedding: bool = False,
    ) -> None:
        if num_edges < 1:
            raise ValueError("num_edges must be at least 1")
        if num_edges + 1 > MAX_EIGENHASH_VERTICES:
            raise ValueError(
                f"num_edges must be at most MAX_EIGENHASH_VERTICES - 1 "
                f"({MAX_EIGENHASH_VERTICES - 1}), got {num_edges}"
            )
        super().__init__(support, exact_mni)
        self.num_edges = num_edges
        #: Hash once per embedding instead of once per class per part
        #: (Figure 12 / caching ablation: the paper fingerprints every
        #: embedding).
        self.hash_every_embedding = hash_every_embedding
        #: Per-edge-id table of the frequent single-edge patterns' edges.
        self._frequent_edges = np.zeros(0, dtype=bool)

    @property
    def name(self) -> str:
        return f"{self.num_edges + 1}-FSM(s={self.support})"

    # ------------------------------------------------------------------
    def init(self, ctx: EngineContext) -> np.ndarray:
        assert ctx.edge_index is not None
        self._frequent_edges = frequent_edge_mask(ctx.graph, self.support)
        return np.flatnonzero(self._frequent_edges).astype(np.int32)

    def iterations(self) -> int:
        return self.num_edges - 1

    def block_filter(self, ctx: EngineContext) -> CandidateTable:
        """Only expand by frequent edges (Section 5.1)."""
        return CandidateTable(self._frequent_edges)

    # ------------------------------------------------------------------
    def map_block(self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap) -> None:
        """Patternise the part's embeddings and fold their automorphic
        placements into per-pattern MNI domains."""
        assert ctx.edge_index is not None
        fold_mni_block(
            ctx,
            block,
            pmap,
            partial(edge_codes, ctx.edge_index, ctx.graph),
            self._threshold,
            self.hash_every_embedding,
        )
