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
  support"): a part stops placing the rows of a pattern class once its
  domains reach the threshold, and a frequent pattern's support is
  reported as the threshold itself ("at least the threshold"), the same
  whatever the part cut.

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

from ..core.api import (
    CandidateTable,
    EngineContext,
    MiningApplication,
    PatternMap,
    check_saved_flag,
)
from ..core.cse import CSE
from ..core.pattern import MAX_EIGENHASH_VERTICES, Pattern
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from .mni import (
    distinct_rows,
    first_occurrences,
    fold_mni_block,
    frequent_mask,
    frequent_patterns,
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
    numbers them.  The work is column-major, so every column it touches
    is one contiguous array: each endpoint column is compared with the
    earlier ones a column at a time (positions and vertex counts are
    ``int8``), and each code column is written in place into one
    ``(width, rows)`` array.  Both results are transposed views of
    column-major arrays, so no code row is ever assembled and
    :func:`~repro.apps.mni.distinct_rows` reads the columns without a
    copy.
    """
    rows, m = slab.shape
    kmax = m + 1
    ids = slab.T
    ends = np.empty((2 * m, rows), dtype=index.edge_u.dtype)
    for e in range(m):
        np.take(index.edge_u, ids[e], out=ends[2 * e])
        np.take(index.edge_v, ids[e], out=ends[2 * e + 1])
    # A repeated endpoint copies the earlier one's position; a fresh one
    # keeps ``nv``, which every earlier position is below.
    pos = np.empty((2 * m, rows), dtype=np.int8)
    nv = np.zeros(rows, dtype=np.int8)
    same = np.empty(rows, dtype=bool)
    for c in range(2 * m):
        np.copyto(pos[c], nv)
        for prev in range(c):
            np.equal(ends[c], ends[prev], out=same)
            np.copyto(pos[c], pos[prev], where=same)
        nv += pos[c] == nv
    # verts[pos, row] = ends for every endpoint at once (a repeat rewrites
    # the same vertex).
    flat = pos.astype(np.intp)
    flat *= rows
    flat += np.arange(rows)
    verts = np.zeros((kmax, rows), dtype=np.int64)
    verts.reshape(-1)[flat] = ends
    lo = np.minimum(pos[0::2], pos[1::2])
    hi = np.maximum(pos[0::2], pos[1::2])
    # triangle_index(lo, hi, k) with each row's own vertex count k.
    cells = lo * (nv - 1) - lo * (lo - 1) // 2 + (hi - lo - 1)
    labelled = graph.has_edge_labels
    width = 2 + kmax + (kmax * (kmax - 1) // 2 if labelled else 0)
    codes = np.empty((width, rows), dtype=np.int64)
    codes[0] = nv
    labels = codes[1 : 1 + kmax]
    labels[...] = graph.labels[verts]
    np.copyto(labels, -1, where=np.arange(kmax)[:, None] >= nv)
    bits = codes[1 + kmax]
    np.left_shift(1, cells[0], out=bits, dtype=np.int64)
    for e in range(1, m):
        bits |= np.left_shift(1, cells[e], dtype=np.int64)
    if labelled:
        assert graph.edge_labels is not None
        by_cell = codes[2 + kmax :]
        by_cell.fill(0)
        row_ids = np.arange(rows)
        for e in range(m):
            by_cell[cells[e], row_ids] = graph.edge_labels[ids[e]]
    return verts.T, codes.T


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
    """Pattern hash → support, plus the representative structures.

    Without ``exact_mni``, counting short-circuits, and every frequent
    pattern reports the threshold itself: its support reads "at least
    the threshold".  The count it stopped at depends on the mapper's part
    cut (one part per worker), so the capped value is what makes the
    answer the same at every worker count, storage mode and executor.
    With ``exact_mni`` every support is exact.
    """

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
    carries its rows' groups, which ``reduce`` collects with the groups'
    hashes, in part order, for ``prune``.  The reduced map holds the
    frequent patterns only (Listing 1's PatternFilter), so which
    infrequent patterns a level reached — which depends on the vertex id
    order — never shows."""

    aggregate_every_iteration = True

    def __init__(self, support: int, exact_mni: bool) -> None:
        if support < 1:
            raise ValueError("support must be at least 1")
        self.support = support
        self.exact_mni = exact_mni
        self._iter_rows: list[tuple[np.ndarray, np.ndarray]] = []
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
        self._iter_rows = [(state.hashes, state.rows) for state in states]
        self.total_insertions += sum(state.keys.shape[0] for state in states)
        self.total_mapped += sum(state.rows.shape[0] for state in states)
        return frequent_patterns(reduce_domains(pmaps, self._threshold), self.support)

    def prune(
        self, ctx: EngineContext, cse: CSE, reduced: PatternMap
    ) -> np.ndarray | None:
        keep = frequent_mask(self._iter_rows, reduced, self.support)
        self._iter_rows = []
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
        check_saved_flag(self, "exact_mni", state.get("exact_mni"))
        self.total_insertions = state["total_insertions"]
        self.total_mapped = state["total_mapped"]

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> FSMResult:
        # A run with no iteration never prunes its one aggregation.
        self._iter_rows = []
        supports: dict[int, int] = {}
        state = mni_state(pmap)
        if state is not None:
            # ``reduce`` kept only the frequent patterns.
            support = state.support if self.exact_mni else np.minimum(state.support, self.support)
            supports = dict(zip(state.hashes.tolist(), support.tolist()))
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
        placements into per-pattern MNI domains: the whole part in one
        call, into an empty ``pmap`` (see :func:`fold_mni_block`)."""
        assert ctx.edge_index is not None
        fold_mni_block(
            ctx,
            block,
            pmap,
            partial(edge_codes, ctx.edge_index, ctx.graph),
            self._threshold,
            self.hash_every_embedding,
        )
