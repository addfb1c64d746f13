"""Pattern matching: find the embeddings of one given pattern (Figure 1).

The paper's opening example: given a template pattern ``p``, enumerate the
embeddings of the input graph isomorphic to ``p`` ("pattern matching,
which is also a step of the frequent subgraph mining").

Expressed in the Kaleido API as a vertex-induced exploration whose
EmbeddingFilter prunes partial embeddings that can no longer complete to a
match (label multiset and degree-feasibility checks), with the final
Mapper keeping exactly the rows whose canonical code row is the
pattern's, the exact isomorphism test FSM's MNI fold groups by.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.api import EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.kernels import vertex_kernel_context
from ..core.pattern import MAX_EIGENHASH_VERTICES, Pattern
from .fsm_vertex import edge_keys, vertex_codes
from .mni import SLAB_ROWS, canonical_placements, distinct_rows

__all__ = ["PatternMatching", "MatchResult", "MatchFeasibility"]


@dataclass(frozen=True, eq=False)
class MatchFeasibility:
    """Block filter: prune partial embeddings that cannot complete a match.

    The extended label multiset must stay within the pattern's — every
    embedding already is (its own extensions passed this filter), so only
    the candidate's label can overflow — and the candidate may not have
    more edges into the embedding than the pattern's maximum degree."""

    #: Per-vertex label.
    labels: np.ndarray
    #: Per-vertex multiplicity of that vertex's label in the pattern
    #: (0 for labels the pattern does not use).
    budget: np.ndarray
    max_degree: int

    def __call__(self, ctx, block, rows, candidates) -> np.ndarray:
        cand_labels = self.labels[candidates]
        same_label = np.ones(rows.shape[0], dtype=np.int64)  # the candidate
        internal = np.zeros(rows.shape[0], dtype=np.int64)
        for col in range(block.shape[1]):
            members = block[rows, col]
            same_label += self.labels[members] == cand_labels
            internal += ctx.has_edges(members, candidates)
        return (same_label <= self.budget[candidates]) & (internal <= self.max_degree)


class MatchResult:
    """Count (and optionally the list) of matching embeddings."""

    def __init__(self, pattern: Pattern, count: int,
                 matches: list[tuple[int, ...]] | None) -> None:
        self.pattern = pattern
        self.count = count
        self.matches = matches

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.count == other
        if isinstance(other, MatchResult):
            return self.count == other.count and self.pattern == other.pattern
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatchResult(k={self.pattern.num_vertices}, count={self.count})"


class PatternMatching(MiningApplication):
    """Count/enumerate vertex-induced embeddings of a given pattern.

    Matching is *induced*: an embedding matches when its induced subgraph
    is isomorphic to the pattern (Figure 1's semantics, where embeddings
    carry all edges among their vertices).
    """

    induced = "vertex"

    def __init__(self, pattern: Pattern, materialize: bool = False) -> None:
        if pattern.num_vertices < 2:
            raise ValueError("pattern needs at least two vertices")
        if pattern.num_vertices > MAX_EIGENHASH_VERTICES:
            # Canonical codes are minimised over a table of all k! orderings.
            raise ValueError(
                f"pattern needs at most MAX_EIGENHASH_VERTICES "
                f"({MAX_EIGENHASH_VERTICES}) vertices, got {pattern.num_vertices}"
            )
        if not pattern.is_connected():
            raise ValueError("only connected patterns occur as embeddings")
        self.pattern = pattern
        self.materialize = materialize
        k = pattern.num_vertices
        self._code = canonical_placements(np.array([pattern.to_code(k)]), k)[2][0].tolist()
        self._label_budget = Counter(pattern.labels)
        self._max_degree = max(pattern.degree_sequence())

    @property
    def name(self) -> str:
        p = self.pattern
        edges = "" if p.edge_labels is None else f", edge_labels={list(p.edge_labels)}"
        return f"Match(k={p.num_vertices}, labels={list(p.labels)}, bits={p.bits:#x}{edges})"

    def iterations(self) -> int:
        return self.pattern.num_vertices - 1

    def query_pattern(self) -> Pattern:
        return self.pattern

    def init(self, ctx: EngineContext):
        # Seed only vertices whose label occurs in the pattern.
        wanted = np.isin(ctx.graph.labels, sorted(self._label_budget))
        return np.flatnonzero(wanted).astype(np.int32)

    def block_filter(self, ctx: EngineContext) -> MatchFeasibility:
        labels = np.asarray(ctx.graph.labels)
        budget = np.zeros(labels.shape[0], dtype=np.int64)
        for label, count in self._label_budget.items():
            budget[labels == label] = count
        return MatchFeasibility(labels, budget, self._max_degree)

    def map_block(self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap) -> None:
        """Count the rows whose canonical code row equals the pattern's —
        under ``materialize``, list them in row order instead — as the
        part's value.  Each slab's distinct codes are canonicalised once."""
        graph = ctx.graph
        kctx, keys = vertex_kernel_context(graph), edge_keys(graph)
        count, matches = 0, []
        for lo in range(0, block.shape[0], SLAB_ROWS):
            slab = block[lo : lo + SLAB_ROWS]
            _, codes = vertex_codes(kctx, graph, keys, slab)
            first_rows, inverse = distinct_rows(codes)
            canon = canonical_placements(codes[first_rows], slab.shape[1])[2]
            # List equality: a row with edge-label columns never equals a
            # pattern code without them, nor the reverse.
            hit = np.array([row == self._code for row in canon.tolist()], dtype=bool)
            rows = np.flatnonzero(hit[inverse])
            count += rows.shape[0]
            if self.materialize:
                matches.extend(zip(*slab[rows].T.tolist()))
        if count:
            pmap[0] = matches if self.materialize else count

    def reduce(self, ctx: EngineContext, pmaps: list[PatternMap]) -> PatternMap:
        """Sum the parts' counts; under ``materialize``, join the parts'
        matches in part order for the result and count them."""
        if not self.materialize:
            return super().reduce(ctx, pmaps)
        self._matches = [row for pmap in pmaps for row in pmap.get(0, ())]
        return {0: len(self._matches)} if self._matches else {}

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> MatchResult:
        return MatchResult(
            self.pattern,
            pmap.get(0, 0),
            self._matches if self.materialize else None,
        )
