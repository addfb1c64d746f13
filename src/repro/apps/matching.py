"""Pattern matching: find the embeddings of one given pattern (Figure 1).

The paper's opening example: given a template pattern ``p``, enumerate the
embeddings of the input graph isomorphic to ``p`` ("pattern matching,
which is also a step of the frequent subgraph mining").

Expressed in the Kaleido API as a vertex-induced exploration whose
EmbeddingFilter prunes partial embeddings that can no longer complete to a
match (label multiset and degree-feasibility checks), with the final
Mapper keeping exactly the isomorphic ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.api import EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.isomorphism import are_isomorphic
from ..core.pattern import Pattern

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
        if not pattern.is_connected():
            raise ValueError("only connected patterns occur as embeddings")
        self.pattern = pattern
        self.materialize = materialize
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
        self._matches: list[tuple[int, ...]] = []
        # Seed only vertices whose label occurs in the pattern.
        wanted = np.isin(ctx.graph.labels, sorted(self._label_budget))
        return np.flatnonzero(wanted).astype(np.int32)

    def block_filter(self, ctx: EngineContext) -> MatchFeasibility:
        labels = np.asarray(ctx.graph.labels)
        budget = np.zeros(labels.shape[0], dtype=np.int64)
        for label, count in self._label_budget.items():
            budget[labels == label] = count
        return MatchFeasibility(labels, budget, self._max_degree)

    def start_part(self, ctx: EngineContext) -> list[tuple[int, ...]] | None:
        # Per-part match buffer, merged back in part-index order by
        # finish_part — concurrent parts must not append to the shared
        # list, or the materialised order becomes completion order.
        return [] if self.materialize else None

    def finish_part(
        self, ctx: EngineContext, part: list[tuple[int, ...]]
    ) -> None:
        self._matches.extend(part)

    def map_embedding(
        self,
        ctx: EngineContext,
        embedding: tuple[int, ...],
        pmap: PatternMap,
        part: list[tuple[int, ...]] | None = None,
    ) -> None:
        candidate = Pattern.from_vertex_embedding(ctx.graph, embedding)
        if are_isomorphic(candidate, self.pattern):
            pmap[0] = pmap.get(0, 0) + 1
            if self.materialize:
                # self._matches is only the receiver when part is None —
                # the single-threaded direct-call path.
                (self._matches if part is None else part).append(embedding)  # repro: ignore[R001]

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> MatchResult:
        return MatchResult(
            self.pattern,
            pmap.get(0, 0),
            self._matches if self.materialize else None,
        )
