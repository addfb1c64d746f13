"""Clique discovery (Section 5.1).

The query pattern is the complete pattern K_k, so every level plan
carries a :class:`~repro.core.restrictions.PatternGather`: the kernel
admits a candidate only when it is adjacent to *every* embedding vertex
(gathering one neighbor-list tail and probing the others), and after
``k - 1`` iterations the CSE's top level holds exactly the k-cliques.
No Mapper work is needed — all embeddings share one pattern — so the
aggregation just counts.
"""

from __future__ import annotations

import numpy as np

from ..core.api import EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.pattern import Pattern, triangle_index

__all__ = ["CliqueDiscovery", "CliqueResult"]


class CliqueResult:
    """Number of k-cliques plus an optional materialised list."""

    def __init__(self, k: int, count: int, cliques: list[tuple[int, ...]] | None):
        self.k = k
        self.count = count
        self.cliques = cliques

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.count == other
        if isinstance(other, CliqueResult):
            return (self.k, self.count) == (other.k, other.count)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CliqueResult(k={self.k}, count={self.count})"


class CliqueDiscovery(MiningApplication):
    """Discover (count, optionally materialise) all k-cliques."""

    induced = "vertex"

    def __init__(self, k: int, materialize: bool = False) -> None:
        if k < 2:
            raise ValueError("clique size must be at least 2")
        self.k = k
        self.materialize = materialize

    @property
    def name(self) -> str:
        return f"{self.k}-Clique"

    def iterations(self) -> int:
        return self.k - 1

    def query_pattern(self) -> Pattern:
        """The unlabeled complete pattern K_k — which makes the planner
        gather all-adjacent extensions at every level."""
        bits = 0
        for i in range(self.k):
            for j in range(i + 1, self.k):
                bits |= 1 << triangle_index(i, j, self.k)
        return Pattern((0,) * self.k, bits)

    def map_block(self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap) -> None:
        # Every top-level embedding is a k-clique: the mapper just counts.
        if block.shape[0]:
            pmap[0] = pmap.get(0, 0) + block.shape[0]

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> CliqueResult:
        count = pmap.get(0, 0)
        cliques = None
        if self.materialize:
            cliques = [emb for _, emb in cse.iter_embeddings()]
        return CliqueResult(self.k, count, cliques)
