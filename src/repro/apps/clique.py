"""Clique discovery (Section 5.1).

The query pattern is the complete pattern K_k, so every level plan
carries a :class:`~repro.core.restrictions.PatternGather`: the kernel
admits a candidate only when it is adjacent to *every* embedding vertex
(gathering one neighbor-list tail and probing the others), and after
``k - 1`` iterations the last level holds exactly the k-cliques.  No
Mapper work is needed — all embeddings share one pattern — so the
aggregation just counts; under ``materialize`` each part keeps its
cliques, and the Reducer joins them.
"""

from __future__ import annotations

import numpy as np

from ..core.api import EngineContext, MiningApplication, PatternMap, check_saved_flag
from ..core.cse import CSE
from ..core.pattern import Pattern, triangle_index
from ..core.restrictions import chain_order

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
        #: The run's materialised cliques, set by ``reduce``.
        self._cliques: list[tuple[int, ...]] | None = None

    @property
    def name(self) -> str:
        return f"{self.k}-Clique"

    def iterations(self) -> int:
        return self.k - 1

    def init(self, ctx: EngineContext) -> np.ndarray:
        self._cliques = None
        return super().init(ctx)

    def query_pattern(self) -> Pattern:
        """The unlabeled complete pattern K_k — which makes the planner
        gather all-adjacent extensions at every level."""
        bits = 0
        for i in range(self.k):
            for j in range(i + 1, self.k):
                bits |= 1 << triangle_index(i, j, self.k)
        return Pattern((0,) * self.k, bits)

    def map_block(self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap) -> None:
        """Every last-level embedding is a k-clique: count the block's
        rows, or under ``materialize`` keep the block itself."""
        if not block.shape[0]:
            return
        if self.materialize:
            pmap.setdefault(0, []).append(block)
        else:
            pmap[0] = pmap.get(0, 0) + block.shape[0]

    def reduce(self, ctx: EngineContext, pmaps: list[PatternMap]) -> PatternMap:
        """Sum the parts' counts; under ``materialize``, join the parts'
        cliques and count them.  They come back in the caller's ids, in
        chain order: each ascending, the list lexicographic."""
        if not self.materialize:
            return super().reduce(ctx, pmaps)
        blocks = [block for pmap in pmaps for block in pmap.get(0, ())]
        rows = (
            np.concatenate(blocks) if blocks else np.zeros((0, self.k), dtype=np.int64)
        )
        self._cliques = chain_order(ctx.input_ids(rows))
        return {0: len(self._cliques)} if self._cliques else {}

    def checkpoint_state(self, ctx: EngineContext) -> dict:
        # ``materialize`` changes the answer but not the name, so the
        # resume checks it here; reduced cliques live in the app, and a
        # resume from the last iteration's checkpoint explores nothing to
        # rebuild them.
        return {"materialize": self.materialize, "cliques": self._cliques}

    def restore_state(self, ctx: EngineContext, state: dict) -> None:
        check_saved_flag(self, "materialize", state["materialize"])
        self._cliques = state["cliques"]

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> CliqueResult:
        cliques = self._cliques if self.materialize else None
        return CliqueResult(self.k, pmap.get(0, 0), cliques)
