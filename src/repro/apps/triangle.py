"""Triangle counting (Section 5.1).

``Init`` produces the 2-embeddings (the edge set); the Mapper counts, for
each 2-embedding ``<u, v>``, the common neighbors ``w > v`` — each
triangle is counted exactly once because its canonical 2-prefix is the
pair of its two smallest vertices.
"""

from __future__ import annotations

import numpy as np

from ..core.api import EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.kernels import _pair_budget_chunks, _ranged_gather, vertex_kernel_context
from ..core.pattern import Pattern, triangle_index

__all__ = ["TriangleCounting"]

#: The (unlabeled) triangle pattern: K_3.
_TRIANGLE = Pattern(
    (0, 0, 0),
    (1 << triangle_index(0, 1, 3))
    | (1 << triangle_index(0, 2, 3))
    | (1 << triangle_index(1, 2, 3)),
)


class TriangleCounting(MiningApplication):
    """Count the triangles of the input graph."""

    induced = "vertex"

    @property
    def name(self) -> str:
        return "TC"

    def iterations(self) -> int:
        # One expansion turns 1-embeddings (vertices) into 2-embeddings.
        return 1

    def query_pattern(self) -> Pattern:
        return _TRIANGLE

    def map_block(self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap) -> None:
        """Count each edge ``<u, v>``'s common neighbors ``w > v``: gather
        the tail of ``N(u)`` past ``v`` and probe ``(v, w)`` adjacency."""
        kctx = vertex_kernel_context(ctx.graph)
        n = kctx.num_vertices
        u = block[:, 0].astype(np.int64)
        v = block[:, 1].astype(np.int64)
        starts = np.searchsorted(kctx.adjacency_keys, u * n + v + 1)
        ends = kctx.indptr[u + 1]
        total = 0
        for lo, hi in _pair_budget_chunks(ends - starts):
            tail, owner = _ranged_gather(starts[lo:hi], ends[lo:hi], kctx.indices, v[lo:hi])
            total += int(np.count_nonzero(kctx.has_edges(owner, tail.astype(np.int64))))
        if total:
            pmap[0] = pmap.get(0, 0) + total

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> int:
        return pmap.get(0, 0)
