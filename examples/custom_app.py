"""Writing a custom mining application against the Kaleido API.

The paper's Listing-1 API lets non-experts express new mining workloads
with a handful of hooks.  This example implements **labeled star census**:
count, for each (hub label, leaf label) pair, the number of 3-stars whose
hub carries the first label and whose leaves all carry the second — a
pattern query none of the four built-in applications answers directly.

Usage::

    python examples/custom_app.py
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro import KaleidoEngine, MiningApplication
from repro.core.kernels import vertex_kernel_context
from repro.graph import datasets


def one_neighbor_inside(ctx, block, rows, candidates) -> np.ndarray:
    """Block filter (Listing 1's EmbeddingFilter, vectorized): stars are
    triangle-free, so keep only candidates adjacent to exactly one
    current member.

    ``block[rows[i]]`` is the embedding pair ``i`` would extend by
    ``candidates[i]``; ``ctx.has_edges`` tests a whole column of
    ``(member, candidate)`` pairs with one batch of binary searches.  The
    filter holds no state of its own, so pool threads can share it."""
    inside = np.zeros(rows.shape[0], dtype=np.int64)
    for col in range(block.shape[1]):
        inside += ctx.has_edges(block[rows, col], candidates)
    return inside == 1


class LabeledStarCensus(MiningApplication):
    """Count 3-stars (a hub with three leaves) by label signature.

    Exploration: vertex-induced to 4-embeddings; the EmbeddingFilter
    prunes candidates that would close triangles at every level, which
    shrinks the frontier dramatically on clustered graphs.  The Mapper
    keeps only the star-shaped embeddings.
    """

    induced = "vertex"

    def iterations(self) -> int:
        return 3  # 1-embeddings -> 4-embeddings

    def block_filter(self, ctx):
        return one_neighbor_inside

    def map_block(self, ctx, block, pmap) -> None:
        """Listing 1's Mapper over a whole part: ``block`` holds one
        4-embedding per row.

        The filter admitted each vertex beside exactly one member, so
        every embedding is a tree, and a tree is a star when one member,
        the hub, is adjacent to the other three."""
        has_edges = vertex_kernel_context(ctx.graph).has_edges
        degree = np.zeros(block.shape, dtype=np.int64)
        for i, j in combinations(range(block.shape[1]), 2):
            edge = has_edges(block[:, i], block[:, j])
            degree[:, i] += edge
            degree[:, j] += edge
        is_hub = degree == 3
        star = is_hub.any(axis=1)
        labels, is_hub = ctx.graph.labels[block[star]], is_hub[star]
        # Boolean indexing reads row by row: one hub, then three leaves.
        hub_labels = labels[is_hub]
        leaf_labels = labels[~is_hub].reshape(-1, 3)
        same = np.all(leaf_labels == leaf_labels[:, :1], axis=1)
        for key in zip(hub_labels[same].tolist(), leaf_labels[same, 0].tolist()):
            pmap[key] = pmap.get(key, 0) + 1

    def finalize(self, ctx, cse, pmap):
        return dict(sorted(pmap.items(), key=lambda kv: -kv[1]))


def main() -> None:
    graph = datasets.load("citeseer", "bench")
    print(f"Input: {graph}\n")
    result = KaleidoEngine(graph).run(LabeledStarCensus())
    print("3-star census by (hub label, leaf label):")
    for (hub, leaf), count in list(result.value.items())[:10]:
        print(f"  hub label {hub}, leaves labeled {leaf}: {count}")
    print(f"\n{result.summary()}")


if __name__ == "__main__":
    main()
