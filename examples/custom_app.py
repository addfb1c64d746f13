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

import numpy as np

from repro import KaleidoEngine, MiningApplication
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

    Exploration: vertex-induced to 3-embeddings; the Mapper extends each
    3-embedding by one more vertex on the fly (like motif counting does)
    and keeps only star-shaped ones — the EmbeddingFilter already pruned
    candidates that would close triangles, which shrinks the frontier
    dramatically on clustered graphs.
    """

    induced = "vertex"

    def iterations(self) -> int:
        return 2  # 1-embeddings -> 3-embeddings

    def block_filter(self, ctx):
        return one_neighbor_inside

    def init(self, ctx):
        self._adjacency = ctx.graph.adjacency_sets()
        self._labels = ctx.graph.labels
        return super().init(ctx)

    @staticmethod
    def _hub(adjacency, verts) -> int | None:
        """The unique vertex adjacent to all others, if this is a star."""
        for hub in verts:
            if all(w in adjacency[hub] for w in verts if w != hub):
                leaves = [w for w in verts if w != hub]
                if all(
                    leaves[i] not in adjacency[leaves[j]]
                    for i in range(len(leaves))
                    for j in range(i + 1, len(leaves))
                ):
                    return hub
        return None

    def map_embedding(self, ctx, embedding, pmap) -> None:
        from repro.core.explore import canonical_extensions

        labels = self._labels
        adjacency = self._adjacency
        for cand in canonical_extensions(ctx.graph, embedding):
            # The final extension happens here, outside the engine, so
            # it repeats the filter's triangle-free test per candidate.
            if sum(1 for v in embedding if cand in adjacency[v]) != 1:
                continue
            verts = embedding + (cand,)
            hub = self._hub(adjacency, verts)
            if hub is None:
                continue
            leaf_labels = sorted(int(labels[v]) for v in verts if v != hub)
            if len(set(leaf_labels)) != 1:
                continue
            key = (int(labels[hub]), leaf_labels[0])
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
