"""Canonicality filters for embedding exploration (Definition 2).

An embedding is *canonical* when its vertex order equals the greedy
visiting order of its vertex set: start at the smallest id, then repeatedly
visit the smallest-id unvisited neighbor of the visited set.  Every
connected vertex set has exactly one canonical order, and each prefix of a
canonical order is itself canonical — so generating only canonical
embeddings yields every connected subgraph exactly once (completeness and
uniqueness, Section 3.1).

This module holds the brute-force reconstruction, used by the baseline
that must re-check full embeddings (Arabesque's ODAG) and by tests.  The
incremental form of the rule — appending one candidate to an
already-canonical embedding — is fused into the expansion kernel's
gather bounds (:func:`repro.core.kernels.expand_block`).

The edge-induced analogue uses edge ids with the same greedy rule, where an
edge is visitable when it shares a vertex with the visited subgraph.
"""

from __future__ import annotations

from typing import Sequence

from ..graph.graph import Graph

__all__ = [
    "is_canonical",
    "canonical_order",
    "edge_is_canonical",
    "canonical_edge_order",
]


# ----------------------------------------------------------------------
# Vertex-induced
# ----------------------------------------------------------------------
def canonical_order(graph: Graph, vertices: Sequence[int]) -> tuple[int, ...]:
    """The unique canonical visiting order of a connected vertex set.

    Raises ``ValueError`` if the set does not induce a connected subgraph
    (then no canonical order exists).
    """
    remaining = set(int(v) for v in vertices)
    if not remaining:
        return ()
    current = min(remaining)
    order = [current]
    remaining.discard(current)
    visited = {current}
    while remaining:
        best = None
        for cand in remaining:
            if any(graph.has_edge(v, cand) for v in visited):
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise ValueError(f"vertex set {sorted(visited | remaining)} is disconnected")
        order.append(best)
        visited.add(best)
        remaining.discard(best)
    return tuple(order)


def is_canonical(graph: Graph, embedding: Sequence[int]) -> bool:
    """Full re-check: does the embedding equal its canonical order?"""
    try:
        return tuple(int(v) for v in embedding) == canonical_order(graph, embedding)
    except ValueError:
        return False


# ----------------------------------------------------------------------
# Edge-induced
# ----------------------------------------------------------------------
def _edge_touches(edge: tuple[int, int], vertices: set[int]) -> bool:
    return edge[0] in vertices or edge[1] in vertices


def canonical_edge_order(
    edges: Sequence[tuple[int, int]], edge_ids: Sequence[int]
) -> tuple[int, ...]:
    """The unique canonical order of a connected edge set, as edge ids."""
    id_to_edge = dict(zip((int(e) for e in edge_ids), (tuple(e) for e in edges)))
    remaining = set(id_to_edge)
    if not remaining:
        return ()
    current = min(remaining)
    order = [current]
    remaining.discard(current)
    vertices = set(id_to_edge[current])
    while remaining:
        best = None
        for eid in remaining:
            if _edge_touches(id_to_edge[eid], vertices):
                if best is None or eid < best:
                    best = eid
        if best is None:
            raise ValueError("edge set is disconnected")
        order.append(best)
        vertices.update(id_to_edge[best])
        remaining.discard(best)
    return tuple(order)


def edge_is_canonical(
    edges: Sequence[tuple[int, int]], edge_ids: Sequence[int]
) -> bool:
    """Full re-check for an ordered edge-induced embedding."""
    try:
        return tuple(int(e) for e in edge_ids) == canonical_edge_order(edges, edge_ids)
    except ValueError:
        return False
