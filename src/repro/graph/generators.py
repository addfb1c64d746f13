"""Deterministic synthetic graph generators.

The evaluation datasets (MiCo, Patent, Youtube) are replaced by scaled-down
synthetic stand-ins (see DESIGN.md); these generators produce them.  All
generators are seeded and reproducible: the same ``seed`` always yields the
same graph, which the benchmark harness relies on.

The natural-graph generators (``chung_lu``, ``preferential_attachment``,
``rmat``) all produce the skewed power-law degree distributions the paper's
load-balance section depends on (Section 4.2 cites Faloutsos et al.).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphConstructionError
from .builder import GraphBuilder
from .graph import Graph

__all__ = [
    "erdos_renyi",
    "chung_lu",
    "preferential_attachment",
    "rmat",
    "zipf_labels",
    "ensure_connected_core",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def zipf_labels(
    num_vertices: int, num_labels: int, seed: int, exponent: float = 1.2
) -> np.ndarray:
    """Zipf-skewed vertex labels, matching real label frequency skew.

    Every label in ``0..num_labels-1`` is guaranteed to occur at least once
    when ``num_vertices >= num_labels`` (real datasets report exact label
    counts, and Table 1 must be reproducible from the registry).
    """
    if num_labels <= 0:
        raise GraphConstructionError("num_labels must be positive")
    rng = _rng(seed)
    weights = 1.0 / np.arange(1, num_labels + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    labels = rng.choice(num_labels, size=num_vertices, p=weights).astype(np.int32)
    if num_vertices >= num_labels:
        # Stamp one occurrence of each label at random distinct positions.
        slots = rng.choice(num_vertices, size=num_labels, replace=False)
        labels[slots] = np.arange(num_labels, dtype=np.int32)
    return labels


def erdos_renyi(
    num_vertices: int, num_edges: int, seed: int, num_labels: int = 1
) -> Graph:
    """G(n, m) uniform random graph."""
    rng = _rng(seed)
    builder = GraphBuilder(num_vertices)
    seen: set[int] = set()
    while len(seen) < num_edges:
        u = int(rng.integers(num_vertices))
        v = int(rng.integers(num_vertices))
        if u == v:
            continue
        key = min(u, v) * num_vertices + max(u, v)
        if key not in seen:
            seen.add(key)
            builder.add_edge(u, v)
    builder.set_labels(zipf_labels(num_vertices, num_labels, seed + 1))
    return builder.build(name=f"er-{num_vertices}-{num_edges}")


def chung_lu(
    num_vertices: int,
    num_edges: int,
    seed: int,
    num_labels: int = 1,
    exponent: float = 2.3,
) -> Graph:
    """Chung–Lu power-law graph with expected degree ``w_i ∝ i^(-1/(γ-1))``.

    Edges are sampled proportionally to ``w_u * w_v`` until ``num_edges``
    distinct edges exist, giving a skewed degree distribution with the
    target edge count exactly.
    """
    if num_vertices < 2:
        raise GraphConstructionError("need at least two vertices")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if not 0 <= num_edges <= max_edges:
        raise GraphConstructionError(
            f"num_edges must be between 0 and {max_edges} for {num_vertices} "
            f"vertices, got {num_edges}"
        )
    rng = _rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    probs = weights / weights.sum()
    builder = GraphBuilder(num_vertices)
    seen: set[int] = set()
    max_draws = 60 * num_edges + 1000
    draws = 0
    while len(seen) < num_edges and draws < max_draws:
        batch = max(256, num_edges - len(seen))
        us = rng.choice(num_vertices, size=batch, p=probs)
        vs = rng.choice(num_vertices, size=batch, p=probs)
        draws += batch
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            key = min(u, v) * num_vertices + max(u, v)
            if key not in seen:
                seen.add(key)
                builder.add_edge(u, v)
                if len(seen) == num_edges:
                    break
    builder.set_labels(zipf_labels(num_vertices, num_labels, seed + 1))
    return builder.build(name=f"cl-{num_vertices}-{num_edges}")


def preferential_attachment(
    num_vertices: int,
    edges_per_vertex: int,
    seed: int,
    num_labels: int = 1,
) -> Graph:
    """Barabási–Albert preferential attachment (power-law, connected)."""
    m = edges_per_vertex
    if num_vertices <= m:
        raise GraphConstructionError("num_vertices must exceed edges_per_vertex")
    rng = _rng(seed)
    builder = GraphBuilder(num_vertices)
    # Seed clique over the first m+1 vertices keeps early choices non-degenerate.
    targets: list[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            builder.add_edge(u, v)
            targets.extend((u, v))
    for v in range(m + 1, num_vertices):
        chosen: set[int] = set()
        while len(chosen) < m:
            pick = targets[int(rng.integers(len(targets)))]
            chosen.add(pick)
        for u in chosen:
            builder.add_edge(u, v)
            targets.extend((u, v))
    builder.set_labels(zipf_labels(num_vertices, num_labels, seed + 1))
    return builder.build(name=f"ba-{num_vertices}-{m}")


def rmat(
    scale: int,
    num_edges: int,
    seed: int,
    num_labels: int = 1,
    probs: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
) -> Graph:
    """R-MAT recursive matrix graph with ``2**scale`` vertices."""
    a, b, c, d = probs
    if abs(a + b + c + d - 1.0) > 1e-9:
        raise GraphConstructionError("R-MAT quadrant probabilities must sum to 1")
    n = 1 << scale
    rng = _rng(seed)
    builder = GraphBuilder(n)
    seen: set[int] = set()
    quadrant = np.array([a, b, c, d])
    max_draws = 80 * num_edges + 1000
    draws = 0
    while len(seen) < num_edges and draws < max_draws:
        u = v = 0
        for _ in range(scale):
            q = int(rng.choice(4, p=quadrant))
            u = (u << 1) | (q >> 1)
            v = (v << 1) | (q & 1)
        draws += 1
        if u == v:
            continue
        key = min(u, v) * n + max(u, v)
        if key not in seen:
            seen.add(key)
            builder.add_edge(u, v)
    builder.set_labels(zipf_labels(n, num_labels, seed + 1))
    return builder.build(name=f"rmat-{scale}-{num_edges}")


def ensure_connected_core(graph: Graph, seed: int = 0) -> Graph:
    """Link every isolated vertex to a random non-isolated one.

    The mining applications only ever see connected embeddings, but dataset
    statistics (Table 1) look odd with a large isolated fringe; the real
    datasets have none.
    """
    degrees = graph.degrees()
    isolated = np.flatnonzero(degrees == 0)
    if isolated.shape[0] == 0:
        return graph
    populated = np.flatnonzero(degrees > 0)
    if populated.shape[0] == 0:
        raise GraphConstructionError("graph has no edges at all")
    rng = _rng(seed)
    builder = GraphBuilder(graph.num_vertices)
    builder.add_edges(graph.edges())
    for v in isolated.tolist():
        builder.add_edge(v, int(populated[int(rng.integers(populated.shape[0]))]))
    builder.set_labels(graph.labels.tolist())
    return builder.build(name=graph.name)
