"""Pattern structure: label array + upper-triangle adjacency bitmap.

Figure 5 of the paper: a k-vertex pattern is stored as a label array of
length ``k`` plus the upper triangle of its adjacency matrix packed into a
bitmap of ``k(k-1)/2`` bits.  We pack the bitmap into a single Python
integer (bit ``t`` set means the t-th upper-triangle cell, row-major, holds
an edge).

One pattern can be represented by many (automorphic) structures; identity
of the *pattern* is decided by the EigenHash fingerprint
(:mod:`repro.core.eigenhash`) or, exactly, by
:func:`repro.core.isomorphism.canonical_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import EmbeddingSizeError
from ..graph.graph import Graph

__all__ = ["Pattern", "triangle_index", "MAX_EIGENHASH_VERTICES"]

#: Largest embedding size for which the EigenHash fingerprint is
#: collision-free.  The paper's Corollary 1 claims equal degrees plus an
#: equal spectrum imply isomorphism below 9 vertices, but on 8 vertices
#: two non-isomorphic graphs share both
#: (:data:`~repro.core.eigenhash.COSPECTRAL_EQUAL_DEGREES_8`), so the
#: bound is 7.
MAX_EIGENHASH_VERTICES = 7


def triangle_index(i: int, j: int, k: int) -> int:
    """Bit position of upper-triangle cell ``(i, j)``, ``i < j``, in a
    ``k``-vertex pattern bitmap (row-major over the gray area of Fig. 5b)."""
    if not 0 <= i < j < k:
        raise ValueError(f"need 0 <= i < j < k, got i={i}, j={j}, k={k}")
    # Cells before row i: sum_{r<i} (k-1-r); then offset within row i.
    return i * (k - 1) - (i * (i - 1)) // 2 + (j - i - 1)


@dataclass(frozen=True)
class Pattern:
    """An immutable k-vertex pattern (template graph).

    Attributes
    ----------
    labels:
        Vertex labels in structure order.
    bits:
        Upper-triangle adjacency bitmap as an arbitrary-precision int.
    edge_labels:
        Optional labels of the *present* edges, one per set bit of
        ``bits`` in ascending cell order (Definition 1's L(u, v)); ``None``
        for the common vertex-labeled-only case.
    """

    labels: tuple[int, ...]
    bits: int
    edge_labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.edge_labels is not None and len(self.edge_labels) != self.bits.bit_count():
            raise ValueError(
                f"{len(self.edge_labels)} edge labels for "
                f"{self.bits.bit_count()} edges"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_vertex_embedding(
        cls, graph: Graph, vertices: Sequence[int], use_labels: bool = True
    ) -> "Pattern":
        """Pattern of a vertex-induced embedding: *all* edges among
        ``vertices`` present in ``graph`` are part of the pattern.

        ``use_labels=False`` zeroes the labels — motif counting treats the
        input graph as unlabeled (Section 6.2)."""
        verts = [int(v) for v in vertices]
        k = len(verts)
        if use_labels:
            labels = tuple(graph.label(v) for v in verts)
        else:
            labels = (0,) * k
        bits = 0
        edge_labels: list[int] = []
        for i in range(k):
            for j in range(i + 1, k):
                if graph.has_edge(verts[i], verts[j]):
                    bits |= 1 << triangle_index(i, j, k)
                    if graph.has_edge_labels:
                        edge_labels.append(graph.edge_label(verts[i], verts[j]))
        return cls(labels, bits, tuple(edge_labels) if graph.has_edge_labels else None)

    @classmethod
    def from_edge_embedding(
        cls, graph: Graph, edges: Iterable[tuple[int, int]]
    ) -> "Pattern":
        """Pattern of an edge-induced embedding: exactly the given edges.

        Vertices are numbered in first-appearance order over the edge list,
        so two embeddings with the same edge sequence produce the same
        structure.
        """
        order: dict[int, int] = {}
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            u, v = int(u), int(v)
            for w in (u, v):
                if w not in order:
                    order[w] = len(order)
            pairs.append((order[u], order[v]))
        k = len(order)
        inv = [0] * k
        for vert, idx in order.items():
            inv[idx] = vert
        labels = tuple(graph.label(v) for v in inv)
        bits = 0
        for a, b in pairs:
            i, j = (a, b) if a < b else (b, a)
            bits |= 1 << triangle_index(i, j, k)
        if not graph.has_edge_labels:
            return cls(labels, bits)
        # Edge labels in ascending cell order of the structure.
        edge_labels = []
        for i in range(k):
            for j in range(i + 1, k):
                if bits >> triangle_index(i, j, k) & 1:
                    edge_labels.append(graph.edge_label(inv[i], inv[j]))
        return cls(labels, bits, tuple(edge_labels))

    @classmethod
    def from_adjacency(
        cls, labels: Sequence[int], matrix: Sequence[Sequence[int]] | np.ndarray
    ) -> "Pattern":
        """Build from an explicit (symmetric 0/1) adjacency matrix."""
        k = len(labels)
        bits = 0
        for i in range(k):
            for j in range(i + 1, k):
                if matrix[i][j]:
                    bits |= 1 << triangle_index(i, j, k)
        return cls(tuple(int(x) for x in labels), bits)

    @classmethod
    def from_code(cls, code: Sequence[int] | np.ndarray, kmax: int) -> "Pattern":
        """Decode one code row ``[k, labels (kmax, padded with -1), bits,
        edge labels by cell]``: the layout of the FSM block encoders and
        of :func:`~repro.core.eigenhash.eigen_hash_codes`.

        The edge-label columns, present only for an edge-labelled pattern,
        hold one label per upper-triangle cell of a ``kmax``-vertex
        pattern, indexed by the pattern's own cell numbering (0 where no
        edge); a row without them decodes to ``edge_labels=None``.
        """
        return cls(*cls.code_fields(code, kmax))

    @staticmethod
    def code_fields(
        code: Sequence[int] | np.ndarray, kmax: int
    ) -> tuple[tuple[int, ...], int, tuple[int, ...] | None]:
        """``(labels, bits, edge_labels)`` of one code row: the fields
        :meth:`from_code` builds, without building the pattern."""
        if isinstance(code, np.ndarray):
            code = code.tolist()
        k, bits = code[0], code[1 + kmax]
        labels = tuple(code[1 : 1 + k])
        cells = code[2 + kmax :]
        if not cells:
            return labels, bits, None
        return labels, bits, tuple(c for t, c in enumerate(cells) if bits >> t & 1)

    def to_code(self, kmax: int) -> list[int]:
        """This pattern's code row for patterns of at most ``kmax``
        vertices (the inverse of :meth:`from_code`).  An edge-labelled
        pattern needs ``kmax >= 2``: below that the row has no cell
        columns to mark it edge-labelled."""
        k = self.num_vertices
        if k > kmax:
            raise ValueError(f"pattern has {k} vertices, more than kmax={kmax}")
        code = [k, *self.labels, *(-1,) * (kmax - k), self.bits]
        if self.edge_labels is None:
            return code
        if kmax < 2:
            raise ValueError(f"an edge-labelled code row needs kmax >= 2, got {kmax}")
        cells = [0] * (kmax * (kmax - 1) // 2)
        labels = iter(self.edge_labels)
        for t in range(self.bits.bit_length()):
            if self.bits >> t & 1:
                cells[t] = next(labels)
        return code + cells

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def has_edge(self, i: int, j: int) -> bool:
        """Whether structure positions ``i`` and ``j`` are adjacent."""
        if i == j:
            return False
        if i > j:
            i, j = j, i
        return bool(self.bits >> triangle_index(i, j, self.num_vertices) & 1)

    @property
    def num_edges(self) -> int:
        return self.bits.bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """Degree of each position within the pattern, in structure order."""
        k = self.num_vertices
        degrees = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if self.bits >> triangle_index(i, j, k) & 1:
                    degrees[i] += 1
                    degrees[j] += 1
        return tuple(degrees)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (``int64``)."""
        k = self.num_vertices
        mat = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(i + 1, k):
                if self.bits >> triangle_index(i, j, k) & 1:
                    mat[i, j] = mat[j, i] = 1
        return mat

    def is_connected(self) -> bool:
        """Whether the pattern is a connected graph."""
        k = self.num_vertices
        if k == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(k):
                if j not in seen and self.has_edge(i, j):
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == k

    def edge_label_at(self, i: int, j: int) -> int:
        """Label of the edge between positions ``i`` and ``j`` (0 when the
        pattern is edge-unlabeled); ``KeyError`` if no edge is there."""
        if not self.has_edge(i, j):
            raise KeyError(f"no edge between positions {i} and {j}")
        if self.edge_labels is None:
            return 0
        if i > j:
            i, j = j, i
        cell = triangle_index(i, j, self.num_vertices)
        # Rank of this cell among the set bits below it.
        rank = (self.bits & ((1 << cell) - 1)).bit_count()
        return self.edge_labels[rank]

    def permute(self, perm: Sequence[int]) -> "Pattern":
        """Apply a vertex permutation: position ``t`` of the result is
        position ``perm[t]`` of this pattern."""
        k = self.num_vertices
        if sorted(perm) != list(range(k)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{k - 1}")
        labels = tuple(self.labels[p] for p in perm)
        bits = 0
        new_edge_labels: list[int] | None = [] if self.edge_labels is not None else None
        for i in range(k):
            for j in range(i + 1, k):
                if self.has_edge(perm[i], perm[j]):
                    bits |= 1 << triangle_index(i, j, k)
                    if new_edge_labels is not None:
                        new_edge_labels.append(self.edge_label_at(perm[i], perm[j]))
        return Pattern(
            labels,
            bits,
            None if new_edge_labels is None else tuple(new_edge_labels),
        )

    def sorted_by_label_degree(self) -> tuple["Pattern", tuple[int, ...]]:
        """Algorithm-1 normalisation: stable sort of positions by
        ``(label, degree)`` ascending (lines 29-33 of the paper).

        Returns the permuted pattern and the permutation used, where
        ``perm[t]`` is the original position now at position ``t`` — the
        FSM MNI counter needs the permutation to map embedding vertices to
        normalised pattern positions.  An already sorted pattern (every
        canonical one is) comes back as itself.
        """
        degrees = self.degree_sequence()
        perm = tuple(
            sorted(range(self.num_vertices), key=lambda i: (self.labels[i], degrees[i]))
        )
        if perm == tuple(range(self.num_vertices)):
            return self, perm
        return self.permute(perm), perm

    @property
    def storage_bits(self) -> int:
        """Size in bits of the Fig.-5 representation (labels excluded)."""
        k = self.num_vertices
        return k * (k - 1) // 2

    @property
    def nbytes(self) -> int:
        """Approximate bytes of the compact representation: one byte per
        label plus the bitmap rounded up to whole bytes (Fig. 5c)."""
        return self.num_vertices + (self.storage_bits + 7) // 8

    def check_eigenhash_size(self) -> None:
        """Raise if this pattern is too large for the EigenHash guarantee."""
        if self.num_vertices > MAX_EIGENHASH_VERTICES:
            raise EmbeddingSizeError(
                f"EigenHash is only collision-free below 8 vertices; "
                f"pattern has {self.num_vertices}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pattern(labels={self.labels}, bits={self.bits:#x})"
