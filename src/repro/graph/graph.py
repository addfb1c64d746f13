"""Immutable labeled undirected graph stored in CSR (== CSC) form.

The paper stores the input graph in compressed sparse column form
(Section 3.1.1); for an undirected graph with sorted neighbor lists CSR and
CSC coincide, so a single ``(indptr, indices)`` pair represents the sparse
adjacency matrix of Figure 2a.

Vertices are integers ``0..n-1``.  Each vertex carries an integer label
(the paper's labeling function ``L``).  Edge labels are supported but
default to zero everywhere; the four evaluation applications only use
vertex labels.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from ..errors import GraphConstructionError

__all__ = ["Graph"]


class Graph:
    """An immutable labeled undirected graph.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; neighbor list of vertex ``v``
        is ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32`` array of neighbor ids, sorted ascending within each
        vertex's slice.  Every undirected edge appears twice.
    labels:
        ``int32`` array of length ``n`` of vertex labels.

    Use :class:`repro.graph.GraphBuilder` or the loaders in
    :mod:`repro.graph.io` instead of calling this constructor with
    hand-rolled arrays.
    """

    __slots__ = (
        "indptr",
        "indices",
        "labels",
        "edge_labels",
        "_edge_u",
        "_edge_v",
        "_edge_label_map",
        "_adjacency_sets",
        "_adjacency_keys",
        "_degree_view",
        "_fingerprint",
        "input_ids",
        "name",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray,
        name: str = "graph",
        edge_labels: np.ndarray | None = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if indptr.ndim != 1 or indices.ndim != 1 or labels.ndim != 1:
            raise GraphConstructionError("indptr, indices and labels must be 1-D")
        if indptr.shape[0] != labels.shape[0] + 1:
            raise GraphConstructionError(
                f"indptr length {indptr.shape[0]} does not match "
                f"{labels.shape[0]} vertex labels"
            )
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise GraphConstructionError("indptr does not span the indices array")
        if np.any(np.diff(indptr) < 0):
            raise GraphConstructionError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        self.name = name
        self._edge_u: np.ndarray | None = None
        self._edge_v: np.ndarray | None = None
        self._edge_label_map: dict[tuple[int, int], int] | None = None
        self._adjacency_sets: list[frozenset[int]] | None = None
        self._adjacency_keys: np.ndarray | None = None
        self._degree_view: Graph | None = None
        self._fingerprint: str | None = None
        #: On a :meth:`degree_ordered` view, the input id of each of its
        #: vertices (in :attr:`id_dtype`); None on any other graph.
        self.input_ids: np.ndarray | None = None
        if edge_labels is not None:
            edge_labels = np.ascontiguousarray(edge_labels, dtype=np.int32)
            if edge_labels.shape[0] != indices.shape[0] // 2:
                raise GraphConstructionError(
                    f"expected one label per undirected edge "
                    f"({indices.shape[0] // 2}), got {edge_labels.shape[0]}"
                )
        #: Optional per-edge labels (Definition 1's L(u, v)), aligned with
        #: :meth:`edge_arrays` order; ``None`` means "all edges label 0".
        self.edge_labels = edge_labels

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.labels.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (each counted once)."""
        return self.indices.shape[0] // 2

    @property
    def num_labels(self) -> int:
        """Number of distinct vertex labels."""
        if self.labels.shape[0] == 0:
            return 0
        return int(np.unique(self.labels).shape[0])

    @property
    def average_degree(self) -> float:
        """Average vertex degree ``2|E| / |V|``."""
        if self.num_vertices == 0:
            return 0.0
        return self.indices.shape[0] / self.num_vertices

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (the paper's graph footprint)."""
        return self.indptr.nbytes + self.indices.nbytes + self.labels.nbytes

    @property
    def id_dtype(self) -> np.dtype:
        """Narrowest integer dtype that holds every vertex id.

        Emitted CSE levels store ids in this dtype, so graphs past the
        ``int32`` boundary widen to ``int64`` instead of overflowing.
        """
        if self.num_vertices <= np.iinfo(np.int32).max:
            return np.dtype(np.int32)
        return np.dtype(np.int64)

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content digest of the graph: stable across reloads of the
        same data, different for any topology/label difference.

        A BLAKE2b digest over the CSR arrays, the vertex labels and the
        edge labels (when present) — deliberately *not* over ``name``,
        so reloading the same file under another name still hits the
        same service cache entries.  Computed lazily and cached; code
        that mutates the backing arrays in place must call
        :meth:`invalidate_caches` afterwards, which is exactly how the
        service tier's result cache is invalidated on mutation.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.int64(self.num_vertices).tobytes())
            digest.update(self.indptr.tobytes())
            digest.update(self.indices.tobytes())
            digest.update(self.labels.tobytes())
            if self.edge_labels is not None:
                digest.update(b"elabels")
                digest.update(self.edge_labels.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def invalidate_caches(self) -> None:
        """Drop every lazily derived structure (fingerprint included).

        The CSR arrays are nominally immutable, but numpy cannot enforce
        that; callers that do mutate them in place (relabeling an array
        slice, experiment plumbing) must call this so the fingerprint,
        edge arrays, adjacency caches and :meth:`degree_ordered` view are
        rebuilt from the new contents instead of serving stale views.
        """
        self._fingerprint = None
        self._edge_u = None
        self._edge_v = None
        self._edge_label_map = None
        self._adjacency_sets = None
        self._adjacency_keys = None
        self._degree_view = None

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an ``int64`` array."""
        return np.diff(self.indptr)

    def label(self, v: int) -> int:
        """Label of vertex ``v``."""
        return int(self.labels[v])

    def adjacency_sets(self) -> list[frozenset[int]]:
        """Per-vertex neighbor sets, built lazily on first use.

        O(1) membership tests for the canonical filter's hot path; costs
        one extra pass over the CSR arrays and is cached on the graph.
        """
        if self._adjacency_sets is None:
            indptr = self.indptr
            indices = self.indices.tolist()
            self._adjacency_sets = [
                frozenset(indices[indptr[v] : indptr[v + 1]])
                for v in range(self.num_vertices)
            ]
        return self._adjacency_sets

    def adjacency_keys(self) -> np.ndarray:
        """Packed sorted-array adjacency view: ``u * n + w`` per CSR entry.

        Because ``indices`` is sorted within each vertex slice and slices
        follow vertex order, the packed array is globally ascending — one
        :func:`numpy.searchsorted` over packed ``u * n + w`` keys answers
        arbitrarily large batches of edge-membership queries in
        O(log 2|E|) each, without materialising adjacency sets.  Built
        lazily and cached on the graph.
        """
        if self._adjacency_keys is None:
            sources = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
            )
            self._adjacency_keys = sources * self.num_vertices + self.indices
        return self._adjacency_keys

    def degree_ordered(self) -> "Graph":
        """This graph relabelled by ascending degree, ties broken by id.

        Vertex ``i`` of the view is input vertex ``input_ids[i]``; vertex
        labels and edge labels travel with their vertices and edges (the
        edge labels realigned to the view's own :meth:`edge_arrays`
        order), so every pattern keeps its hash.  The hubs sit at the
        highest ids, which keeps every "neighbours above me" tail of a
        chain-restricted clique enumeration short.  Built lazily, with
        its :meth:`adjacency_keys`, and cached on the graph (threads
        racing on a first call may each build one; any of them is
        correct); when the order is already ascending the view is the
        graph itself.
        """
        if self._degree_view is None:
            n = self.num_vertices
            degrees = self.degrees()
            order = np.argsort(degrees, kind="stable")
            if np.array_equal(order, np.arange(n)):
                self._degree_view = self
                return self
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n)
            sources = np.repeat(rank, degrees)
            keys = np.sort(sources * n + rank[self.indices])
            edge_labels = None
            if self.edge_labels is not None:
                eu, ev = self.edge_arrays()
                a, b = rank[eu], rank[ev]
                edge_key = np.minimum(a, b) * n + np.maximum(a, b)
                edge_labels = self.edge_labels[np.argsort(edge_key)]
            view = Graph(
                np.concatenate(([0], np.cumsum(degrees[order]))),
                keys % n,
                self.labels[order],
                name=self.name,
                edge_labels=edge_labels,
            )
            view.input_ids = order.astype(view.id_dtype)
            view._adjacency_keys = keys
            self._degree_view = view
        return self._degree_view

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists (O(1) amortised
        via the cached adjacency sets)."""
        return v in self.adjacency_sets()[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        eu, ev = self.edge_arrays()
        for u, v in zip(eu.tolist(), ev.tolist()):
            yield u, v

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge list as two parallel arrays ``(u, v)`` with ``u < v``.

        Edges are sorted lexicographically, which defines the *edge id*
        used by the edge-induced exploration: edge ``i`` is
        ``(edge_u[i], edge_v[i])``.
        """
        if self._edge_u is None:
            src = np.repeat(
                np.arange(self.num_vertices, dtype=np.int32), np.diff(self.indptr)
            )
            dst = self.indices
            keep = src < dst
            self._edge_u = np.ascontiguousarray(src[keep])
            self._edge_v = np.ascontiguousarray(dst[keep])
        return self._edge_u, self._edge_v

    def edge_label(self, u: int, v: int) -> int:
        """Label of edge ``(u, v)`` (0 when the graph is edge-unlabeled).

        Raises ``KeyError`` when the edge does not exist and labels are
        present; with no edge labels it simply returns 0 for any pair.
        """
        if self.edge_labels is None:
            return 0
        if self._edge_label_map is None:
            eu, ev = self.edge_arrays()
            self._edge_label_map = {
                (int(a), int(b)): int(lab)
                for a, b, lab in zip(eu, ev, self.edge_labels)
            }
        if u > v:
            u, v = v, u
        return self._edge_label_map[(u, v)]

    @property
    def has_edge_labels(self) -> bool:
        """Whether a non-trivial edge labeling is attached."""
        return self.edge_labels is not None

    def with_edge_labels(self, labels, name: str | None = None) -> "Graph":
        """A copy of this graph carrying the given per-edge labels.

        ``labels`` aligns with :meth:`edge_arrays` order (lexicographic
        ``(u, v)``, ``u < v``)."""
        arr = np.asarray(list(labels) if not isinstance(labels, np.ndarray) else labels)
        return Graph(
            self.indptr,
            self.indices,
            self.labels,
            name=name or f"{self.name}-elabels",
            edge_labels=arr,
        )

    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        """Sorted ids adjacent to both ``u`` and ``v``."""
        return np.intersect1d(
            self.neighbors(u), self.neighbors(v), assume_unique=True
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def relabel(self, labels: Iterable[int] | np.ndarray, name: str | None = None) -> "Graph":
        """A copy of this graph with new vertex labels.

        Used by the Figure-13 experiment, where the Patent graph is mined
        under a 7-label and a 37-label assignment of the same topology.
        """
        new_labels = np.asarray(list(labels) if not isinstance(labels, np.ndarray) else labels)
        if new_labels.shape[0] != self.num_vertices:
            raise GraphConstructionError(
                f"expected {self.num_vertices} labels, got {new_labels.shape[0]}"
            )
        return Graph(
            self.indptr, self.indices, new_labels, name=name or f"{self.name}-relabel"
        )

    def induced_subgraph_edges(self, vertices: Iterable[int]) -> list[tuple[int, int]]:
        """Edges of the subgraph induced by ``vertices`` (local queries).

        Returned as pairs of *original* vertex ids with ``u < v``.
        """
        verts = sorted(set(int(v) for v in vertices))
        vset = set(verts)
        out: list[tuple[int, int]] = []
        for u in verts:
            for w in self.neighbors(u).tolist():
                if w > u and w in vset:
                    out.append((u, w))
        return out

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, labels={self.num_labels}, "
            f"avg_deg={self.average_degree:.2f})"
        )
