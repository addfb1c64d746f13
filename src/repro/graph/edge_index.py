"""Vertex → incident-edge-id index for edge-induced exploration.

Edge ids follow :meth:`repro.graph.Graph.edge_arrays`: lexicographic order
of ``(u, v)`` with ``u < v``.  The index is the CSR of the bipartite
vertex/edge incidence, giving the incident edge ids of a vertex in one
sorted slice.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["EdgeIndex"]


class EdgeIndex:
    """Sorted incident-edge-id lists per vertex, plus id → endpoints."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        eu, ev = graph.edge_arrays()
        self.edge_u = eu
        self.edge_v = ev
        self._incident_keys: np.ndarray | None = None
        m = eu.shape[0]
        n = graph.num_vertices
        endpoints = np.concatenate([eu, ev]).astype(np.int64)
        edge_ids = np.tile(np.arange(m, dtype=np.int64), 2)
        order = np.lexsort((edge_ids, endpoints))
        endpoints = endpoints[order]
        edge_ids = edge_ids[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.indptr, endpoints + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.incident = edge_ids.astype(np.int32)

    @property
    def num_edges(self) -> int:
        return self.edge_u.shape[0]

    @property
    def id_dtype(self) -> np.dtype:
        """Narrowest integer dtype that holds every edge id (mirrors
        :attr:`repro.graph.Graph.id_dtype` for edge-induced levels)."""
        if self.num_edges <= np.iinfo(np.int32).max:
            return np.dtype(np.int32)
        return np.dtype(np.int64)

    def incident_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The vertex → incident-edge CSR pair ``(indptr, incident)`` —
        the arrays the vectorized edge-expansion kernel gathers from."""
        return self.indptr, self.incident

    def incident_keys(self) -> np.ndarray:
        """Packed sorted incidence view: ``vertex * num_edges + edge_id``
        for every incidence, in CSR order.

        Incident lists are sorted per vertex and vertices are contiguous
        in the CSR, so the packed array is globally ascending — one
        ``searchsorted`` finds the first incident edge id ``>= bound``
        within any vertex's slice, which is how the expansion kernel
        fuses its symmetry-breaking lower bounds into the edge gather.
        Cached so repeated kernel-context builds reuse one array.
        """
        if self._incident_keys is None:
            counts = np.diff(self.indptr)
            owners = np.repeat(
                np.arange(self.graph.num_vertices, dtype=np.int64), counts
            )
            self._incident_keys = owners * self.num_edges + self.incident
        return self._incident_keys

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        """The ``(u, v)`` endpoints (``u < v``) of an edge id."""
        return int(self.edge_u[edge_id]), int(self.edge_v[edge_id])

    def incident_edges(self, vertex: int) -> np.ndarray:
        """Sorted edge ids incident to ``vertex`` (a view)."""
        return self.incident[self.indptr[vertex] : self.indptr[vertex + 1]]

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of ``(u, v)``; raises ``KeyError`` if absent."""
        if u > v:
            u, v = v, u
        ids = self.incident_edges(u)
        # incident lists are sorted by edge id; edge ids of a fixed u are
        # ordered by v, so binary search on the v endpoint works.
        vs = self.edge_v[ids]
        us = self.edge_u[ids]
        for eid, uu, vv in zip(ids.tolist(), us.tolist(), vs.tolist()):
            if uu == u and vv == v:
                return int(eid)
        raise KeyError(f"edge ({u}, {v}) not in graph")

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.incident.nbytes
