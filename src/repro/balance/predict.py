"""Candidate-size prediction for load balancing (Section 4.2, Figure 8).

The candidate set of an embedding ``prefix + [x]`` is approximated as the
union of the candidate set of ``prefix`` (its stored children — ``x``'s
sibling slice in the CSE, available from the offset arrays for free) and
the neighborhood of ``x`` (from the graph CSC).  The merge is ``O(d̄)``
per embedding; the resulting per-embedding costs drive the partitioner so
spilled parts come out even despite the power-law skew of embedding
degrees.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..core.cse import CSE, level_vert_source
from ..core.kernels import _degree_sums, _in_packed, _pair_budget_chunks, _ranged_gather
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph

__all__ = [
    "predict_vertex_costs",
    "predict_edge_costs",
    "IOPlan",
    "plan_io",
]


# ----------------------------------------------------------------------
# Spill-part sizing (Silvestri's I/O-complexity bound)
# ----------------------------------------------------------------------
#: Bounds on the spill-part size, and the size without a budget.
_MIN_PART_ENTRIES = 1 << 12
_MAX_PART_ENTRIES = 1 << 20
_DEFAULT_PART_ENTRIES = 1 << 16


@dataclass(frozen=True)
class IOPlan:
    """The part-size choice for one spilled level: ``part_entries`` is
    the spill-part granularity ``B`` (ids per part)."""

    part_entries: int

    def as_dict(self) -> dict:
        return asdict(self)


def plan_io(
    predicted_entries: int,
    bytes_per_entry: int,
    headroom_bytes: int | None = None,
) -> IOPlan:
    """Pick the spill-part size for one level.

    Silvestri's I/O-complexity analysis of subgraph enumeration bounds
    the I/O of a level scan by ``O(E_l · b / B)`` block transfers — I/O
    cost falls linearly in the block (part) size ``B``, so within the
    memory budget ``M`` parts should be as large as the budget allows
    rather than a fixed knob.  Two parts ``2 · B · b`` are held to about
    a quarter of the measured headroom so the level's own output and the
    off arrays keep their share of ``M``; without a budget the part size
    is ``_DEFAULT_PART_ENTRIES``.  The size is clamped to
    ``[_MIN_PART_ENTRIES, _MAX_PART_ENTRIES]`` and to the level itself.
    """
    bytes_per_entry = max(1, int(bytes_per_entry))
    if headroom_bytes is not None and headroom_bytes > 0:
        part_entries = headroom_bytes // 4 // (2 * bytes_per_entry)
    else:
        part_entries = _DEFAULT_PART_ENTRIES
    part_entries = max(_MIN_PART_ENTRIES, min(_MAX_PART_ENTRIES, int(part_entries)))
    # No point cutting parts larger than the level itself.
    if predicted_entries > 0:
        part_entries = min(
            part_entries, max(_MIN_PART_ENTRIES, int(predicted_entries))
        )
    return IOPlan(part_entries=part_entries)


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted with repeats dropped (a plain sort: ``np.unique``
    hashes, and is far slower on wide int64 keys)."""
    keys = np.sort(keys)
    if keys.shape[0]:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def _union_sizes(
    indptr: np.ndarray,
    data: np.ndarray,
    modulus: int,
    lists: np.ndarray,
    parents: np.ndarray | None = None,
    children: np.ndarray | None = None,
) -> np.ndarray:
    """Per row ``r``: ``|S_r ∪ data[indptr[c]:indptr[c + 1]] for c in lists[r]|``.

    ``lists`` is ``(rows, arity)``: the CSR rows each row unions.  With
    ``parents`` (local parent index per row, ascending) and ``children``
    (the row's own id), ``S_r`` is the set of children sharing row
    ``r``'s parent — the sibling slice; without, it is empty.  Computed
    as ``|S| + |L| − |S ∩ L|`` from one ranged gather of the lists ``L``
    probed against packed ``parent * modulus + sibling`` keys."""
    rows, arity = lists.shape
    flat = lists.reshape(-1)
    values, owner = _ranged_gather(
        indptr[flat], indptr[flat + 1], data, np.arange(rows * arity, dtype=np.int64) // arity
    )
    if arity > 1:
        # A row's lists may share ids (both endpoints' incident lists hold
        # the edge joining them): count each id once.
        keys = _sorted_distinct(owner * modulus + values)
        owner = keys // modulus
        values = keys - owner * modulus
    sizes = np.bincount(owner, minlength=rows)
    if parents is not None and rows:
        siblings = _sorted_distinct(parents * modulus + children)
        sizes += np.bincount(siblings // modulus, minlength=int(parents[-1]) + 1)[parents]
        shared = _in_packed(siblings, modulus, parents[owner], values)
        sizes -= np.bincount(owner[shared], minlength=rows)
    return sizes


def _top_vert(cse: CSE) -> np.ndarray:
    """The top level's ids; a spilled level is read through its mmap
    accessor, not deserialised part by part."""
    source = level_vert_source(cse.top)
    if isinstance(source, np.ndarray):
        return source
    return np.asarray(source[np.arange(cse.size(), dtype=np.int64)])


def _chunked_union_sizes(
    cse: CSE, indptr: np.ndarray, data: np.ndarray, modulus: int, lists_of
) -> np.ndarray:
    """:func:`_union_sizes` over the whole top level, with the sibling
    slices of its parents (none at the root level).

    Runs in parent-aligned chunks of at most
    :data:`~repro.core.kernels.PAIR_BUDGET` gathered ids (a parent whose
    children gather more runs alone), so the gather's transients stay
    bounded however large the level.  ``lists_of(ids)`` maps embedding
    ids to the ``(rows, arity)`` CSR rows each unions.
    """
    vert = _top_vert(cse).astype(np.int64)
    costs = np.zeros(vert.shape[0], dtype=np.int64)
    row_pairs = _degree_sums(indptr, lists_of(vert))
    if cse.depth == 1:
        for lo, hi in _pair_budget_chunks(row_pairs):
            costs[lo:hi] = _union_sizes(indptr, data, modulus, lists_of(vert[lo:hi]))
        return costs
    off = cse.top.off_array()
    if off is None:
        raise ValueError("prediction needs the top level's off array")
    prefix = np.zeros(vert.shape[0] + 1, dtype=np.int64)
    np.cumsum(row_pairs, out=prefix[1:])
    for first, stop in _pair_budget_chunks(prefix[off[1:]] - prefix[off[:-1]]):
        lo, hi = int(off[first]), int(off[stop])
        children = vert[lo:hi]
        parents = np.repeat(
            np.arange(stop - first, dtype=np.int64), np.diff(off[first : stop + 1])
        )
        costs[lo:hi] = _union_sizes(
            indptr, data, modulus, lists_of(children), parents, children
        )
    return costs


def predict_vertex_costs(graph: Graph, cse: CSE) -> np.ndarray:
    """Predicted candidate count per top-level embedding (vertex-induced):
    ``|siblings ∪ N(last vertex)|``, or the degree at the root level."""
    if cse.depth == 1:
        return graph.degrees()[cse.levels[0].vert_array()].astype(np.int64)
    return _chunked_union_sizes(
        cse, graph.indptr, graph.indices, graph.num_vertices, lambda ids: ids[:, None]
    )


def predict_edge_costs(index: EdgeIndex, cse: CSE) -> np.ndarray:
    """Predicted candidate count per top-level embedding (edge-induced).

    The last edge contributes the incident lists of its two endpoints
    (deduped); the prefix contributes the sibling slice, as in the
    vertex-induced case.
    """
    indptr, incident = index.incident_arrays()

    def endpoints(ids: np.ndarray) -> np.ndarray:
        return np.stack([index.edge_u[ids], index.edge_v[ids]], axis=1).astype(np.int64)

    return _chunked_union_sizes(cse, indptr, incident, index.num_edges, endpoints)
