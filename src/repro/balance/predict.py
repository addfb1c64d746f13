"""Candidate-size prediction for load balancing (Section 4.2, Figure 8),
and spill-part sizing.

Each top-level embedding's predicted cost is its *gather length*: how
many ``(row, candidate)`` pairs the expansion kernel gathers for it, read
from the kernel's own bounded slices
(:func:`repro.core.kernels.gather_bounds`).  The paper approximates a
candidate set as ``|siblings ∪ N(x)|`` (Figure 8); the bounded length
is the exact work the kernel does instead, bounds the row's emitted
children from above, and costs one binary search per gather column.
The costs drive the partitioner, so parts come out even despite the
power-law skew of embedding degrees, and their sum sizes the next
level's sink and its spill parts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core import kernels
from ..core.cse import CSE
from ..core.kernels import EdgeKernelContext, VertexKernelContext, gather_bounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.restrictions import PatternGather

__all__ = [
    "predict_costs",
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
    a quarter of the measured headroom (none left: the smallest part),
    so the level's own output and the off arrays keep their share of
    ``M``; without a budget it is ``_DEFAULT_PART_ENTRIES``.  Clamped to
    ``[_MIN_PART_ENTRIES, _MAX_PART_ENTRIES]`` and to the level itself.
    """
    bytes_per_entry = max(1, int(bytes_per_entry))
    if headroom_bytes is None:
        part_entries = _DEFAULT_PART_ENTRIES
    else:
        part_entries = max(0, headroom_bytes) // 4 // (2 * bytes_per_entry)
    part_entries = max(_MIN_PART_ENTRIES, min(_MAX_PART_ENTRIES, int(part_entries)))
    # No point cutting parts larger than the level itself.
    if predicted_entries > 0:
        part_entries = min(
            part_entries, max(_MIN_PART_ENTRIES, int(predicted_entries))
        )
    return IOPlan(part_entries=part_entries)


# ----------------------------------------------------------------------
# Candidate-size prediction: the kernel's gather lengths
# ----------------------------------------------------------------------
def predict_costs(
    kctx: VertexKernelContext | EdgeKernelContext,
    cse: CSE,
    gather: "PatternGather | None" = None,
) -> np.ndarray:
    """Per top-level embedding, the pairs the kernel gathers to expand it
    (the level's pattern ``gather``, or the canonical expansion without
    one): ``int64``, one entry per row in storage order.

    The level is walked with :meth:`CSE.decode_block` in chunks of
    ``PAIR_BUDGET // width`` rows, so a spilled level streams through
    its mmap and the transients stay bounded beside ``costs`` itself.
    """
    size = cse.size()
    costs = np.empty(size, dtype=np.int64)
    step = max(1, kernels.PAIR_BUDGET // (cse.depth * kctx.arity))
    for lo in range(0, size, step):
        hi = min(size, lo + step)
        block64 = cse.decode_block(lo, hi).astype(np.int64, copy=False)
        starts, ends = gather_bounds(
            kctx, block64, kctx.gather_keys(block64).astype(np.int64, copy=False), gather
        )
        lengths = ends - starts
        costs[lo:hi] = lengths.sum(axis=1) if gather is None else lengths.min(axis=1)
    return costs
