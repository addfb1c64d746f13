"""Motif counting (Section 5.1).

Counts the frequency of every connected k-vertex motif in the (treated as
unlabeled) input graph.  Per the paper, exploration stops at the
``(k-1)``-embeddings; the Mapper then explores each part's canonical
k-extensions on the fly — one run of the expansion kernel's chunk
(:mod:`repro.core.kernels`) per ``PAIR_BUDGET`` slab of rows — and
fingerprints their patterns, so the largest level is never materialised
— which is why k-Motif stores only ``k - 1`` CSE levels (Table 4's
note).

An unlabeled k-vertex structure is fully determined by its adjacency
bitmap, so the mapper builds one bitmap code per k-embedding, counts the
codes with ``np.unique`` and hands each part's *distinct* codes to the
hasher as code rows ``[k, 0…, bits]`` in one
:meth:`~repro.core.eigenhash.PatternHasher.hash_codes` call: the paper's
argument for EigenHash — fingerprint patterns, not embeddings — applied
to a whole block.  The code is the slab row's
prefix bits, probed once per row ((k-1 choose 2) ``has_edges`` calls per
slab), OR'd with the new vertex's bits, which the kernel returns as each
candidate's adjacency mask over the embedding — no per-pair probe.  The
same code builder, :func:`extension_codes`, serves the sampled census of
:mod:`repro.apps.approximate`.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.api import EngineContext, MiningApplication, PatternMap
from ..core.cse import CSE
from ..core.kernels import (
    VertexKernelContext,
    _canonical_slabs,
    _expand_chunk,
    vertex_kernel_context,
)
from ..core.pattern import MAX_EIGENHASH_VERTICES, Pattern, triangle_index

__all__ = ["MotifCounting", "MotifResult", "MOTIF_COUNTS", "extension_codes", "unlabelled_codes"]

#: Number of connected unlabeled graphs on k vertices (what k-Motif yields).
MOTIF_COUNTS = {3: 2, 4: 6, 5: 21}


def check_motif_size(k: int) -> None:
    """Reject a motif size EigenHash cannot fingerprint before any level
    is explored."""
    if k < 3:
        raise ValueError("motif size must be at least 3")
    if k > MAX_EIGENHASH_VERTICES:
        raise ValueError(
            f"motif size must be at most MAX_EIGENHASH_VERTICES "
            f"({MAX_EIGENHASH_VERTICES}), got {k}"
        )


@functools.lru_cache(maxsize=None)
def _spread(k: int) -> np.ndarray:
    """``out[mask]``: the code bits of a k-embedding whose last vertex is
    adjacent to the prefix columns set in ``mask`` — each column ``i``
    maps to its ``(i, k - 1)`` triangle cell.  2^(k-1) entries."""
    last = k - 1
    masks = np.arange(1 << last, dtype=np.int64)
    out = np.zeros(1 << last, dtype=np.int64)
    for i in range(last):
        out[(masks >> i) & 1 == 1] |= 1 << triangle_index(i, last, k)
    out.flags.writeable = False
    return out


def extension_codes(
    kctx: VertexKernelContext,
    slab: np.ndarray,
    k: int,
    bounds: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Expand an int64 slab of (k-1)-embeddings by one canonical vertex
    and return ``(rows, codes)``: one entry per k-embedding, in (row,
    candidate ascending) order — ``rows[i]`` is the slab row it extends
    and ``codes[i]`` its unlabeled adjacency bitmap (``Pattern.bits``).

    Callers cut ``slab`` with ``_canonical_slabs``, which also gives its
    gather ``bounds``, so the kernel's and the codes' temporaries stay
    bounded by ``PAIR_BUDGET``; the slab is one kernel chunk.
    """
    last = k - 1
    _, rows, _, adjacent = _expand_chunk(kctx, slab, slab, None, bounds)
    if rows.shape[0] == 0:
        return rows, np.zeros(0, dtype=np.int64)
    # Adjacency bits among the (k-1)-prefix are shared by a row's
    # children and probed per row; the candidate's come from the kernel.
    prefix = np.zeros(slab.shape[0], dtype=np.int64)
    for i in range(last):
        for j in range(i + 1, last):
            prefix[kctx.has_edges(slab[:, i], slab[:, j])] |= 1 << triangle_index(i, j, k)
    return rows, prefix[rows] | _spread(k)[adjacent]


def unlabelled_codes(bits: np.ndarray, k: int) -> np.ndarray:
    """Code rows ``[k, 0 (k times), bits]`` of unlabelled k-vertex
    structures: :meth:`Pattern.to_code`'s layout at ``kmax = k``, which
    :meth:`~repro.core.eigenhash.PatternHasher.hash_codes` takes."""
    codes = np.zeros((bits.shape[0], k + 2), dtype=np.int64)
    codes[:, 0] = k
    codes[:, k + 1] = bits
    return codes


class MotifResult(dict):
    """Pattern hash → occurrence count, plus representative structures."""

    def __init__(self, counts: dict[int, int], patterns: dict[int, Pattern]):
        super().__init__(counts)
        self.patterns = patterns

    @property
    def total(self) -> int:
        return sum(self.values())


class MotifCounting(MiningApplication):
    """Count all connected k-vertex motifs, k >= 3."""

    induced = "vertex"
    mapper_cost_tracks_candidates = True

    def __init__(self, k: int, hash_every_embedding: bool = False) -> None:
        check_motif_size(k)
        self.k = k
        #: The paper's engine fingerprints every embedding individually;
        #: by default we hash each distinct adjacency bitmap once per part
        #: instead (unlabeled structures are bitmap-determined).  The
        #: Figure-12 benchmark and the caching ablation set this flag to
        #: recover the paper's per-embedding regime: one ``hash_pattern``
        #: call per k-embedding.
        self.hash_every_embedding = hash_every_embedding

    @property
    def name(self) -> str:
        return f"{self.k}-Motif"

    def iterations(self) -> int:
        # Explore 1-embeddings up to (k-1)-embeddings.
        return self.k - 2

    def map_block(self, ctx: EngineContext, block: np.ndarray, pmap: PatternMap) -> None:
        """Expand the block to k-embeddings on the fly and count each
        adjacency code, hashing every distinct code once."""
        k = self.k
        kctx = vertex_kernel_context(ctx.graph)
        block = block.astype(np.int64, copy=False)
        tally: dict[int, int] = {}
        for start, end, bounds in _canonical_slabs(kctx, block, block):
            _, codes = extension_codes(kctx, block[start:end], k, bounds)
            for code, count in zip(*(a.tolist() for a in np.unique(codes, return_counts=True))):
                tally[code] = tally.get(code, 0) + count
        if self.hash_every_embedding:
            labels = (0,) * k
            for code, count in tally.items():
                for _ in range(count):
                    phash = ctx.hash_pattern(Pattern(labels, code))
                    pmap[phash] = pmap.get(phash, 0) + 1
            return
        hashes = ctx.hash_codes(unlabelled_codes(np.array(list(tally), dtype=np.int64), k), k)
        for phash, count in zip(hashes.tolist(), tally.values()):
            pmap[phash] = pmap.get(phash, 0) + count

    def finalize(self, ctx: EngineContext, cse: CSE, pmap: PatternMap) -> MotifResult:
        patterns = {}
        for phash in pmap:
            rep = ctx.engine.hasher.representative(phash)
            if rep is not None:
                patterns[phash] = rep
        return MotifResult(dict(pmap), patterns)
