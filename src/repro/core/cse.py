"""Compressed Sparse Embedding (CSE) — the paper's central data structure.

A k-embedding set is a sparse k-dimensional tensor (Figure 2b); CSE stores
it level by level, generalising compressed sparse column storage.  Level
``l`` holds two arrays (Figure 4):

``vert``
    The last vertex (or edge id, for edge-induced exploration) of every
    embedding at level ``l``.
``off``
    For each embedding ``i`` of level ``l-1``, its children occupy the
    slice ``vert[off[i]:off[i+1]]``.  The root level has no ``off``.

Every position in ``vert`` identifies one embedding; the full vertex tuple
is recovered by one of two walks (Section 3.1.1):

random access (:func:`decode_block_arrays`, :meth:`CSE.decode_rows`)
    Arbitrary positions walk parent offsets upward by binary search,
    ``O(k log d̄)`` per embedding: one ``searchsorted`` and one gather per
    row per level.  The approximate sampler's picks and
    :meth:`CSE.embedding_at` read this way.
sequential (:func:`decode_span_arrays`, :meth:`CSE.decode_block`)
    A contiguous range walks down from the top level: every level's rows
    form one contiguous slice, repeated by run length, so the cost is
    amortised ``O(1)`` per embedding.  Every part the engine expands or
    aggregates, and :meth:`CSE.iter_embeddings`, read this way.

Levels are accessed through the small :class:`Level` interface so that the
hybrid storage layer can substitute disk-backed spilled levels
(:class:`repro.storage.spill.SpilledLevel`) without the explorer noticing.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence

import numpy as np

__all__ = [
    "Level",
    "InMemoryLevel",
    "CSE",
    "decode_block_arrays",
    "decode_span_arrays",
    "level_vert_source",
]

#: Rows per :meth:`CSE.decode_block` call in :meth:`CSE.iter_embeddings`:
#: bounds the walk's memory to one chunk, resident or spilled.
WALK_ROWS = 4096


def decode_block_arrays(verts, offs, positions: np.ndarray) -> np.ndarray:
    """Decode the embeddings at ``positions`` of the top level from raw
    per-level accessors, one row per position (in the given order,
    repeats included) — the random-access walk.

    ``verts[l]`` is anything supporting a fancy gather with an int64
    position array (an ndarray, or a
    :class:`repro.storage.spill.PartedVector` over memmapped spill parts);
    ``offs[l]`` is the level's offset ndarray (``None`` at the root).
    :meth:`CSE.decode_rows` delegates here.
    """
    positions = np.asarray(positions, dtype=np.int64)
    columns: list[np.ndarray] = []
    for l in range(len(verts) - 1, 0, -1):
        columns.append(np.asarray(verts[l][positions]))
        off = offs[l]
        if off is None:
            raise ValueError(f"level {l} off array unavailable for decoding")
        positions = np.searchsorted(off, positions, side="right") - 1
    columns.append(np.asarray(verts[0][positions]))
    columns.reverse()
    return np.stack(columns, axis=1)


def decode_span_arrays(verts, offs, start: int, end: int) -> np.ndarray:
    """Decode the contiguous top-level range ``start..end`` from raw
    per-level accessors — the sequential walk.

    Works from the top level down.  The rows a range needs at each level
    are themselves one contiguous range ``verts[l][lo:hi]`` (a slice,
    never a gather): its parents ``p0..p1`` come from two scalar
    ``searchsorted`` calls.  Below the top, row ``i`` of a level's range
    stands for ``weights[i]`` output rows, so its column is
    ``np.repeat(verts[l][lo:hi], weights)``.  The parents' weights come
    from their child offsets clipped to the current range (only the two
    end parents can straddle it): the clipped child counts at the top
    level, differences of the current weights' cumulative sum below it.
    A parent with no children in the range (FSM's ``filter_top_level``
    leaves childless parents in lower levels) gets weight 0 and yields
    no row.

    ``verts[l]`` must also support ``[lo:hi]`` slicing; otherwise the
    inputs are :func:`decode_block_arrays`'s, and so is the result,
    byte for byte and dtype for dtype, for ``np.arange(start, end)``.
    :meth:`CSE.decode_block` delegates here.
    """
    depth = len(verts)
    out = np.empty(
        (end - start, depth), dtype=np.result_type(*[v.dtype for v in verts])
    )
    if end <= start:
        return out
    lo, hi = start, end
    weights = None  # at the top level every row weighs 1
    for l in range(depth - 1, -1, -1):
        column = verts[l][lo:hi]
        out[:, l] = column if weights is None else column.repeat(weights)
        if l == 0:
            break
        off = offs[l]
        if off is None:
            raise ValueError(f"level {l} off array unavailable for decoding")
        p0 = int(off.searchsorted(lo, side="right")) - 1
        p1 = int(off.searchsorted(hi - 1, side="right")) - 1
        bounds = off[p0 : p1 + 2] - lo
        bounds[0], bounds[-1] = 0, hi - lo
        if weights is not None:
            cum = np.empty(hi - lo + 1, dtype=np.int64)
            cum[0] = 0
            weights.cumsum(out=cum[1:])
            bounds = cum[bounds]
        weights = bounds[1:] - bounds[:-1]
        lo, hi = p0, p1 + 1
    return out


def level_vert_source(level: "Level"):
    """A level's vertex array in gatherable form, without loading it: the
    array itself when resident, the mmap-served ``vert_accessor`` when
    the level is spilled."""
    accessor = getattr(level, "vert_accessor", None)
    return accessor() if callable(accessor) else level.vert_array()


class Level(Protocol):
    """What the explorer needs from one CSE level."""

    @property
    def num_embeddings(self) -> int:
        """Number of embeddings stored at this level."""

    def off_array(self) -> np.ndarray | None:
        """Offset array (length ``parent_count + 1``), or ``None`` at the
        root.  May be loaded lazily from disk."""

    def vert_array(self) -> np.ndarray:
        """The whole vertex array in memory (loads spilled parts)."""

    @property
    def nbytes_in_memory(self) -> int:
        """Bytes currently resident in memory for this level."""

    @property
    def nbytes_total(self) -> int:
        """Bytes of the level wherever they live (memory + disk)."""


class InMemoryLevel:
    """A CSE level fully resident in memory.

    ``dtype`` is the id storage width (``int32`` by default; the engine
    widens it to ``int64`` past the 2^31 id boundary via
    :func:`repro.core.kernels.id_dtype` so huge graphs don't silently
    overflow).
    """

    def __init__(
        self,
        vert: np.ndarray,
        off: np.ndarray | None,
        dtype: np.dtype | None = None,
    ) -> None:
        if dtype is None:
            dtype = np.dtype(np.int32)
        self.vert = np.ascontiguousarray(vert, dtype=dtype)
        self.off = None if off is None else np.ascontiguousarray(off, dtype=np.int64)
        if self.off is not None:
            if self.off[0] != 0 or self.off[-1] != self.vert.shape[0]:
                raise ValueError(
                    f"off array [{self.off[0]}..{self.off[-1]}] does not span "
                    f"{self.vert.shape[0]} vertices"
                )
            if np.any(np.diff(self.off) < 0):
                raise ValueError("off array must be non-decreasing")

    @property
    def num_embeddings(self) -> int:
        return self.vert.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Id storage width of this level's vertex array."""
        return self.vert.dtype

    def off_array(self) -> np.ndarray | None:
        return self.off

    def vert_array(self) -> np.ndarray:
        return self.vert

    @property
    def nbytes_in_memory(self) -> int:
        return self.vert.nbytes + (0 if self.off is None else self.off.nbytes)

    @property
    def nbytes_total(self) -> int:
        return self.nbytes_in_memory

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InMemoryLevel(n={self.num_embeddings})"


class CSE:
    """A stack of levels describing 1..k-embeddings of one exploration."""

    def __init__(self, roots: Sequence[int] | np.ndarray) -> None:
        root = InMemoryLevel(np.asarray(roots, dtype=np.int32), None)
        self.levels: list[Level] = [root]

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of levels, i.e. the size of the deepest embeddings."""
        return len(self.levels)

    @property
    def top(self) -> Level:
        return self.levels[-1]

    def size(self, level_idx: int | None = None) -> int:
        """Number of embeddings at ``level_idx`` (default: the top level)."""
        if level_idx is None:
            level_idx = self.depth - 1
        return self.levels[level_idx].num_embeddings

    def append_level(self, level: Level) -> None:
        off = level.off_array()
        if off is None:
            raise ValueError("non-root levels need an off array")
        expected = self.top.num_embeddings + 1
        if off.shape[0] != expected:
            raise ValueError(
                f"off length {off.shape[0]} != parent count + 1 ({expected})"
            )
        self.levels.append(level)

    def pop_level(self) -> Level:
        """Remove and return the top level (FSM pruning rebuilds levels)."""
        if self.depth == 1:
            raise ValueError("cannot pop the root level")
        return self.levels.pop()

    # ------------------------------------------------------------------
    # Random access (Section 3.1.1 walk-up example)
    # ------------------------------------------------------------------
    def embedding_at(self, level_idx: int, pos: int) -> tuple[int, ...]:
        """Decode the embedding at ``pos`` of ``level_idx``: one row of
        :meth:`decode_rows`, ``O(k log d̄)``.  A spilled level is read
        through its memory maps, never loaded whole."""
        return tuple(self.decode_rows([pos], level_idx)[0].tolist())

    def decode_rows(self, positions, level_idx: int | None = None) -> np.ndarray:
        """Decode the embeddings at arbitrary ``positions`` of a level —
        the random-access walk (:func:`decode_block_arrays`).

        Returns shape ``(len(positions), level_idx + 1)``: row ``i`` is
        the tuple of embedding ``positions[i]``, in the given order and
        with repeats kept — how a sampler gathers only its picks.
        """
        level_idx = self._level_index(level_idx)
        positions = np.asarray(positions, dtype=np.int64)
        total = self.size(level_idx)
        if positions.size and not 0 <= positions.min() <= positions.max() < total:
            raise IndexError(f"positions outside level of {total}")
        return decode_block_arrays(*self._sources(level_idx), positions)

    # ------------------------------------------------------------------
    # Sequential walk (exploration order)
    # ------------------------------------------------------------------
    def decode_block(self, start: int, end: int, level_idx: int | None = None) -> np.ndarray:
        """Decode embeddings ``start..end`` of a level as one 2-D array —
        the sequential walk (:func:`decode_span_arrays`).

        Returns shape ``(end - start, level_idx + 1)``: row ``i`` is the
        vertex (or edge-id) tuple of embedding ``start + i``, the same
        bytes as ``decode_rows(np.arange(start, end))``.  Each level is
        read as one contiguous slice and repeated by run length, so the
        cost is amortised O(1) per embedding — how the expansion kernel
        reads every part.  Resident levels slice
        their arrays; spilled levels their mmap-served ``vert_accessor``.
        """
        level_idx = self._level_index(level_idx)
        total = self.size(level_idx)
        if not 0 <= start <= end <= total:
            raise IndexError(f"block [{start}, {end}) outside level of {total}")
        return decode_span_arrays(*self._sources(level_idx), start, end)

    def iter_embeddings(self, level_idx: int | None = None) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(position, vertex_tuple)`` for every embedding of a
        level, in storage order: :meth:`decode_block` over chunks of
        :data:`WALK_ROWS` rows, so a spilled level streams through its
        memory maps with one chunk in memory at a time."""
        level_idx = self._level_index(level_idx)
        total = self.size(level_idx)

        def walk() -> Iterator[tuple[int, tuple[int, ...]]]:
            for start in range(0, total, WALK_ROWS):
                block = self.decode_block(start, min(start + WALK_ROWS, total), level_idx)
                for pos, row in enumerate(block.tolist(), start):
                    yield pos, tuple(row)

        return walk()

    def _sources(self, level_idx: int) -> tuple[list, list]:
        """Per-level vertex sources and off arrays up to ``level_idx``."""
        levels = self.levels[: level_idx + 1]
        return (
            [level_vert_source(level) for level in levels],
            [level.off_array() for level in levels],
        )

    def _level_index(self, level_idx: int | None) -> int:
        """``level_idx`` resolved (default: the top level) and checked."""
        if level_idx is None:
            return self.depth - 1
        if not 0 <= level_idx < self.depth:
            raise IndexError(f"level {level_idx} out of range 0..{self.depth - 1}")
        return level_idx

    # ------------------------------------------------------------------
    def filter_top_level(self, keep: np.ndarray) -> None:
        """Compact the top level to the embeddings where ``keep`` is True.

        Used by FSM's Reducer to drop embeddings whose pattern was pruned
        as infrequent.  The off array is recomputed so parent slices stay
        consistent; lower levels are untouched (they may now have childless
        entries, which is fine).
        """
        top = self.top
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != top.num_embeddings:
            raise ValueError(
                f"mask length {keep.shape[0]} != level size {top.num_embeddings}"
            )
        off = top.off_array()
        assert off is not None
        vert = top.vert_array()[keep]
        cum = np.zeros(keep.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep, out=cum[1:])
        new_off = cum[off]
        # A spilled level compacts back into memory; reclaim its parts.
        drop = getattr(top, "drop", None)
        if callable(drop):
            drop()
        self.levels[-1] = InMemoryLevel(vert, new_off, dtype=vert.dtype)

    @property
    def nbytes_in_memory(self) -> int:
        """Resident bytes over all levels (what the MemoryMeter tracks)."""
        return sum(level.nbytes_in_memory for level in self.levels)

    @property
    def nbytes_total(self) -> int:
        """Total bytes over all levels, wherever stored."""
        return sum(level.nbytes_total for level in self.levels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(level.num_embeddings) for level in self.levels)
        return f"CSE(depth={self.depth}, sizes=[{sizes}])"
