"""Zero-copy IPC: shared-memory kernel contexts and CSE level views.

The spawn-based :class:`~repro.core.executor.ProcessExecutor` used to ship
the kernel context (the graph's CSR arrays) to every worker as one big
pickle through the pool initializer, and every block task's pickle carried
its decoded ``(rows, k)`` embedding block — for an out-of-core engine,
most of the process path's wall clock was serialization.  This module
removes both copies:

* :class:`SharedKernelContext` packs every ndarray field of a
  :class:`~repro.core.kernels.VertexKernelContext` /
  :class:`~repro.core.kernels.EdgeKernelContext` into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment.  The pool
  initializer receives only the tiny picklable
  :class:`SharedContextHandle`; workers attach by segment *name*
  (:func:`attach_context`) and rebuild the context as read-only ndarray
  views over the mapping — no array bytes ever cross the pipe.
* :func:`export_levels` does the same for the CSE's level arrays, so a
  block task's pickle shrinks to its ``(start, end)`` bounds: the worker
  decodes its own block from the shared ``vert``/``off`` views
  (:func:`repro.core.cse.decode_block_arrays`).  A *spilled* level is not
  copied into the segment at all — its handle names the on-disk ``.npy``
  part files, which workers map with ``np.load(mmap_mode="r")``, so a
  spilled part IS the IPC buffer.
* :func:`context_fingerprint` gives executors a content-based identity
  for contexts (BLAKE2b over the array bytes, memoized per array object),
  so a warm pool survives context rebuilds whose arrays are equal but not
  identical.

Lifecycle: the *creator* (the executor / the expansion driver) owns the
segment and must :meth:`~SharedKernelContext.close` it — close is
idempotent and unlinks exactly once, with a ``weakref.finalize`` safety
net for crash paths.  Workers only ever attach and never unlink.  The
attach-side ``resource_tracker`` registration that happens inside
``SharedMemory`` is harmless here: spawn children inherit the *parent's*
tracker process, so the creator and every worker share one tracker cache
and the creator's single unlink clears the entry for all of them.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import blake2b
from multiprocessing import shared_memory

import numpy as np

from .kernels import DEFAULT_ID_DTYPE, EdgeKernelContext, VertexKernelContext

__all__ = [
    "context_fingerprint",
    "SharedArraySpec",
    "SharedContextHandle",
    "SharedKernelContext",
    "attach_context",
    "PartedVector",
    "SharedVectorSpec",
    "MmapVectorSpec",
    "SharedLevelSpec",
    "SharedLevelsHandle",
    "LevelShare",
    "export_levels",
    "attach_levels",
]

#: ndarray views into a shared segment start on cache-line boundaries.
_ALIGN = 64

#: Digest memo: ``id(array) -> (array, hexdigest)``.  The strong reference
#: pins the array so a recycled ``id`` can never alias a dead one; pruned
#: once it grows past :data:`_DIGEST_CACHE_MAX` entries.
_DIGEST_CACHE: dict[int, tuple[np.ndarray, str]] = {}
_DIGEST_CACHE_MAX = 128


def _array_digest(array: np.ndarray) -> str:
    """Content hash of one array (BLAKE2b-128), memoized per array object.

    Kernel contexts are rebuilt per level but wrap arrays cached on the
    graph / edge index, so the common case is a dict hit; the hash is
    paid once per distinct array, not once per level.
    """
    key = id(array)
    hit = _DIGEST_CACHE.get(key)
    if hit is not None and hit[0] is array:
        return hit[1]
    contiguous = np.ascontiguousarray(array)
    digest = blake2b(contiguous.view(np.uint8).data, digest_size=16)
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    value = digest.hexdigest()
    if len(_DIGEST_CACHE) >= _DIGEST_CACHE_MAX:
        _DIGEST_CACHE.clear()
    _DIGEST_CACHE[key] = (array, value)
    return value


def context_fingerprint(ctx) -> str:
    """Content-based identity of a kernel context.

    Two contexts with equal array contents and equal scalars fingerprint
    identically even when the array objects differ — the key the
    :class:`~repro.core.executor.ProcessExecutor` reuses its warm pool on.
    """
    parts = [type(ctx).__name__]
    for field in dataclasses.fields(ctx):
        value = getattr(ctx, field.name)
        if isinstance(value, np.ndarray):
            parts.append(f"{field.name}={_array_digest(value)}")
        else:
            parts.append(f"{field.name}={value!r}")
    return "|".join(parts)


def _release_segment(segment: shared_memory.SharedMemory, unlink: bool) -> None:
    """Close (and optionally unlink) a segment, tolerating live views."""
    try:
        segment.close()
    except BufferError:  # views still alive; the mapping dies with them
        pass
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Kernel contexts in shared memory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArraySpec:
    """Where one context array lives inside the shared segment."""

    field: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedContextHandle:
    """The picklable name card of an exported kernel context.

    This — not the arrays — is what crosses the process boundary: the
    segment name, the layout of every array inside it, and the context's
    scalar fields.  ``fingerprint`` carries the creator's content hash so
    worker-side caches can key on it too.
    """

    segment: str
    kind: str
    arrays: tuple[SharedArraySpec, ...]
    scalars: tuple[tuple[str, object], ...]
    fingerprint: str


_CONTEXT_CLASSES = {"vertex": VertexKernelContext, "edge": EdgeKernelContext}


class SharedKernelContext:
    """Creator-side wrapper: one kernel context packed into one segment.

    The coordinator keeps using its original (process-local) context; the
    segment exists purely for workers to attach to.  ``close`` detaches
    and unlinks exactly once, no matter how many times it is called or
    which error path calls it.
    """

    def __init__(self, ctx, fingerprint: str | None = None) -> None:
        specs: list[SharedArraySpec] = []
        scalars: list[tuple[str, object]] = []
        arrays: list[np.ndarray] = []
        total = 0
        for field in dataclasses.fields(ctx):
            value = getattr(ctx, field.name)
            if isinstance(value, np.ndarray):
                contiguous = np.ascontiguousarray(value)
                offset = -total % _ALIGN + total
                specs.append(
                    SharedArraySpec(
                        field=field.name,
                        dtype=str(contiguous.dtype),
                        shape=tuple(contiguous.shape),
                        offset=offset,
                    )
                )
                arrays.append(contiguous)
                total = offset + contiguous.nbytes
            else:
                scalars.append((field.name, value))
        self._segment = shared_memory.SharedMemory(create=True, size=max(1, total))
        try:
            for spec, array in zip(specs, arrays):
                view = np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=self._segment.buf,
                    offset=spec.offset,
                )
                view[...] = array
                del view
        except BaseException:
            # A failed fill means no handle ever escapes: unlink here or
            # the segment outlives the process.
            _release_segment(self._segment, unlink=True)
            raise
        self.handle = SharedContextHandle(
            segment=self._segment.name,
            kind=ctx.kind,
            arrays=tuple(specs),
            scalars=tuple(scalars),
            fingerprint=(
                fingerprint if fingerprint is not None else context_fingerprint(ctx)
            ),
        )
        self.nbytes = total
        self._closed = False
        #: Crash-path safety net: if the executor is dropped without
        #: close(), the finalizer still unlinks the segment.
        self._finalizer = weakref.finalize(
            self, _release_segment, self._segment, True
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Detach and unlink the segment (idempotent; unlinks once)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release_segment(self._segment, unlink=True)


def attach_context(handle: SharedContextHandle):
    """Worker-side: rebuild a kernel context over the named segment.

    Returns ``(ctx, segment)``; the caller must keep ``segment`` alive as
    long as the context's views are in use (the pool initializer stashes
    it in a module global for the worker's lifetime).  The creator owns
    the unlink; the worker only attaches.
    """
    segment = shared_memory.SharedMemory(name=handle.segment)
    kwargs: dict[str, object] = dict(handle.scalars)
    for spec in handle.arrays:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        view.flags.writeable = False
        kwargs[spec.field] = view
    ctx = _CONTEXT_CLASSES[handle.kind](**kwargs)
    return ctx, segment


# ----------------------------------------------------------------------
# Parted vectors: one virtual array over per-part physical arrays
# ----------------------------------------------------------------------
class PartedVector:
    """A read-only virtual concatenation of per-part 1-D arrays.

    The block decoder's only access pattern is a fancy gather with a
    position array, so a spilled level never needs a physical
    concatenation: ``searchsorted`` over the part starts routes each
    position to its part (one sliced gather per contiguous run), and the
    parts themselves are ``np.memmap`` views straight over the spill
    files — reads hit the page cache, not a deserializer.
    """

    def __init__(self, arrays, dtype: np.dtype | None = None) -> None:
        self._arrays = list(arrays)
        lengths = np.array(
            [int(a.shape[0]) for a in self._arrays], dtype=np.int64
        )
        self._starts = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._starts[1:])
        self._length = int(self._starts[-1])
        if dtype is not None:
            self.dtype = np.dtype(dtype)
        elif self._arrays:
            self.dtype = np.dtype(self._arrays[0].dtype)
        else:
            self.dtype = DEFAULT_ID_DTYPE

    def __len__(self) -> int:
        return self._length

    @property
    def shape(self) -> tuple[int]:
        return (self._length,)

    def __getitem__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        out = np.empty(positions.shape[0], dtype=self.dtype)
        if positions.shape[0] == 0:
            return out
        part_ids = np.searchsorted(self._starts, positions, side="right") - 1
        # Split into contiguous runs of one part each; decode positions
        # are non-decreasing, so runs ~ parts touched, but arbitrary
        # orders stay correct (just more runs).
        boundaries = np.flatnonzero(np.diff(part_ids)) + 1
        run_starts = np.concatenate(
            ([0], boundaries, [positions.shape[0]])
        )
        for i in range(run_starts.shape[0] - 1):
            lo, hi = int(run_starts[i]), int(run_starts[i + 1])
            if lo == hi:
                continue
            part = int(part_ids[lo])
            local = positions[lo:hi] - self._starts[part]
            out[lo:hi] = self._arrays[part][local]
        return out


# ----------------------------------------------------------------------
# CSE levels in shared memory (and mmap-backed spilled levels)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedVectorSpec:
    """A level vector resident inside the shared segment."""

    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class MmapVectorSpec:
    """A level vector served straight off the spill part files."""

    paths: tuple[str, ...]
    lengths: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedLevelSpec:
    """One CSE level: its vert vector and (below the root) its offsets."""

    vert: "SharedVectorSpec | MmapVectorSpec"
    off: SharedVectorSpec | None


@dataclass(frozen=True)
class SharedLevelsHandle:
    """Picklable description of a CSE's levels for worker-side decoding."""

    segment: str
    levels: tuple[SharedLevelSpec, ...]


class LevelShare:
    """Creator-side export of a CSE's levels for one expansion.

    Lives for exactly one level expansion: the driver exports before
    creating block tasks and closes in a ``finally`` once the executor
    run ends, so crash paths release the segment too.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, handle: SharedLevelsHandle
    ) -> None:
        self._segment = segment
        self.handle = handle
        self._closed = False
        self._finalizer = weakref.finalize(self, _release_segment, segment, True)

    def close(self) -> None:
        """Detach and unlink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release_segment(self._segment, unlink=True)


def _spill_parts(level) -> "tuple[tuple[str, ...], tuple[int, ...]] | None":
    """The on-disk part layout of a spilled level, if it has one."""
    parts = getattr(level, "parts", None)
    if parts is None:
        return None
    try:
        return (
            tuple(p.path for p in parts),
            tuple(int(p.length) for p in parts),
        )
    except AttributeError:
        return None


def export_levels(cse) -> LevelShare | None:
    """Pack a CSE's level arrays for by-name worker attachment.

    In-memory levels are copied into one shared segment; spilled levels
    contribute only their part-file paths (workers mmap those directly).
    Returns ``None`` when a level is neither — the caller falls back to
    shipping decoded blocks — or when the platform refuses the segment.
    """
    from .cse import InMemoryLevel  # local import: cse imports nothing from here

    total = 0
    to_fill: list[tuple[SharedVectorSpec, np.ndarray]] = []

    def reserve(array: np.ndarray) -> SharedVectorSpec:
        nonlocal total
        contiguous = np.ascontiguousarray(array)
        offset = -total % _ALIGN + total
        total = offset + contiguous.nbytes
        spec = SharedVectorSpec(
            dtype=str(contiguous.dtype),
            shape=tuple(contiguous.shape),
            offset=offset,
        )
        to_fill.append((spec, contiguous))
        return spec

    specs: list[SharedLevelSpec] = []
    for level in cse.levels:
        if isinstance(level, InMemoryLevel):
            vert_spec: SharedVectorSpec | MmapVectorSpec = reserve(level.vert_array())
        else:
            parts = _spill_parts(level)
            if parts is None:
                return None
            vert_spec = MmapVectorSpec(
                paths=parts[0], lengths=parts[1], dtype=str(level.dtype)
            )
        off = level.off_array()
        specs.append(
            SharedLevelSpec(vert=vert_spec, off=None if off is None else reserve(off))
        )

    try:
        segment = shared_memory.SharedMemory(create=True, size=max(1, total))
    except OSError:
        return None
    try:
        for spec, contiguous in to_fill:
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=segment.buf,
                offset=spec.offset,
            )
            view[...] = contiguous
            del view
    except BaseException:
        # Nobody holds the segment yet; a failed fill must not leak it.
        _release_segment(segment, unlink=True)
        raise

    handle = SharedLevelsHandle(segment=segment.name, levels=tuple(specs))
    return LevelShare(segment, handle)


#: Worker-side attach cache: segment name -> (segment, verts, offs).  Two
#: entries cover the steady state (current level + the previous one still
#: referenced by an in-flight task); older segments are detached.
_LEVELS_CACHE: "OrderedDict[str, tuple[shared_memory.SharedMemory | None, list, list]]" = (
    OrderedDict()
)
_LEVELS_CACHE_MAX = 2


def attach_levels(handle: SharedLevelsHandle):
    """Worker-side: the ``(verts, offs)`` accessor lists for a handle.

    ``verts[l]`` is an ndarray view (shared segment) or a
    :class:`PartedVector` of memmaps (spilled level); ``offs[l]`` is an
    ndarray view or ``None`` at the root.  Attachments are cached per
    segment name so the many tasks of one level attach once.
    """
    cached = _LEVELS_CACHE.get(handle.segment)
    if cached is not None:
        _LEVELS_CACHE.move_to_end(handle.segment)
        return cached[1], cached[2]

    needs_segment = any(
        isinstance(spec.vert, SharedVectorSpec) or spec.off is not None
        for spec in handle.levels
    )
    segment = (
        shared_memory.SharedMemory(name=handle.segment) if needs_segment else None
    )

    def view(spec: SharedVectorSpec) -> np.ndarray:
        assert segment is not None
        array = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        array.flags.writeable = False
        return array

    verts: list = []
    offs: list = []
    for spec in handle.levels:
        if isinstance(spec.vert, MmapVectorSpec):
            parts = [
                np.load(path, mmap_mode="r", allow_pickle=False)
                for path in spec.vert.paths
            ]
            verts.append(PartedVector(parts, dtype=np.dtype(spec.vert.dtype)))
        else:
            verts.append(view(spec.vert))
        offs.append(None if spec.off is None else view(spec.off))

    while len(_LEVELS_CACHE) >= _LEVELS_CACHE_MAX:
        _, (old_segment, _, _) = _LEVELS_CACHE.popitem(last=False)
        if old_segment is not None:
            _release_segment(old_segment, unlink=False)
    _LEVELS_CACHE[handle.segment] = (segment, verts, offs)
    return verts, offs
