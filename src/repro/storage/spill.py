"""Disk-backed CSE parts and spilled levels (Section 4.1, Figure 7).

A spilled level's vertex array lives on disk as a sequence of per-part
``.npy`` files, produced by the per-thread partitioning of the exploration;
the offset array stays in memory when it fits, mirroring the paper's
"merge t parts of off in memory" rule.

Every part write is *atomic* (temp file → fsync → rename, so a part is
either whole or absent — a crash never leaves a torn file under a final
name) and *checksummed* (a CRC32 carried on the :class:`PartHandle` and
verified on load, so silent corruption raises
:class:`~repro.errors.CorruptPartError` instead of producing a wrong
answer).  Transient I/O failures are retried with capped exponential
backoff per the store's :class:`~repro.storage.retry.RetryPolicy`; the
raw byte-level operations are isolated in ``_write_payload`` /
``_read_payload`` / ``_remove_file`` hooks so the fault-injection layer
(:mod:`repro.storage.faults`) can subclass the store and misbehave
underneath the retry and integrity machinery.
"""

from __future__ import annotations

import io
import logging
import os
import shutil
import tempfile
import time
import uuid
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.kernels import DEFAULT_ID_DTYPE
from ..errors import CorruptPartError, DiskFullError, StorageError, TransientStorageError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .meter import IOStats
from .retry import RetryPolicy, is_disk_full_oserror, is_transient_oserror

__all__ = ["PartHandle", "PartStore", "PartedVector", "SpilledLevel"]

logger = logging.getLogger("repro.storage")

#: Suffix of in-flight temp files; anything left over is a crash orphan.
_TMP_SUFFIX = ".tmp"


@dataclass(frozen=True)
class PartHandle:
    """One on-disk array part.

    ``checksum`` is the CRC32 of the serialized payload; ``None`` only
    for handles created before checksumming existed (never verified).
    """

    path: str
    length: int
    nbytes: int
    checksum: int | None = None


def _fsync_dir(directory: str) -> None:
    """Flush a directory entry so a rename survives a crash (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


class PartStore:
    """Owns a spill directory and tracks every byte moved through it."""

    def __init__(
        self,
        directory: str | None = None,
        retry: RetryPolicy | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        #: Observability hooks, shared with the spilling sinks layered
        #: over this store.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if directory is None:
            self._tmp = tempfile.mkdtemp(prefix="kaleido-spill-")
            self.directory = self._tmp
        else:
            existed = os.path.isdir(directory)
            os.makedirs(directory, exist_ok=True)
            self._tmp = None
            self.directory = directory
            if existed:
                self._collect_orphans()
        self.retry = retry if retry is not None else RetryPolicy()
        self.io = IOStats()
        self._counter = 0

    # ------------------------------------------------------------------
    # Raw byte-level operations — the fault-injection seam.
    # ------------------------------------------------------------------
    def _write_payload(self, path: str, payload: bytes) -> None:
        """Atomically materialise ``payload`` at ``path`` (tmp → fsync →
        rename); on any failure the temp file is removed and ``path`` is
        untouched."""
        tmp_path = f"{path}{_TMP_SUFFIX}"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
        _fsync_dir(os.path.dirname(path) or ".")

    def _read_payload(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def _mmap_payload(self, path: str) -> np.ndarray:
        """Map a part file read-only without deserializing it.

        A fault seam like ``_read_payload``: the fault-injection store
        overrides this to damage the file or misbehave before mapping.
        """
        return np.load(path, mmap_mode="r", allow_pickle=False)

    def _remove_file(self, path: str) -> None:
        os.remove(path)

    # ------------------------------------------------------------------
    def _collect_orphans(self) -> None:
        """Remove temp files a crashed run left in a reused directory."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:  # pragma: no cover - directory vanished
            return
        for name in names:
            if name.endswith(_TMP_SUFFIX):
                try:
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        if removed:
            logger.warning(
                "removed %d orphaned temp file(s) from %s", removed, self.directory
            )

    @staticmethod
    def _classify(exc: OSError, path: str, verb: str) -> StorageError:
        """Map a non-retryable OSError onto the storage taxonomy."""
        if is_disk_full_oserror(exc):
            return DiskFullError(f"no space left while {verb} {path}: {exc}")
        return StorageError(f"failed {verb} {path}: {exc}")

    def _with_retries(self, operation, path: str, verb: str):
        """Run ``operation`` under the retry policy; raises the taxonomy."""
        last: OSError | None = None
        for attempt in range(self.retry.attempts):
            try:
                return operation()
            except OSError as exc:
                if not is_transient_oserror(exc):
                    raise self._classify(exc, path, verb) from exc
                last = exc
                if attempt + 1 < self.retry.attempts:
                    self.io.record_retry()
                    if self.tracer.enabled:
                        self.tracer.instant("retry", op=verb, attempt=attempt)
                    self.retry.backoff(attempt)
        raise TransientStorageError(
            f"still failing {verb} {path} after {self.retry.attempts} "
            f"attempts: {last}"
        ) from last

    # ------------------------------------------------------------------
    def save(self, array: np.ndarray, tag: str = "part") -> PartHandle:
        """Write an array as one part file; returns its handle."""
        self._counter += 1
        path = os.path.join(
            self.directory, f"{tag}-{self._counter:06d}-{uuid.uuid4().hex[:8]}.npy"
        )
        buffer = io.BytesIO()
        np.save(buffer, array, allow_pickle=False)
        payload = buffer.getvalue()
        checksum = zlib.crc32(payload)
        started = time.perf_counter()
        self._with_retries(
            lambda: self._write_payload(path, payload), path, "writing spill part"
        )
        self.io.record("write", len(payload), time.perf_counter() - started)
        return PartHandle(
            path=path,
            length=int(array.shape[0]),
            nbytes=len(payload),
            checksum=checksum,
        )

    def load(self, handle: PartHandle) -> np.ndarray:
        """Read one part back, verifying its checksum and length."""
        started = time.perf_counter()
        payload = self._with_retries(
            lambda: self._read_payload(handle.path), handle.path, "reading spill part"
        )
        if handle.checksum is not None and zlib.crc32(payload) != handle.checksum:
            raise CorruptPartError(
                f"checksum mismatch for spill part {handle.path} "
                f"({len(payload)} bytes read, {handle.nbytes} written)"
            )
        try:
            array = np.load(io.BytesIO(payload), allow_pickle=False)
        except (ValueError, EOFError, OSError) as exc:
            raise CorruptPartError(
                f"undecodable spill part {handle.path}: {exc}"
            ) from exc
        if int(array.shape[0]) != handle.length:
            raise CorruptPartError(
                f"spill part {handle.path} holds {array.shape[0]} entries, "
                f"expected {handle.length}"
            )
        self.io.record("read", len(payload), time.perf_counter() - started)
        return array

    def open_mmap(self, handle: PartHandle) -> np.ndarray:
        """Map one part read-only so the page cache is the only copy.

        The zero-copy read path: no payload deserialize, no CRC pass —
        integrity is covered by the write-time checksum carried on the
        handle plus the explicit :meth:`verify` sweep.  A torn or
        truncated file still fails fast here (the npy header or the
        mapped length no longer parses) as :class:`CorruptPartError`;
        silent bit flips are only caught by :meth:`verify`.
        """
        started = time.perf_counter()
        try:
            array = self._with_retries(
                lambda: self._mmap_payload(handle.path),
                handle.path,
                "mapping spill part",
            )
        except (ValueError, EOFError) as exc:
            raise CorruptPartError(
                f"unmappable spill part {handle.path}: {exc}"
            ) from exc
        if int(array.shape[0]) != handle.length:
            raise CorruptPartError(
                f"spill part {handle.path} maps {array.shape[0]} entries, "
                f"expected {handle.length}"
            )
        # The map itself moves no bytes; account the part as one read so
        # io_bytes_read still reflects the data served (page-cache hits
        # make the effective rate look fast, which is the truth).
        self.io.record("read", handle.nbytes, time.perf_counter() - started)
        return array

    def verify(self, handle: PartHandle) -> None:
        """Re-read one part and check its CRC; raises on any damage.

        The explicit integrity pass that complements :meth:`open_mmap`:
        checkpoint restore and recovery sweeps call this before trusting
        mmap-served parts.
        """
        payload = self._with_retries(
            lambda: self._read_payload(handle.path),
            handle.path,
            "verifying spill part",
        )
        if handle.checksum is not None and zlib.crc32(payload) != handle.checksum:
            raise CorruptPartError(
                f"checksum mismatch for spill part {handle.path} "
                f"({len(payload)} bytes read, {handle.nbytes} written)"
            )
        if len(payload) != handle.nbytes:
            raise CorruptPartError(
                f"spill part {handle.path} is {len(payload)} bytes, "
                f"expected {handle.nbytes}"
            )

    def delete(self, handle: PartHandle) -> None:
        """Remove one part file (best effort, but counted and logged)."""
        try:
            self._remove_file(handle.path)
        except FileNotFoundError:
            self.io.record_delete(ok=True)
        except OSError as exc:
            self.io.record_delete(ok=False)
            logger.warning("failed to delete spill part %s: %s", handle.path, exc)
        else:
            self.io.record_delete(ok=True)

    def close(self) -> None:
        """Remove the spill directory if this store created it."""
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def __enter__(self) -> "PartStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PartedVector:
    """A read-only virtual concatenation of per-part 1-D arrays.

    The decoders read it two ways, so a spilled level never needs a
    physical concatenation: a contiguous slice ``vec[lo:hi]`` (the
    sequential walk) is served as part slices, concatenated only where
    the range crosses a part boundary; a fancy gather with a position
    array (random access) is routed by ``searchsorted`` over the part
    starts, one sliced gather per contiguous run.  The parts themselves
    are ``np.memmap`` views straight over the spill files — reads hit
    the page cache, not a deserializer.
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

    def __getitem__(self, positions: np.ndarray | slice) -> np.ndarray:
        if isinstance(positions, slice):
            return self._span(positions)
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

    def _span(self, span: slice) -> np.ndarray:
        """``vec[lo:hi]``: a view of one part when the range lies inside
        it, one concatenate of part slices when it crosses parts."""
        lo, hi, step = span.indices(self._length)
        if step != 1:
            raise ValueError("PartedVector slices must be contiguous")
        if hi <= lo:
            return np.empty(0, dtype=self.dtype)
        first = int(np.searchsorted(self._starts, lo, side="right")) - 1
        last = int(np.searchsorted(self._starts, hi - 1, side="right")) - 1
        pieces = []
        for part in range(first, last + 1):
            base = int(self._starts[part])
            stop = min(hi, int(self._starts[part + 1]))
            pieces.append(self._arrays[part][max(lo, base) - base : stop - base])
        if len(pieces) == 1:
            return np.asarray(pieces[0], dtype=self.dtype)
        return np.concatenate(pieces).astype(self.dtype, copy=False)


class SpilledLevel:
    """A CSE level whose vertex array lives on disk in parts.

    Satisfies the :class:`repro.core.cse.Level` protocol.  The part
    files are served as read-only memory maps — the one read path:
    random block decode gathers through a :class:`PartedVector` over the
    maps, and streaming iteration maps one part at a time.  Figure 7's
    main part / candidate part window is left to the OS page cache and
    its readahead rather than to prefetch threads.
    """

    def __init__(
        self,
        store: PartStore,
        parts: list[PartHandle],
        off: np.ndarray | None,
        dtype: np.dtype | None = None,
    ) -> None:
        self.store = store
        self.parts = parts
        self.off = None if off is None else np.ascontiguousarray(off, dtype=np.int64)
        self._dtype = None if dtype is None else np.dtype(dtype)
        self._accessor = None
        self._length = sum(p.length for p in parts)
        if self.off is not None and self.off[-1] != self._length:
            raise StorageError(
                f"off spans {self.off[-1]} but parts hold {self._length} entries"
            )

    @property
    def num_embeddings(self) -> int:
        return self._length

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def off_array(self) -> np.ndarray | None:
        return self.off

    @property
    def dtype(self) -> np.dtype:
        """Id storage width of this level (recorded at spill time)."""
        return self._dtype if self._dtype is not None else DEFAULT_ID_DTYPE

    def vert_accessor(self):
        """Gatherable view of the whole level without materialising it.

        A :class:`PartedVector` over read-only memory maps of the part
        files, cached until :meth:`drop`.
        """
        if self._accessor is None:
            self._accessor = PartedVector(
                [self.store.open_mmap(p) for p in self.parts], dtype=self.dtype
            )
        return self._accessor

    def vert_array(self) -> np.ndarray:
        chunks = [self.store.load(p) for p in self.parts]
        if not chunks:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate(chunks)

    def verify(self) -> None:
        """CRC-check every part (raises :class:`CorruptPartError`).

        The explicit integrity pass for mmap-served levels: the zero-copy
        read path skips per-read CRC, so recovery and checkpoint restore
        sweep the parts through here before trusting them.
        """
        for part in self.parts:
            self.store.verify(part)

    def iter_vert_chunks(self) -> Iterator[np.ndarray]:
        for part in self.parts:
            yield self.store.open_mmap(part)

    @property
    def nbytes_in_memory(self) -> int:
        # Only the off array: parts are mapped, never copied in.
        return 0 if self.off is None else self.off.nbytes

    @property
    def nbytes_total(self) -> int:
        return self.nbytes_in_memory + sum(p.nbytes for p in self.parts)

    @property
    def nbytes_on_disk(self) -> int:
        return sum(p.nbytes for p in self.parts)

    def drop(self) -> None:
        """Delete the level's part files."""
        self._accessor = None
        for part in self.parts:
            self.store.delete(part)
        self.parts = []
        self._length = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpilledLevel(n={self.num_embeddings}, parts={len(self.parts)}, "
            f"disk={self.nbytes_on_disk / 1e6:.2f}MB)"
        )
