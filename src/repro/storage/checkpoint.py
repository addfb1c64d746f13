"""Checkpoints: a JSON manifest, renamed in last, over the :class:`PartStore`
parts of a CSE.  Spilled parts and the levels the same run's previous
checkpoint holds are hard-linked in (``PartStore.link``), never rewritten."""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import shutil

import numpy as np

from ..core.cse import CSE, InMemoryLevel
from ..errors import StorageError
from .retry import RetryPolicy
from .spill import PartHandle, PartStore, SpilledLevel

__all__ = ["save_cse", "load_cse", "RunCheckpoint"]

logger = logging.getLogger("repro.storage")

_MANIFEST = "cse_manifest.json"
_FORMAT_VERSION = 3
_LEVEL_DIR_RE = re.compile(r"^level-(\d{3,})$")


def _record(handle: PartHandle) -> list:
    return [os.path.basename(handle.path), handle.length, handle.nbytes, handle.checksum]


def _handle(directory: str, record: list) -> PartHandle:
    name, length, nbytes, checksum = record
    return PartHandle(os.path.join(directory, name), int(length), int(nbytes), checksum)


def _sweep(directory: str, manifest: dict | None, suffixes=(".npy", ".tmp")) -> int:
    """Remove the files ending in one of ``suffixes`` that ``manifest`` lacks."""
    records = [] if manifest is None else [manifest["state"]] + [
        r for entry in manifest["levels"] for r in entry["parts"] + [entry["off"]]]
    keep = {record[0] for record in records if record is not None}
    doomed = [n for n in os.listdir(directory) if n.endswith(suffixes) and n not in keep]
    for name in doomed:
        with contextlib.suppress(OSError):
            os.remove(os.path.join(directory, name))
    return len(doomed)


def save_cse(cse: CSE, directory: str | os.PathLike[str], state: bytes | None = None,
             previous: str | None = None, retry: RetryPolicy | None = None) -> int:
    """Checkpoint ``cse`` into ``directory``, linking the levels ``previous``
    (an earlier checkpoint of this exploration) holds; returns bytes written."""
    store = PartStore(os.fspath(directory), retry=retry)
    held = [] if previous is None else read_manifest(previous)["levels"]
    levels = []
    for idx, level in enumerate(cse.levels):
        on_disk = isinstance(level, SpilledLevel)
        if idx < len(held) and held[idx]["count"] == level.num_embeddings:
            parts = [store.link(_handle(previous, r)) for r in held[idx]["parts"]]
            off = held[idx]["off"] and store.link(_handle(previous, held[idx]["off"]))
        else:
            parts = [store.link(part) for part in level.parts] if on_disk else [
                store.save(level.vert_array(), tag=f"level{idx}")]
            off_array = level.off_array()
            off = None if off_array is None else store.save(off_array, tag=f"off{idx}")
        levels.append({"count": level.num_embeddings, "dtype": np.dtype(level.dtype).name,
                       "spilled": on_disk,
                       "parts": [_record(part) for part in parts], "off": off and _record(off)})
    blob = None if state is None else store.save(np.frombuffer(state, np.uint8), tag="state")
    manifest = {"version": _FORMAT_VERSION, "levels": levels, "state": blob and _record(blob)}
    payload = json.dumps(manifest).encode("utf-8")
    store._write_payload(os.path.join(store.directory, _MANIFEST), payload)
    _sweep(store.directory, manifest)
    return store.io.bytes_written + len(payload)


def read_manifest(directory: str | os.PathLike[str]) -> dict:
    """Read and version-check a checkpoint manifest."""
    path = os.path.join(os.fspath(directory), _MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read CSE manifest at {path}: {exc}") from exc
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != _FORMAT_VERSION:
        raise StorageError(f"unsupported CSE checkpoint version {version!r}")
    return manifest


def _validate_level(idx: int, length: int, off: np.ndarray | None, count: int) -> None:
    """Cross-check a level's off array and manifest count against its parts."""
    where = f"checkpoint level {idx}"
    if off is not None:
        if off.ndim != 1 or off.shape[0] < 1:
            raise StorageError(f"{where} has a malformed off array")
        if int(off[0]) != 0:
            raise StorageError(f"{where} off array starts at {int(off[0])}, not 0")
        if np.any(np.diff(off) < 0):
            raise StorageError(f"{where} off array is not non-decreasing")
        if int(off[-1]) != length:
            raise StorageError(f"{where} off spans {int(off[-1])} entries but vert holds {length}")
    if int(count) != length:
        raise StorageError(f"{where} manifest says {count} entries but vert holds {length}")


def load_cse(directory: str | os.PathLike[str], store: PartStore | None = None) -> CSE:
    """Reload a checkpointed CSE, fully validated: into memory, or with
    ``store``, each level that was on disk linked into it and verified."""
    directory = os.fspath(directory)
    manifest = read_manifest(directory)
    source = PartStore(directory)
    linked: list[PartHandle] = []
    try:
        if not manifest["levels"]:
            raise StorageError("checkpoint contains no levels")
        for idx, entry in enumerate(manifest["levels"]):
            parts = [_handle(directory, record) for record in entry["parts"]]
            off = entry["off"] and source.load(_handle(directory, entry["off"]))
            _validate_level(idx, sum(part.length for part in parts), off, entry["count"])
            level = SpilledLevel(source, parts, off, dtype=np.dtype(entry["dtype"]))
            if store is not None and entry["spilled"]:
                start = len(linked)
                for part in parts:
                    linked.append(store.link(part))
                level = SpilledLevel(store, linked[start:], off, dtype=level.dtype)
                level.verify()
            else:
                vert = level.vert_array()
                # dtype=vert.dtype: keep the saved id width — the default
                # would narrow an int64 checkpoint back to int32 on resume.
                level = InMemoryLevel(vert, off, dtype=vert.dtype)
            if idx == 0:
                cse = CSE(level.vert_array())
            else:
                cse.append_level(level)  # ValueError: inconsistent with its parent
        return cse
    except BaseException as exc:
        for handle in linked:
            store.delete(handle)
        if isinstance(exc, (KeyError, TypeError, ValueError)):
            raise StorageError(f"corrupt checkpoint in {directory}: {exc!r}") from exc
        raise


class RunCheckpoint:
    """One run's checkpoints, ``<dir>/level-NNN/`` per completed iteration;
    ``previous`` is the one this run last wrote or resumed from."""

    def __init__(self, directory: str | os.PathLike[str], retry: RetryPolicy | None = None):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.retry = retry
        self.previous: str | None = None
        self.bytes_written = 0

    def _level_dirs(self) -> list[tuple[int, str]]:
        """(iteration, path) pairs of level directories, deepest first."""
        matches = filter(None, map(_LEVEL_DIR_RE.match, os.listdir(self.directory)))
        found = [(int(m.group(1)), os.path.join(self.directory, m.group(0))) for m in matches]
        return sorted(((i, path) for i, path in found if os.path.isdir(path)), reverse=True)

    def level_path(self, iteration: int) -> str:
        return os.path.join(self.directory, f"level-{iteration:03d}")

    def save(self, iteration: int, cse: CSE, state: bytes) -> str:
        """Checkpoint one iteration, then drop deeper (an earlier run's) ones.

        A failed save removes what it wrote before re-raising: the whole
        directory if it held no checkpoint before, else every file the
        checkpoint already there does not reference."""
        path = self.level_path(iteration)
        existed = os.path.exists(os.path.join(path, _MANIFEST))
        try:
            self.bytes_written += save_cse(cse, path, state, self.previous, self.retry)
        except BaseException:
            if not existed:
                shutil.rmtree(path, ignore_errors=True)
            else:
                with contextlib.suppress(StorageError, OSError):
                    _sweep(path, read_manifest(path))
            raise
        self.previous = path
        for deeper, stale in self._level_dirs():
            if deeper > iteration:
                shutil.rmtree(stale, ignore_errors=True)
        return path

    def latest(self, store: PartStore | None = None) -> tuple[int, CSE, bytes] | None:
        """Deepest valid checkpoint as ``(iteration, cse, state)``, or None."""
        for iteration, path in self._level_dirs():
            try:
                record = read_manifest(path)["state"]  # None fails in _handle
                state = PartStore(path).load(_handle(path, record)).tobytes()
                return iteration, load_cse(path, store), state
            except (StorageError, KeyError, TypeError, ValueError) as exc:
                logger.warning("skipping invalid checkpoint %s during resume: %s", path, exc)
        return None

    def collect_garbage(self) -> int:
        """Remove temp files, unreferenced parts and invalid level dirs."""
        removed = _sweep(self.directory, None, suffixes=(".tmp",))
        for _, path in self._level_dirs():
            try:
                removed += _sweep(path, read_manifest(path))
            except (StorageError, KeyError, TypeError, IndexError):
                shutil.rmtree(path, ignore_errors=True)
                removed += 1
        if removed:
            logger.warning("removed %d crash leftovers under %s", removed, self.directory)
        return removed
