"""Deterministic storage fault injection.

Out-of-core mining is only as robust as its worst I/O day, so the fault
layer makes bad days reproducible: a :class:`FaultPlan` is a seeded
schedule of faults over the store's raw operations, and a
:class:`FaultyPartStore` is a :class:`~repro.storage.spill.PartStore`
whose byte-level hooks consult the plan before (or after) touching disk.
Because the hooks sit *underneath* the store's retry and integrity
machinery, the injected faults exercise exactly the production paths:

* ``transient``  — raise ``OSError(EIO)``; the retry policy should absorb
  it (each retry consumes one more planned fault, so ``repeat`` controls
  how many attempts fail before one succeeds).
* ``permanent``  — raise ``OSError(EACCES)``; never retried, surfaces as
  :class:`~repro.errors.StorageError`.
* ``full``       — raise ``OSError(ENOSPC)``; surfaces as
  :class:`~repro.errors.DiskFullError`, which aborts the level.
* ``torn``       — let the write land, then truncate the file (simulated
  media corruption; the CRC check turns it into
  :class:`~repro.errors.CorruptPartError` at load).
* ``corrupt``    — let the operation land, then flip a payload byte
  (same detection path as ``torn``).
* ``slow``       — call the plan's ``sleep`` with ``delay_seconds`` and
  then proceed normally (injectable, so tests never really wait).

Faults trigger either at an exact 1-based per-op call count (``at=``) or
with a seeded pseudo-random ``probability`` — either way the schedule is
a pure function of the plan's construction and the call sequence.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .retry import RetryPolicy
from .spill import PartStore

__all__ = ["FaultSpec", "FaultPlan", "FaultyPartStore"]

_KINDS = frozenset({"transient", "permanent", "full", "torn", "corrupt", "slow"})
_OPS = frozenset({"save", "load", "delete"})


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: which operation, what kind, and when.

    ``at`` fires on the Nth call of ``op`` (1-based) and then for the
    following ``repeat - 1`` calls; with ``at=None`` every call fires
    independently with ``probability`` under the plan's seeded RNG.
    """

    op: str
    kind: str
    at: int | None = None
    probability: float = 0.0
    repeat: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {sorted(_OPS)}, got {self.op!r}")
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {sorted(_KINDS)}, got {self.kind!r}"
            )
        if self.at is not None and self.at < 1:
            raise ValueError("at is 1-based; must be >= 1")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


class FaultPlan:
    """A deterministic, seeded fault schedule over store operations."""

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.specs = list(specs)
        self.sleep = sleep
        self._rng = random.Random(seed)
        self._counts = {op: 0 for op in _OPS}
        #: Every fault actually fired, as (op, kind, call_number).
        self.fired: list[tuple[str, str, int]] = []

    def draw(self, op: str) -> FaultSpec | None:
        """Advance the ``op`` counter and return the fault to inject, if any."""
        self._counts[op] += 1
        count = self._counts[op]
        for spec in self.specs:
            if spec.op != op:
                continue
            if spec.at is not None:
                hit = spec.at <= count < spec.at + spec.repeat
            else:
                hit = spec.probability > 0 and self._rng.random() < spec.probability
            if hit:
                self.fired.append((op, spec.kind, count))
                return spec
        return None

    def calls(self, op: str) -> int:
        """How many times ``op`` has been attempted so far."""
        return self._counts[op]


def _corrupt_file(path: str, torn: bool) -> None:
    """Damage a file in place: truncate it (torn) or flip one byte."""
    size = os.path.getsize(path)
    if torn:
        with open(path, "r+b") as handle:
            handle.truncate(max(0, size // 2))
        return
    with open(path, "r+b") as handle:
        handle.seek(max(0, size - 1))
        byte = handle.read(1)
        handle.seek(max(0, size - 1))
        handle.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")


class FaultyPartStore(PartStore):
    """A :class:`PartStore` that misbehaves according to a fault plan.

    Faults are injected in the raw ``_write_payload`` / ``_read_payload``
    / ``_remove_file`` hooks, underneath the retry loop and the checksum
    verification, so the store's recovery machinery is what gets tested.
    """

    def __init__(
        self,
        directory: str | None = None,
        plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(directory, retry=retry)
        self.plan = plan if plan is not None else FaultPlan()

    # ------------------------------------------------------------------
    def _raise_for(self, fault: FaultSpec, path: str) -> None:
        if fault.kind == "transient":
            raise OSError(errno.EIO, "injected transient I/O fault", path)
        if fault.kind == "permanent":
            raise OSError(errno.EACCES, "injected permanent I/O fault", path)
        if fault.kind == "full":
            raise OSError(errno.ENOSPC, "injected disk-full fault", path)
        raise AssertionError(f"not a raising fault: {fault.kind}")

    def _write_payload(self, path: str, payload: bytes) -> None:
        fault = self.plan.draw("save")
        if fault is None:
            super()._write_payload(path, payload)
            return
        if fault.kind in ("transient", "permanent", "full"):
            self._raise_for(fault, path)
        if fault.kind == "slow":
            self.plan.sleep(fault.delay_seconds)
            super()._write_payload(path, payload)
            return
        # torn / corrupt: the write "succeeds" but the bytes on disk rot.
        super()._write_payload(path, payload)
        _corrupt_file(path, torn=(fault.kind == "torn"))

    def _read_payload(self, path: str) -> bytes:
        fault = self.plan.draw("load")
        if fault is None:
            return super()._read_payload(path)
        if fault.kind in ("transient", "permanent", "full"):
            self._raise_for(fault, path)
        if fault.kind == "slow":
            self.plan.sleep(fault.delay_seconds)
            return super()._read_payload(path)
        # torn / corrupt on load: damage the on-disk file, then read it.
        _corrupt_file(path, torn=(fault.kind == "torn"))
        return super()._read_payload(path)

    def _mmap_payload(self, path: str):
        # Maps share the "load" schedule: one op class for all part reads.
        fault = self.plan.draw("load")
        if fault is None:
            return super()._mmap_payload(path)
        if fault.kind in ("transient", "permanent", "full"):
            self._raise_for(fault, path)
        if fault.kind == "slow":
            self.plan.sleep(fault.delay_seconds)
            return super()._mmap_payload(path)
        # torn / corrupt on map: damage the on-disk file, then map it.
        _corrupt_file(path, torn=(fault.kind == "torn"))
        return super()._mmap_payload(path)

    def _remove_file(self, path: str) -> None:
        fault = self.plan.draw("delete")
        if fault is None:
            super()._remove_file(path)
            return
        if fault.kind in ("transient", "permanent", "full"):
            self._raise_for(fault, path)
        if fault.kind == "slow":
            self.plan.sleep(fault.delay_seconds)
        super()._remove_file(path)
