"""Memory accounting and budgets.

Python's RSS is dominated by the interpreter, so the reproduction accounts
memory at the data-structure level instead (see DESIGN.md substitutions):
every engine run builds its own :class:`MemoryMeter`, registers the live
size of each structure it owns under a name, and the meter tracks the
current and peak sum over that run.  The
:class:`MemoryBudget` reproduces the paper's cgroup experiments (Figures
15/16): when a projected allocation exceeds the limit, the engine must
spill to disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["MemoryMeter", "MemoryBudget", "IOStats", "IOEvent"]


class MemoryMeter:
    """Tracks named byte counts; exposes the current and peak totals.

    One meter per engine run: a run's peak and spill decisions never see
    an earlier run's structures.
    """

    def __init__(self) -> None:
        self._sizes: dict[str, int] = {}
        self.peak_bytes = 0

    def set(self, name: str, nbytes: int) -> None:
        """Set the live size of structure ``name`` (overwrites)."""
        if nbytes < 0:
            raise ValueError(f"negative size for {name!r}: {nbytes}")
        self._sizes[name] = int(nbytes)
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def add(self, name: str, delta: int) -> None:
        """Adjust the live size of ``name`` by ``delta`` bytes."""
        self.set(name, self._sizes.get(name, 0) + delta)

    def release(self, name: str) -> None:
        """Forget structure ``name``."""
        self._sizes.pop(name, None)

    @property
    def current_bytes(self) -> int:
        return sum(self._sizes.values())

    def snapshot(self) -> dict[str, int]:
        """Current per-structure sizes (copy)."""
        return dict(self._sizes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mb = self.current_bytes / 1e6
        peak = self.peak_bytes / 1e6
        return f"MemoryMeter(current={mb:.2f}MB, peak={peak:.2f}MB)"


class MemoryBudget:
    """A byte limit for intermediate data (the paper's cgroup cap).

    ``limit_bytes=None`` means unlimited (pure in-memory operation).
    """

    def __init__(self, limit_bytes: int | None = None) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive or None")
        self.limit_bytes = limit_bytes

    def fits(self, current_bytes: int, extra_bytes: int = 0) -> bool:
        """Whether ``current + extra`` stays within the limit."""
        if self.limit_bytes is None:
            return True
        return current_bytes + extra_bytes <= self.limit_bytes

    def headroom(self, current_bytes: int) -> int | None:
        """Remaining bytes before the limit, or None when unlimited."""
        if self.limit_bytes is None:
            return None
        return max(0, self.limit_bytes - current_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.limit_bytes is None:
            return "MemoryBudget(unlimited)"
        return f"MemoryBudget({self.limit_bytes / 1e6:.1f}MB)"


@dataclass(frozen=True)
class IOEvent:
    """One disk transfer, timestamped relative to the stats' epoch."""

    at_seconds: float
    kind: str  # "read" | "write"
    nbytes: int
    seconds: float


@dataclass
class IOStats:
    """Aggregated disk traffic with an event log for rate plots (Fig. 15).

    The engine puts a fresh one on its spill store at the start of every
    run, so each run's numbers cover that run only.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    read_seconds: float = 0.0
    write_seconds: float = 0.0
    #: Part-file deletions attempted and how many failed — a non-zero
    #: failure count means spill files may have leaked on disk.
    deletes: int = 0
    failed_deletes: int = 0
    #: Transient-fault retries performed (each one slept a backoff).
    retries: int = 0
    events: list[IOEvent] = field(default_factory=list)
    epoch: float = field(default_factory=time.perf_counter)

    def record(self, kind: str, nbytes: int, seconds: float) -> None:
        if kind == "read":
            self.bytes_read += nbytes
            self.read_seconds += seconds
        elif kind == "write":
            self.bytes_written += nbytes
            self.write_seconds += seconds
        else:
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        self.events.append(
            IOEvent(time.perf_counter() - self.epoch, kind, nbytes, seconds)
        )

    def record_delete(self, ok: bool) -> None:
        """Count one part-file deletion attempt."""
        self.deletes += 1
        if not ok:
            self.failed_deletes += 1

    def record_retry(self) -> None:
        """Count one transient-fault retry."""
        self.retries += 1

    def rate_series(self, kind: str, bins: int = 20) -> list[tuple[float, float]]:
        """(time, MB/s) series over equal time bins, for Figure-15 plots."""
        relevant = [e for e in self.events if e.kind == kind]
        if not relevant:
            return []
        horizon = max(e.at_seconds for e in relevant) + 1e-9
        width = horizon / bins
        totals = [0.0] * bins
        for event in relevant:
            slot = min(bins - 1, int(event.at_seconds / width))
            totals[slot] += event.nbytes
        return [
            ((i + 0.5) * width, totals[i] / width / 1e6) for i in range(bins)
        ]
