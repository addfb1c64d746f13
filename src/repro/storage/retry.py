"""Retry with capped exponential backoff for transient storage faults.

Disk I/O fails in two very different ways: *transiently* (a busy device,
an interrupted syscall, a flaky read that succeeds on the next attempt)
and *permanently* (no space, no permission, a corrupt payload).  The
:class:`RetryPolicy` below retries only the former, doubling a small
delay between attempts up to a cap; both the sleep function and the
delays are injectable so tests (and the fault-injection suite) run
deterministic retries without real waiting.
"""

from __future__ import annotations

import errno
import time
from typing import Callable

__all__ = ["RetryPolicy", "is_transient_oserror", "is_disk_full_oserror"]

#: errno values treated as retryable — the fault is expected to clear.
_TRANSIENT_ERRNOS = frozenset(
    {errno.EAGAIN, errno.EINTR, errno.EIO, errno.EBUSY, errno.ETIMEDOUT}
)

#: errno values meaning the device is out of space (fail fast, don't retry).
_DISK_FULL_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT})


def is_transient_oserror(exc: OSError) -> bool:
    """Whether an :class:`OSError` is worth retrying."""
    return exc.errno in _TRANSIENT_ERRNOS


def is_disk_full_oserror(exc: OSError) -> bool:
    """Whether an :class:`OSError` means the device is full."""
    return exc.errno in _DISK_FULL_ERRNOS


class RetryPolicy:
    """Capped exponential backoff: delays ``base * 2^i`` up to ``max_delay``.

    ``attempts`` counts *total* tries, so ``attempts=1`` disables
    retrying.  ``sleep`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        attempts: int = 4,
        base_delay: float = 0.01,
        max_delay: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be at least 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.sleep = sleep

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return min(self.max_delay, self.base_delay * (2**attempt))

    def backoff(self, attempt: int) -> None:
        """Sleep the capped exponential delay for ``attempt`` (0-based)."""
        self.sleep(self.delay(attempt))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetryPolicy(attempts={self.attempts}, "
            f"base={self.base_delay}s, cap={self.max_delay}s)"
        )
