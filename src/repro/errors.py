"""Exception hierarchy for the Kaleido reproduction.

Every error raised deliberately by this library derives from
:class:`KaleidoError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class KaleidoError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(KaleidoError):
    """An input edge list or adjacency file could not be parsed."""


class GraphConstructionError(KaleidoError):
    """A graph could not be built from the supplied vertices and edges."""


class EmbeddingSizeError(KaleidoError):
    """An embedding operation was requested for an unsupported size.

    The EigenHash isomorphism fingerprint is only proven collision-free for
    embeddings with fewer than 9 vertices (Corollary 1 of the paper).
    """


class StorageError(KaleidoError):
    """The hybrid storage layer failed to read or write a spilled part."""


class TransientStorageError(StorageError):
    """A retryable I/O failure persisted past the retry budget.

    Raised when an operation kept failing with errors the retry policy
    classifies as transient (``EAGAIN``/``EINTR``/``EIO``/``EBUSY``) even
    after capped exponential backoff.  The operation left no partial
    state behind — retrying later is safe.
    """


class CorruptPartError(StorageError):
    """An on-disk part or checkpoint file failed integrity validation.

    A checksum mismatch, a truncated payload, or a length that disagrees
    with the part's handle.  Never retried: the bytes on disk are wrong,
    and surfacing the corruption beats silently computing a wrong answer.
    """


class DiskFullError(StorageError):
    """The storage device is out of space (``ENOSPC``/``EDQUOT``).

    Not retried: the failed level's parts are deleted and the error
    propagates.  Free space (or point ``spill_dir`` elsewhere) and run
    again, or resume from the last checkpoint.
    """


class PlanError(KaleidoError):
    """An exploration plan (partitioning / scheduling) was inconsistent."""


class PartPurityError(KaleidoError):
    """An application mutated shared state inside a per-part hot phase.

    Raised by the part-purity sanitizer when a ``MiningApplication``
    writes an attribute on itself while parts are being executed — the
    shared-mapper-state race that makes an app's results depend on how
    the threaded executor interleaves its parts.  Per-part output belongs
    in the part's own pattern map and is absorbed serially by ``reduce``.
    """


class LockOrderError(KaleidoError):
    """Two locks were acquired in inconsistent orders across threads.

    Raised by the lock-order sanitizer the moment a blocking acquisition
    would close a cycle in the global lock-order graph — i.e. this
    thread wants lock B while holding A, but some earlier acquisition
    (on any thread) took A while holding B.  Catching the inversion at
    the ordering level means the deadlock is reported deterministically,
    without needing the two threads to actually interleave into one.
    """


class UnknownDatasetError(KaleidoError):
    """A dataset name was not found in the registry."""


class ServiceError(KaleidoError):
    """Base class for errors raised by the mining service tier."""


class QuotaExceededError(ServiceError):
    """A tenant's admission quota rejected a query.

    Raised at submission time, before any mining work starts, when the
    tenant already has ``max_concurrent`` queries in flight.  Retrying
    after in-flight queries drain is safe; nothing was partially run.
    """


class QueryRejectedError(ServiceError):
    """A query hit its budget and could not degrade.

    The query ran under its budget as the engine's ``max_embeddings``
    guard, and the planner predicted a level above it; the engine's
    :class:`PlanError` is chained as ``__cause__``.  The service only
    degrades to the approximate path when the budget allows it *and*
    the application has an approximate mode; otherwise it refuses the
    query with this error.  The levels below the guarded one were built
    and discarded; nothing was cached.
    """
