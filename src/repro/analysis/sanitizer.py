"""Runtime sanitizers: a shared-state race detector and a lock-order checker.

Static rule R001 sees direct ``self.x = ...`` writes in hot methods, but
not writes routed through helpers, aliases or ``setattr``.  The
:class:`PartPuritySanitizer` closes that gap at runtime: while the
engine is inside a *hot phase* (the executor is running per-part tasks,
possibly on pool threads), every attribute write on the wrapped
application raises :class:`~repro.errors.PartPurityError` immediately —
the write that would have been a silent cross-part race becomes a loud
failure at its exact source line.

Mechanics: instance attribute writes go through
``type(obj).__setattr__``, so wrapping the app in a proxy object is not
enough — the app's own methods would still see the real ``self``.
Instead the sanitizer swaps ``app.__class__`` for a dynamically created
subclass whose ``__setattr__`` / ``__delattr__`` consult the hot-phase
flag.  Outside hot phases (``init``, ``reduce``, ``prune`` — all
coordinator-serial) writes pass straight through, so a
well-behaved app runs byte-identical to an unsanitized run.

The :class:`LockOrderSanitizer` is the runtime complement of static
rule R006: R006 checks that guarded fields are touched under their
lock, the sanitizer checks that the locks themselves are taken in one
consistent global order.  It wraps the project's lock attributes in
recording proxies during ``--sanitize`` runs, maintains a per-thread
held stack plus a global held→acquired edge graph, and raises a typed
:class:`~repro.errors.LockOrderError` the moment a blocking acquire
would close a cycle — deterministically, without needing two threads
to actually interleave into the deadlock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import LockOrderError, PartPurityError

__all__ = [
    "AttributeWrite",
    "LockOrderSanitizer",
    "PartPuritySanitizer",
    "TrackedLock",
]


@dataclass(frozen=True)
class AttributeWrite:
    """One recorded attribute write on the sanitized application."""

    attribute: str
    kind: str  # "set" or "delete"
    thread: str
    hot: bool


class PartPuritySanitizer:
    """Context manager that polices attribute writes on one application.

    Usage (what the engine does under ``sanitize=True``)::

        sanitizer = PartPuritySanitizer(app)
        with sanitizer:                  # swaps in the recording class
            app.init(graph)              # cold: allowed, recorded
            with sanitizer.hot_phase():  # executor.run(...) window
                ...                      # any self.* write -> raises

    The swap preserves ``__name__`` / ``__qualname__`` / ``__module__``
    on the generated class so ``app.name`` (which reads
    ``type(self).__name__``) is unchanged, and uses empty ``__slots__``
    so the instance layout is untouched.
    """

    def __init__(self, app: object) -> None:
        self.app = app
        self.writes: list[AttributeWrite] = []
        self._hot = threading.Event()
        self._original_class: type | None = None
        self._lock = threading.Lock()

    # -- write recording ------------------------------------------------
    def _record(self, attribute: str, kind: str) -> None:
        hot = self._hot.is_set()
        write = AttributeWrite(
            attribute=attribute,
            kind=kind,
            thread=threading.current_thread().name,
            hot=hot,
        )
        with self._lock:
            self.writes.append(write)
        if hot:
            app_name = type(self.app).__name__
            raise PartPurityError(
                f"{app_name} wrote shared attribute '{attribute}' "
                f"({kind}) during a per-part hot phase on thread "
                f"'{write.thread}'; per-part output must live in the "
                f"part's pattern map and be absorbed in reduce"
            )

    # -- class swap -----------------------------------------------------
    def _make_recording_class(self, base: type) -> type:
        sanitizer = self

        def __setattr__(obj: object, name: str, value: object) -> None:
            if name != "__class__":  # the sanitizer's own swap-back
                sanitizer._record(name, "set")
            super(recording, obj).__setattr__(name, value)

        def __delattr__(obj: object, name: str) -> None:
            sanitizer._record(name, "delete")
            super(recording, obj).__delattr__(name)

        recording = type(
            base.__name__,
            (base,),
            {
                "__setattr__": __setattr__,
                "__delattr__": __delattr__,
                "__slots__": (),
                "__qualname__": base.__qualname__,
                "__module__": base.__module__,
                "_repro_sanitized_base_": base,
            },
        )
        return recording

    def __enter__(self) -> "PartPuritySanitizer":
        if self._original_class is not None:
            raise RuntimeError("sanitizer already active")
        base = type(self.app)
        self._original_class = base
        self.app.__class__ = self._make_recording_class(base)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._original_class is not None:
            self.app.__class__ = self._original_class
            self._original_class = None
        self._hot.clear()

    # -- hot-phase window ----------------------------------------------
    @contextmanager
    def hot_phase(self):
        """Mark the window where per-part tasks run (executor active)."""
        self._hot.set()
        try:
            yield
        finally:
            self._hot.clear()

    # -- reporting ------------------------------------------------------
    @property
    def hot_writes(self) -> list[AttributeWrite]:
        return [write for write in self.writes if write.hot]


# ----------------------------------------------------------------------
# Lock-order sanitizer
# ----------------------------------------------------------------------

#: Primitive lock types the sanitizer knows how to wrap.
_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()), threading.Condition)


class TrackedLock:
    """Recording proxy around a ``Lock``/``RLock``/``Condition``.

    Acquisition order is reported to the owning
    :class:`LockOrderSanitizer` *before* blocking, so an inversion
    raises :class:`~repro.errors.LockOrderError` instead of deadlocking.
    ``Condition.wait`` temporarily drops the lock; the proxy mirrors
    that in the held-stack bookkeeping so edges recorded while waiting
    stay accurate.  Everything else delegates to the wrapped primitive.
    """

    def __init__(self, sanitizer: "LockOrderSanitizer", name: str, inner: object) -> None:
        self._sanitizer = sanitizer
        self._name = name
        self._inner = inner

    @property
    def name(self) -> str:
        return self._name

    @property
    def inner(self) -> object:
        return self._inner

    # -- lock protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking:
            self._sanitizer._before_blocking_acquire(self._name)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._note_held(self._name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._sanitizer._note_released(self._name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # -- condition protocol ---------------------------------------------
    def wait(self, timeout: float | None = None) -> bool:
        self._sanitizer._note_released(self._name)
        try:
            return self._inner.wait(timeout)
        finally:
            # wait() re-acquired the underlying lock on the way out;
            # re-check ordering against whatever else is still held.
            self._sanitizer._before_blocking_acquire(self._name)
            self._sanitizer._note_held(self._name)

    def wait_for(self, predicate, timeout: float | None = None):
        self._sanitizer._note_released(self._name)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._sanitizer._before_blocking_acquire(self._name)
            self._sanitizer._note_held(self._name)

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedLock({self._name!r}, {self._inner!r})"


class LockOrderSanitizer:
    """Global lock-order checker for ``--sanitize`` runs.

    Usage::

        sanitizer = LockOrderSanitizer()
        sanitizer.instrument(executor)   # wraps lock-typed attributes
        sanitizer.instrument(service)
        try:
            ...                          # run; inversions raise
        finally:
            sanitizer.restore()          # put the raw locks back

    Lock identity is the *name* (``ClassName.attr``), not the instance:
    ordering discipline is a property of the code paths, and collapsing
    per-instance locks onto their class keeps one session's lock from
    producing a spurious edge against another session's.  A name
    already on the thread's held stack is treated as reentrant and adds
    no edges.
    """

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        #: held-name -> names acquired while it was held.
        self._edges: dict[str, set[str]] = {}
        #: (held, acquired) -> thread name that first recorded the edge.
        self._edge_threads: dict[tuple[str, str], str] = {}
        self._held = threading.local()
        self._instrumented: list[tuple[object, str, object]] = []

    # -- per-thread stack ----------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def held_locks(self) -> tuple[str, ...]:
        """The current thread's held-lock names, outermost first."""
        return tuple(self._stack())

    def _note_held(self, name: str) -> None:
        self._stack().append(name)

    def _note_released(self, name: str) -> None:
        stack = self._stack()
        if name in stack:
            stack.reverse()
            stack.remove(name)  # innermost occurrence
            stack.reverse()

    # -- ordering graph -------------------------------------------------
    def edges(self) -> frozenset[tuple[str, str]]:
        """Every recorded (held, acquired) ordering edge."""
        with self._graph_lock:
            return frozenset(
                (held, acquired)
                for held, targets in self._edges.items()
                for acquired in targets
            )

    def _path(self, start: str, goal: str) -> list[str] | None:
        """A path start -> ... -> goal in the edge graph, if any."""
        frontier: list[list[str]] = [[start]]
        seen = {start}
        while frontier:
            path = frontier.pop()
            if path[-1] == goal:
                return path
            for nxt in self._edges.get(path[-1], ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(path + [nxt])
        return None

    def _before_blocking_acquire(self, name: str) -> None:
        stack = self._stack()
        if not stack or name in stack:  # first lock, or reentrant
            return
        thread = threading.current_thread().name
        with self._graph_lock:
            for held in stack:
                cycle = self._path(name, held)
                if cycle is not None:
                    chain = " -> ".join(cycle)
                    origin = self._edge_threads.get((cycle[0], cycle[1]), "?")
                    raise LockOrderError(
                        f"lock-order inversion: thread '{thread}' wants "
                        f"'{name}' while holding '{held}', but the reverse "
                        f"order {chain} was already recorded (first by "
                        f"thread '{origin}'); acquiring these locks in "
                        f"inconsistent orders can deadlock"
                    )
            for held in stack:
                targets = self._edges.setdefault(held, set())
                if name not in targets:
                    targets.add(name)
                    self._edge_threads[(held, name)] = thread

    # -- instrumentation ------------------------------------------------
    def wrap(self, lock: object, name: str) -> TrackedLock:
        """Wrap one lock under an explicit name."""
        if isinstance(lock, TrackedLock):
            return lock
        return TrackedLock(self, name, lock)

    def instrument(self, obj: object) -> list[str]:
        """Swap every lock-typed attribute of ``obj`` for a tracked proxy.

        Returns the wrapped attribute names; :meth:`restore` puts the
        raw locks back (instrumentation is strictly scoped to the
        sanitized run).
        """
        wrapped: list[str] = []
        attrs = getattr(obj, "__dict__", None)
        if not attrs:
            return wrapped
        label = type(obj).__name__
        for attr, value in list(attrs.items()):
            if isinstance(value, TrackedLock) or not isinstance(value, _LOCK_TYPES):
                continue
            setattr(obj, attr, TrackedLock(self, f"{label}.{attr}", value))
            self._instrumented.append((obj, attr, value))
            wrapped.append(f"{label}.{attr}")
        return wrapped

    def restore(self) -> None:
        """Undo every :meth:`instrument`, restoring the raw locks."""
        while self._instrumented:
            obj, attr, original = self._instrumented.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "LockOrderSanitizer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()
