"""Engine sessions and the per-graph session pool.

A *session* is one :class:`~repro.core.engine.KaleidoEngine` kept warm
between queries: its pattern-hash caches and the graph's derived
structures (adjacency views, the lazily built edge index) all survive
from run to run.  Runs on one engine must be serialized, so each session
carries a lock and the pool hands a session to exactly one query at a
time.

The pool is keyed by graph *fingerprint* (content identity, not object
identity): queries over the same data share warm sessions even when the
graph was reloaded.  Up to ``max_sessions_per_graph`` sessions exist per
graph so concurrent queries mine in parallel; past the cap, acquirers
block on a condition variable until a session frees.  All sessions share
one thread-safe hasher, and each runs its parts on its query's thread.

Two invariants the pool enforces itself:

* **No stale reuse.**  A session is validated against its key on every
  acquire: if the graph object behind it was mutated in place (its
  current fingerprint no longer matches the pool key), the session is
  dropped instead of handed out, so a query over data that genuinely
  matches the key can never mine mutated contents.
* **Unlocked construction.**  Building an engine is the expensive part
  of a cold acquire, so it happens outside the pool lock: a slot is
  reserved under the lock, the engine is built unlocked, and the
  finished session is published under the lock again.  Warming one
  graph never serializes acquires and releases for another.

Sessions that are busy when dropped (``drop_graph`` / ``close``) are
*doomed* rather than leaked: the borrower finishes its run, and the
release path closes the engine of any session the pool no longer knows.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from ..core.engine import KaleidoEngine
from ..graph.graph import Graph
from ..obs.metrics import MetricsRegistry

__all__ = ["EngineSession", "SessionPool"]


class EngineSession:
    """One warm engine plus the lock that serializes its runs."""

    def __init__(self, graph: Graph, engine: KaleidoEngine) -> None:
        self.graph = graph
        self.engine = engine
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        return self._lock.acquire(blocking=False)

    def release(self) -> None:
        self._lock.release()

    @property
    def runs_completed(self) -> int:
        return self.engine.runs_completed

    def close(self) -> None:
        self.engine.close()


class SessionPool:
    """Bounded pool of warm engine sessions, keyed by graph fingerprint."""

    def __init__(
        self,
        engine_factory: Callable[[Graph], KaleidoEngine],
        max_sessions_per_graph: int = 4,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_sessions_per_graph < 1:
            raise ValueError("max_sessions_per_graph must be positive")
        self._engine_factory = engine_factory
        self.max_sessions_per_graph = max_sessions_per_graph
        self._cond = threading.Condition()
        self._sessions: dict[str, list[EngineSession]] = {}  # guarded-by: _cond
        #: In-flight engine builds per fingerprint; a reservation counts
        #: against the per-graph cap so concurrent cold acquires cannot
        #: overshoot it while the factory runs unlocked.
        self._building: dict[str, int] = {}  # guarded-by: _cond
        #: Sessions forgotten while busy; closed by :meth:`_release`.
        self._doomed: set[EngineSession] = set()  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._created = metrics.counter("service.sessions.created")
        self._reused = metrics.counter("service.sessions.reused")
        self._live = metrics.gauge("service.sessions.live")

    @contextmanager
    def session(self, graph: Graph) -> Iterator[EngineSession]:
        """Borrow a session for ``graph``, blocking at the per-graph cap."""
        acquired = self._acquire(graph)
        try:
            yield acquired
        finally:
            self._release(acquired)

    def _acquire(self, graph: Graph) -> EngineSession:
        fingerprint = graph.fingerprint()
        while True:
            stale: list[EngineSession] = []
            reserved = False
            with self._cond:
                while True:
                    if self._closed:
                        raise RuntimeError("session pool is closed")
                    sessions = self._sessions.setdefault(fingerprint, [])
                    for candidate in list(sessions):
                        # The session's graph object mutated since it was
                        # keyed: its engine would mine the new contents
                        # under the old key.  Never hand it out.
                        if candidate.graph.fingerprint() != fingerprint:
                            sessions.remove(candidate)
                            if candidate.try_acquire():
                                stale.append(candidate)
                            else:
                                self._doomed.add(candidate)
                    if stale:
                        self._live.set(self._total_locked())
                        self._cond.notify_all()
                        break  # close the stale engines unlocked, rescan
                    for candidate in sessions:
                        if candidate.try_acquire():
                            self._reused.inc()
                            return candidate
                    building = self._building.get(fingerprint, 0)
                    if len(sessions) + building < self.max_sessions_per_graph:
                        self._building[fingerprint] = building + 1
                        reserved = True
                        break
                    self._cond.wait()
            for candidate in stale:
                candidate.close()
            if reserved:
                return self._build(graph, fingerprint)

    def _build(self, graph: Graph, fingerprint: str) -> EngineSession:
        """Construct a session against a reserved slot, outside the lock."""
        try:
            engine = self._engine_factory(graph)
        except BaseException:
            with self._cond:
                self._unreserve(fingerprint)
                self._cond.notify_all()
            raise
        session = EngineSession(graph, engine)
        session.try_acquire()
        with self._cond:
            self._unreserve(fingerprint)
            closed = self._closed
            if not closed:
                self._sessions.setdefault(fingerprint, []).append(session)
                self._created.inc()
                self._live.set(self._total_locked())
            self._cond.notify_all()
        if closed:  # pool shut down while the engine was building
            session.release()
            session.close()
            raise RuntimeError("session pool is closed")
        return session

    def _unreserve(self, fingerprint: str) -> None:
        remaining = self._building.get(fingerprint, 1) - 1
        if remaining > 0:
            self._building[fingerprint] = remaining
        else:
            self._building.pop(fingerprint, None)

    def _release(self, session: EngineSession) -> None:
        with self._cond:
            session.release()
            doomed = session in self._doomed
            self._doomed.discard(session)
            self._cond.notify_all()
        if doomed:
            # The pool forgot this session while we were running; it is
            # unreachable to other acquirers, so closing unlocked is safe.
            session.close()

    def _total_locked(self) -> int:
        return sum(len(sessions) for sessions in self._sessions.values())

    def fingerprints_for(self, graph: Graph) -> set[str]:
        """Pool keys whose sessions are bound to this exact graph object.

        After an in-place mutation these are the *pre-mutation*
        fingerprints the object was served under — which is how
        :meth:`MiningService.invalidate_graph` finds stale state without
        the caller having to remember old digests.
        """
        with self._cond:
            return {
                fingerprint
                for fingerprint, sessions in self._sessions.items()
                if any(session.graph is graph for session in sessions)
            }

    def drop_graph(self, fingerprint: str) -> int:
        """Close and forget every session for one fingerprint.

        Idle sessions close immediately.  A busy session (query in
        flight) is doomed: the borrower's run finishes normally and
        :meth:`_release` closes the engine when it comes back — nothing
        leaks.  Returns the number of sessions dropped (idle + doomed).
        """
        with self._cond:
            dropped = self._sessions.pop(fingerprint, [])
            idle: list[EngineSession] = []
            for session in dropped:
                if session.try_acquire():
                    idle.append(session)
                else:
                    self._doomed.add(session)
            self._live.set(self._total_locked())
            self._cond.notify_all()
        for session in idle:
            session.close()
            session.release()
        return len(dropped)

    def __len__(self) -> int:
        with self._cond:
            return self._total_locked()

    def close(self) -> None:
        """Close every session's engine (idempotent).

        Sessions busy at close time are doomed and closed on release,
        like :meth:`drop_graph`.
        """
        with self._cond:
            self._closed = True
            dropped = [s for sessions in self._sessions.values() for s in sessions]
            self._sessions.clear()
            idle: list[EngineSession] = []
            for session in dropped:
                if session.try_acquire():
                    idle.append(session)
                else:
                    self._doomed.add(session)
            self._live.set(0)
            self._cond.notify_all()
        for session in idle:
            session.close()
