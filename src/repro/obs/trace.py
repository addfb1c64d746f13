"""Run-scoped tracing: nested spans and instant events.

The engine's pipeline produces a natural span hierarchy —
``run → level → {plan, execute, aggregate} → part`` — and a handful of
point-in-time facts (a level spilled, a part size was planned, a write
was retried, a checkpoint landed or was restored).
The :class:`Tracer` records both into one append-only event list that the
exporters (:mod:`repro.obs.export`) turn into Chrome ``trace_event``
JSON, a flat JSONL log, or a text summary.

Design constraints, in order:

* **Zero cost when off.**  The default tracer everywhere is
  :data:`NULL_TRACER`, whose ``enabled`` attribute is ``False`` and whose
  methods are no-ops; hot paths guard with a single attribute check
  (``if tracer.enabled: ...``) and pay nothing else.
* **Thread-safe.**  Executor pool threads and the engine thread both
  emit events; the event list is lock-guarded and
  the span stack is thread-local (spans nest *per thread*).
* **Deterministic under test.**  The clock is injected
  (``Tracer(clock=fake)``); nothing else in an event depends on wall
  time, so tests can assert exact timelines.

Two kinds of span exist:

* *Stack spans* (``begin``/``end`` or the :meth:`Tracer.span` context
  manager) nest on the recording thread; ``end`` must match the
  innermost open ``begin`` or it raises — a mismatched pair is a bug in
  the instrumented code, never silently repaired.
* *Complete spans* (:meth:`Tracer.complete`) carry explicit start/end
  times and an explicit track — how executors report per-part intervals
  attributed to workers after the fact.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span_tree_shape",
    "SHAPE_IGNORED_ARGS",
]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``ts`` is seconds relative to the tracer's epoch.  ``track`` is the
    timeline the event belongs to: the recording thread's ident for stack
    spans and instants, or an explicit key (e.g. ``"worker-3"``) for
    complete spans.  ``parent`` is the name of the innermost open span on
    the recording thread when the event was emitted (shape information —
    exporters and tests use it; Chrome infers nesting from timestamps).
    """

    kind: str  # "begin" | "end" | "instant" | "complete"
    name: str
    ts: float
    track: int | str
    parent: str | None = None
    depth: int = 0
    dur: float | None = None  # only for "complete"
    args: dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Context manager that does nothing (shared by the null tracer)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def annotate(self, **args: Any) -> None:
        pass

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer.end(self._name)
        return False


class _TrackSpan:
    """Context manager produced by :meth:`Tracer.track_span`.

    Measures its enclosed block on the tracer's clock and records one
    *complete* span on an explicit track when the block exits — the
    per-request timeline primitive: a service query spans several
    coordinator and pool threads, so a thread-keyed stack span cannot
    represent it, but a dedicated ``request-N`` track can.
    """

    __slots__ = ("_tracer", "_name", "_track", "_args", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, track: int | str, args: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._track = track
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_TrackSpan":
        self._start = self._tracer.now()
        return self

    def annotate(self, **args: Any) -> None:
        """Attach more args before the span is recorded (route, status)."""
        self._args.update(args)

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer.complete(
            self._name,
            start=self._start,
            end=self._tracer.now(),
            track=self._track,
            **self._args,
        )
        return False


class Tracer:
    """Thread-safe recorder of nested spans and instant events."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch, on the injected clock."""
        return self._clock() - self._epoch

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    def begin(self, name: str, **args: Any) -> None:
        """Open a span on the calling thread."""
        ts = self.now()
        stack = self._stack()
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(name)
        self._append(
            TraceEvent(
                kind="begin",
                name=name,
                ts=ts,
                track=threading.get_ident(),
                parent=parent,
                depth=depth,
                args=args,
            )
        )

    def end(self, name: str) -> None:
        """Close the innermost span, which must be ``name``."""
        stack = self._stack()
        if not stack or stack[-1] != name:
            raise ValueError(
                f"span end {name!r} does not match the innermost open span "
                f"{stack[-1]!r}" if stack else f"span end {name!r} with no open span"
            )
        stack.pop()
        self._append(
            TraceEvent(
                kind="end",
                name=name,
                ts=self.now(),
                track=threading.get_ident(),
                parent=stack[-1] if stack else None,
                depth=len(stack),
            )
        )

    def span(self, name: str, **args: Any) -> _Span:
        """Context manager: ``begin`` on entry, matching ``end`` on exit."""
        self.begin(name, **args)
        return _Span(self, name)

    def track_span(self, name: str, track: int | str, **args: Any) -> _TrackSpan:
        """Context manager: record the block as one complete span on
        ``track`` (e.g. ``request-7``) when it exits.

        Unlike :meth:`span`, the recorded span lives on an explicit
        track rather than the calling thread's stack, so work that hops
        threads — a service request moving from a dispatcher thread to
        a threaded executor's pool — still reads as one timeline row.
        Call ``annotate(**args)`` on the returned object to attach facts
        discovered mid-flight (the chosen route, the cache outcome).
        """
        return _TrackSpan(self, name, track, dict(args))

    def instant(self, name: str, **args: Any) -> None:
        """Record a point-in-time event (spill, retry, checkpoint, ...)."""
        stack = self._stack()
        self._append(
            TraceEvent(
                kind="instant",
                name=name,
                ts=self.now(),
                track=threading.get_ident(),
                parent=stack[-1] if stack else None,
                depth=len(stack),
                args=args,
            )
        )

    def complete(
        self,
        name: str,
        start: float,
        end: float,
        track: int | str | None = None,
        parent: str | None = None,
        **args: Any,
    ) -> None:
        """Record a span with explicit times on an explicit track.

        ``start``/``end`` are in the tracer's own time base (seconds
        since epoch, i.e. the scale of :meth:`now`).  Executors use this
        to attribute part intervals to worker tracks after the run.
        """
        if end < start:
            raise ValueError(f"complete span {name!r} ends before it starts")
        self._append(
            TraceEvent(
                kind="complete",
                name=name,
                ts=start,
                track=track if track is not None else threading.get_ident(),
                parent=parent,
                dur=end - start,
                args=args,
            )
        )

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """Snapshot of everything recorded so far (copy)."""
        with self._lock:
            return list(self._events)

    def open_spans(self) -> list[str]:
        """Names still open on the *calling* thread (innermost last)."""
        return list(self._stack())

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``enabled`` is ``False`` so instrumented hot paths can skip even the
    no-op call with a single attribute check.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def begin(self, name: str, **args: Any) -> None:
        pass

    def end(self, name: str) -> None:
        pass

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def track_span(self, name: str, track: int | str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **args: Any) -> None:
        pass

    def complete(
        self,
        name: str,
        start: float,
        end: float,
        track: int | str | None = None,
        parent: str | None = None,
        **args: Any,
    ) -> None:
        pass

    @property
    def events(self) -> list[TraceEvent]:
        return []

    def open_spans(self) -> list[str]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared no-op tracer — the default everywhere tracing is optional.
NULL_TRACER = NullTracer()


#: Event args that legitimately differ between executors for the same
#: logical work (worker attribution, measured quantities) and are
#: therefore excluded from the canonical span-tree shape.
SHAPE_IGNORED_ARGS = frozenset({"worker", "seconds", "span_seconds", "path"})


def span_tree_shape(
    events: Iterable[TraceEvent],
    ignore_args: frozenset[str] = SHAPE_IGNORED_ARGS,
) -> dict[tuple, int]:
    """Canonical wall-time-free shape of a trace, as an event multiset.

    Each ``begin``, ``complete`` or ``instant`` event contributes one
    ``(kind, name, parent, sorted-args)`` tuple with the timing- and
    worker-dependent args stripped; the result maps tuple → count.  Two
    runs of the same plan through different executors must produce equal
    shapes — the executor-parity stress tests assert exactly that.
    """
    shape: dict[tuple, int] = {}
    for event in events:
        if event.kind == "end":
            continue
        kept = tuple(
            sorted((k, v) for k, v in event.args.items() if k not in ignore_args)
        )
        key = (event.kind, event.name, event.parent, kept)
        shape[key] = shape.get(key, 0) + 1
    return shape
