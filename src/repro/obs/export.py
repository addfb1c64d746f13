"""Exporters: Chrome ``trace_event`` JSON and flat JSONL.

The Chrome export is the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev — drop the file onto
either and the run renders as one timeline per track: the engine thread
with its nested ``run → level → {plan, execute, aggregate}`` spans, one
track per worker carrying the measured per-part intervals,
plus instant markers for spills, retries and checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import IO, Any, Iterable

from .trace import TraceEvent, Tracer

__all__ = ["chrome_trace", "write_chrome_trace", "write_jsonl"]

_PID = 1


def _as_events(source: "Tracer | Iterable[TraceEvent]") -> list[TraceEvent]:
    if isinstance(source, Tracer):
        return source.events
    return list(source)


def _track_ids(events: list[TraceEvent]) -> dict[int | str, int]:
    """Stable small integer tid per distinct track, engine thread first.

    Named tracks (``"worker-N"`` strings) sort after thread-ident tracks
    in first-seen order, so the engine timeline renders on top.
    """
    tids: dict[int | str, int] = {}
    for event in events:
        if event.track not in tids:
            tids[event.track] = len(tids) + 1
    return tids


def _track_name(track: int | str, tid: int) -> str:
    if isinstance(track, str):
        return track
    return "engine" if tid == 1 else f"thread-{tid}"


def chrome_trace(source: "Tracer | Iterable[TraceEvent]") -> dict[str, Any]:
    """Convert recorded events into a Chrome Trace Event Format object.

    Stack spans become ``B``/``E`` pairs, complete spans become ``X``
    events with a duration, instants become ``i`` (thread-scoped);
    every track gets a ``thread_name`` metadata record.  Timestamps are
    microseconds since the tracer's epoch.
    """
    events = _as_events(source)
    tids = _track_ids(events)
    out: list[dict[str, Any]] = []
    for track, tid in tids.items():
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": _track_name(track, tid)},
            }
        )
    phases = {"begin": "B", "end": "E", "instant": "i", "complete": "X"}
    for event in sorted(events, key=lambda e: e.ts):
        record: dict[str, Any] = {
            "ph": phases[event.kind],
            "name": event.name,
            "pid": _PID,
            "tid": tids[event.track],
            "ts": round(event.ts * 1e6, 3),
        }
        if event.kind == "complete":
            record["dur"] = round((event.dur or 0.0) * 1e6, 3)
        if event.kind == "instant":
            record["s"] = "t"
        if event.args:
            record["args"] = dict(event.args)
        out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path_or_file: "str | IO[str]", source: "Tracer | Iterable[TraceEvent]"
) -> None:
    """Write the Chrome trace JSON to a path or open text file."""
    payload = chrome_trace(source)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
    else:
        json.dump(payload, path_or_file)
        path_or_file.write("\n")


def write_jsonl(
    path_or_file: "str | IO[str]", source: "Tracer | Iterable[TraceEvent]"
) -> None:
    """Write one JSON object per event — the flat, grep-able log form."""
    events = _as_events(source)

    def dump(handle: IO[str]) -> None:
        for event in events:
            record = asdict(event)
            if record["dur"] is None:
                del record["dur"]
            handle.write(json.dumps(record) + "\n")

    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            dump(handle)
    else:
        dump(path_or_file)
