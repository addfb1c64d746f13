"""Unit tests for the Chrome trace_event and JSONL exporters."""

import io
import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


class FakeClock:
    def __init__(self) -> None:
        self.time = 0.0

    def __call__(self) -> float:
        self.time += 0.5
        return self.time


def _sample_tracer() -> Tracer:
    tracer = Tracer(clock=FakeClock())
    with tracer.span("run", app="motif"):
        with tracer.span("level", index=0):
            tracer.instant("spill", depth=1)
        tracer.complete("part", start=0.0, end=1.0, track="worker-0",
                        parent="execute", task=0, worker=0)
        tracer.complete("part", start=1.0, end=1.5, track="worker-1",
                        parent="execute", task=1, worker=1)
    return tracer


def test_chrome_trace_structure():
    trace = chrome_trace(_sample_tracer())
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    json.dumps(trace)  # must be valid JSON end to end

    metas = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} == {"engine", "worker-0", "worker-1"}
    assert all(m["name"] == "thread_name" for m in metas)

    phases = sorted(e["ph"] for e in events if e["ph"] != "M")
    assert phases == ["B", "B", "E", "E", "X", "X", "i"]

    # B/E pairs nest: run opens before level and closes after it.
    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert begins[0]["name"] == "run" and begins[1]["name"] == "level"
    assert ends[0]["name"] == "level" and ends[1]["name"] == "run"

    completes = [e for e in events if e["ph"] == "X"]
    assert all("dur" in e for e in completes)
    assert completes[0]["dur"] == pytest.approx(1e6)

    (instant,) = [e for e in events if e["ph"] == "i"]
    assert instant["s"] == "t"
    assert instant["args"] == {"depth": 1}

    # Timestamps are microseconds, monotonically sorted.
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts)


def test_chrome_trace_engine_track_is_tid_one():
    trace = chrome_trace(_sample_tracer())
    engine_meta = next(
        e for e in trace["traceEvents"]
        if e["ph"] == "M" and e["args"]["name"] == "engine"
    )
    assert engine_meta["tid"] == 1
    run_begin = next(
        e for e in trace["traceEvents"] if e["ph"] == "B" and e["name"] == "run"
    )
    assert run_begin["tid"] == 1


def test_write_chrome_trace_to_path_and_file(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), tracer)
    from_path = json.loads(path.read_text())
    buffer = io.StringIO()
    write_chrome_trace(buffer, tracer)
    from_file = json.loads(buffer.getvalue())
    assert from_path == from_file
    assert len(from_path["traceEvents"]) > 0


def test_write_jsonl_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "trace.jsonl"
    write_jsonl(str(path), tracer)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(tracer.events)
    by_kind = {}
    for record in lines:
        by_kind.setdefault(record["kind"], []).append(record)
    assert len(by_kind["complete"]) == 2
    assert all("dur" in r for r in by_kind["complete"])
    assert all("dur" not in r for r in by_kind["begin"])
