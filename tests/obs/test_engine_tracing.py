"""Engine-level observability: parity, span taxonomy, absorbed metrics."""

import json

import pytest

from repro import KaleidoEngine, MotifCounting, Tracer
from repro.graph import chung_lu
from repro.obs import NULL_TRACER, chrome_trace


@pytest.fixture(scope="module")
def graph():
    return chung_lu(60, 180, seed=1, num_labels=2)


def test_tracing_does_not_change_results(graph):
    plain = KaleidoEngine(graph, workers=4).run(MotifCounting(3))
    tracer = Tracer()
    traced = KaleidoEngine(graph, workers=4, tracer=tracer).run(MotifCounting(3))
    assert plain.pattern_map == traced.pattern_map
    assert plain.level_sizes == traced.level_sizes
    assert dict(plain.value) == dict(traced.value)
    assert len(tracer) > 0


def test_default_engine_uses_null_tracer(graph):
    engine = KaleidoEngine(graph)
    assert engine.tracer is NULL_TRACER
    assert engine.tracer.enabled is False
    engine.run(MotifCounting(3))
    assert engine.tracer.events == []


def test_span_taxonomy(graph):
    tracer = Tracer()
    KaleidoEngine(graph, workers=4, tracer=tracer).run(MotifCounting(3))
    events = tracer.events

    begins = [e for e in events if e.kind == "begin"]
    by_name = {}
    for e in begins:
        by_name.setdefault(e.name, []).append(e)

    assert len(by_name["run"]) == 1
    assert by_name["run"][0].args["app"] == "3-Motif"
    levels = by_name["level"]
    assert [e.args["index"] for e in levels] == list(range(len(levels)))
    assert all(e.parent == "run" for e in levels)
    for stage in ("plan", "execute"):
        assert all(e.parent == "level" for e in by_name[stage])
    # the final reduction happens once, after the level loop
    assert [e.parent for e in by_name["aggregate"]] == ["run"]
    # every begin closed: the stack drained
    assert tracer.open_spans() == []
    ends = [e for e in events if e.kind == "end"]
    assert len(ends) == len(begins)


def test_part_spans_carry_worker_tracks(graph):
    tracer = Tracer()
    KaleidoEngine(graph, workers=4, tracer=tracer).run(MotifCounting(3))
    parts = [e for e in tracer.events if e.kind == "complete" and e.name == "part"]
    assert parts, "no part spans recorded"
    assert {e.parent for e in parts} <= {"execute", "aggregate"}
    assert all(str(e.track).startswith("worker-") for e in parts)
    assert all(e.dur is not None and e.dur >= 0 for e in parts)
    # Every part span lands on a named track of the Chrome export, and
    # the export is valid JSON.
    trace = chrome_trace(tracer)
    json.dumps(trace)
    events = trace["traceEvents"]
    names = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {e["tid"] for e in events if e["ph"] == "X"} <= names.keys()
    assert any(name.startswith("worker-") for name in names.values())


def test_default_run_lays_parts_one_after_another_on_one_track(graph):
    """The default executor is serial: at ``workers=4`` every part span
    sits on ``worker-0``, in part order, and no two overlap."""
    tracer = Tracer()
    KaleidoEngine(graph, workers=4, tracer=tracer).run(MotifCounting(3))
    parts = [e for e in tracer.events if e.kind == "complete" and e.name == "part"]
    executes = [e for e in tracer.events if e.kind == "begin" and e.name == "execute"]
    assert any(e.args["parts"] > 1 for e in executes)
    assert {e.track for e in parts} == {"worker-0"}
    assert [e.args["task"] for e in parts] == [
        task for e in executes for task in range(e.args["parts"])
    ]
    for prev, nxt in zip(parts, parts[1:]):
        assert nxt.ts >= prev.ts + prev.dur - 1e-9


def test_metrics_absorbed_after_run(graph):
    tracer = Tracer()
    engine = KaleidoEngine(graph, workers=2, tracer=tracer)
    engine.run(MotifCounting(3))
    snap = engine.metrics.snapshot()
    assert snap["hasher.hits"]["type"] == "counter"
    assert snap["mem.bytes"]["peak"] > 0
    assert "storage.spilled_levels" in snap
    assert "checkpoint.written" in snap


def test_spill_run_emits_storage_events_and_metrics(graph, tmp_path):
    tracer = Tracer()
    with KaleidoEngine(
        graph,
        workers=2,
        storage_mode="spill-last",
        spill_dir=str(tmp_path),
        tracer=tracer,
    ) as engine:
        # 4-Motif spills its 2-embeddings; the last level is folded.
        engine.run(MotifCounting(4))
    instants = {e.name for e in tracer.events if e.kind == "instant"}
    assert {"spill", "io-plan"} <= instants
    snap = engine.metrics.snapshot()
    assert snap["storage.spilled_levels"]["value"] >= 1
    assert snap["io.bytes_written"]["value"] > 0
    # The spilled level is read back through its mmap accessor by the
    # folded expansion, so the read shows up as bytes served.
    assert snap["io.bytes_read"]["value"] > 0
    assert snap["queue.parts_written"]["value"] > 0


def test_checkpoint_instants(graph, tmp_path):
    tracer = Tracer()
    with KaleidoEngine(
        graph, checkpoint_dir=str(tmp_path), tracer=tracer
    ) as engine:
        engine.run(MotifCounting(3))
    checkpoints = [e for e in tracer.events if e.name == "checkpoint"]
    assert checkpoints
    assert all(e.kind == "instant" for e in checkpoints)
    assert engine.metrics.snapshot()["checkpoint.written"]["value"] == len(checkpoints)
