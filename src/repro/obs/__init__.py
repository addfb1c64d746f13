"""Run-scoped observability: tracing, metrics, exporters.

One subsystem replaces the scattered ad-hoc instrumentation the
benchmarks used to reinvent per figure:

* :class:`Tracer` / :data:`NULL_TRACER` — nested spans
  (``run → level → {plan, execute, aggregate} → part``) and instant
  events (spill, io-plan, retry, checkpoint),
  thread-safe, with an injected clock for deterministic tests.  The
  null tracer is the default and costs one attribute check on hot paths.
* :class:`MetricsRegistry` — named counters/gauges/histograms with an
  associative merge; :mod:`repro.obs.bridge` folds the pre-existing
  ``IOStats`` / ``MemoryMeter`` / ``PatternHasher`` state in.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or Perfetto) and flat JSONL.

Enable on an engine with ``KaleidoEngine(graph, tracer=Tracer())`` or
from the CLI with ``repro run <app> --trace-out t.json``.
"""

from .bridge import absorb_engine, absorb_hasher, absorb_io_stats, absorb_memory_meter
from .export import chrome_trace, write_chrome_trace, write_jsonl
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, MetricsView
from .trace import (
    NULL_TRACER,
    NullTracer,
    SHAPE_IGNORED_ARGS,
    TraceEvent,
    Tracer,
    span_tree_shape,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "span_tree_shape",
    "SHAPE_IGNORED_ARGS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsView",
    "absorb_engine",
    "absorb_io_stats",
    "absorb_memory_meter",
    "absorb_hasher",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
