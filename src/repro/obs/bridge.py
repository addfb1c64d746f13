"""Fold the pre-existing ad-hoc instrumentation into a MetricsRegistry.

The storage layer grew its own measurement structures before the
observability layer existed — :class:`~repro.storage.meter.IOStats` and
:class:`~repro.storage.meter.MemoryMeter`.  Rather than rewrite them
(every benchmark reads them directly), these helpers project their
state into the registry's namespace, so exporters and the CLI see one
interface.  After each run the engine folds that run's own meter and
IOStats in through them (plus its storage, checkpoint and hasher
counts); live quantities (parts written) are instrumented at the source
instead.  Nothing here reads an engine.

Metric names produced here are part of the public surface — the table
in docs/api.md lists them all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..storage.meter import IOStats, MemoryMeter

__all__ = [
    "METRIC_REGISTRY",
    "absorb_io_stats",
    "absorb_memory_meter",
]

#: Every metric name the project may emit, as dotted patterns (``*``
#: matches one segment: per-component memory gauges, per-tenant views).
#: This is the schema dashboards are built against; analysis rule R008
#: checks each ``.counter/.gauge/.histogram`` emission in the code
#: against this table, so adding a metric means adding a row here (and
#: to the docs/api.md table) — a typo'd name fails the lint instead of
#: silently never reaching a dashboard.
METRIC_REGISTRY: tuple[str, ...] = (
    # io — spill/checkpoint byte counters and latency histograms
    "io.bytes_read",
    "io.bytes_written",
    "io.deletes",
    "io.failed_deletes",
    "io.retries",
    "io.read_seconds",
    "io.write_seconds",
    # queue — spilled parts written (live, at the source)
    "queue.parts_written",
    # mem — MemoryMeter projections (total plus per-component)
    "mem.bytes",
    "mem.*.bytes",
    # hasher — PatternHasher cache statistics
    "hasher.hits",
    "hasher.misses",
    "hasher.evictions",
    "hasher.cache_entries",
    # storage — spill/demotion policy outcomes
    "storage.spilled_levels",
    "storage.demoted_levels",
    "storage.io_plan.part_entries",
    # checkpoint — recovery bookkeeping
    "checkpoint.written",
    "checkpoint.failures",
    "checkpoint.bytes_written",
    # service — query-tier totals
    "service.requests",
    "service.completed",
    "service.failed",
    "service.latency_seconds",
    "service.route.green",
    "service.route.yellow",
    "service.route.red",
    "service.route.degraded",
    "service.route.rejected",
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.evictions",
    "service.cache.entries",
    "service.sessions.created",
    "service.sessions.reused",
    "service.sessions.live",
    # tenant.<name>.* — per-tenant MetricsView projections
    "tenant.*.admitted",
    "tenant.*.rejected",
    "tenant.*.inflight",
    "tenant.*.completed",
    "tenant.*.failed",
    "tenant.*.route.*",
    "tenant.*.latency_seconds",
)


def absorb_io_stats(
    registry: MetricsRegistry, io: "IOStats", prefix: str = "io"
) -> None:
    """Project an IOStats into ``io.*`` counters and latency histograms."""
    registry.counter(f"{prefix}.bytes_read").inc(io.bytes_read)
    registry.counter(f"{prefix}.bytes_written").inc(io.bytes_written)
    registry.counter(f"{prefix}.deletes").inc(io.deletes)
    registry.counter(f"{prefix}.failed_deletes").inc(io.failed_deletes)
    registry.counter(f"{prefix}.retries").inc(io.retries)
    reads = registry.histogram(f"{prefix}.read_seconds")
    writes = registry.histogram(f"{prefix}.write_seconds")
    for event in io.events:
        (reads if event.kind == "read" else writes).observe(event.seconds)


def absorb_memory_meter(
    registry: MetricsRegistry, meter: "MemoryMeter", prefix: str = "mem"
) -> None:
    """Project a MemoryMeter into ``mem.*`` gauges (current and peak)."""
    total = registry.gauge(f"{prefix}.bytes")
    total.set(meter.peak_bytes)  # record the peak into the gauge's peak
    total.set(meter.current_bytes)
    for name, nbytes in meter.snapshot().items():
        registry.gauge(f"{prefix}.{name}.bytes").set(nbytes)
