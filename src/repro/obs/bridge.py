"""Fold the pre-existing ad-hoc instrumentation into a MetricsRegistry.

The storage and core layers grew their own measurement structures before
the observability layer existed — :class:`~repro.storage.meter.IOStats`,
:class:`~repro.storage.meter.MemoryMeter`, the
:class:`~repro.core.eigenhash.PatternHasher` hit/miss pair.  Rather than
rewrite them (every benchmark reads them directly), these helpers
project their state into the registry's namespace, so exporters and the
CLI see one interface.  The engine calls :func:`absorb_engine` once per
run, after the run finishes; live quantities (queue depth) are
instrumented at the source instead.

Metric names produced here are part of the public surface — the table
in docs/api.md lists them all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.engine import KaleidoEngine
    from ..storage.meter import IOStats, MemoryMeter

__all__ = [
    "METRIC_REGISTRY",
    "absorb_io_stats",
    "absorb_memory_meter",
    "absorb_hasher",
    "absorb_engine",
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
    # queue — background writer instrumentation (live, at the source)
    "queue.depth",
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
    "storage.degradations",
    "storage.io_plan.part_entries",
    # checkpoint — recovery bookkeeping
    "checkpoint.written",
    "checkpoint.failures",
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


def absorb_hasher(
    registry: MetricsRegistry, hasher: object, prefix: str = "hasher"
) -> None:
    """Project a PatternHasher's cache statistics into ``hasher.*``."""
    hits = getattr(hasher, "hits", None)
    misses = getattr(hasher, "misses", None)
    if hits is None or misses is None:  # bliss-like baselines keep no stats
        return
    registry.counter(f"{prefix}.hits").inc(int(hits))
    registry.counter(f"{prefix}.misses").inc(int(misses))
    evictions = getattr(hasher, "evictions", None)
    if evictions is not None:
        registry.counter(f"{prefix}.evictions").inc(int(evictions))
    if hasattr(hasher, "__len__"):
        registry.gauge(f"{prefix}.cache_entries").set(len(hasher))  # type: ignore[arg-type]


def absorb_engine(registry: MetricsRegistry, engine: "KaleidoEngine") -> None:
    """Fold one engine's per-run measurement state into the registry.

    Idempotence is *not* promised: counters accumulate, so calling this
    after every run on a shared registry sums across runs (which is the
    useful reading for repeated-run benchmarks).
    """
    absorb_memory_meter(registry, engine.meter)
    absorb_hasher(registry, engine.hasher)
    if engine.io_stats is not None:
        absorb_io_stats(registry, engine.io_stats)
    policy = engine._policy
    registry.counter("storage.spilled_levels").inc(policy.spilled_levels)
    registry.counter("storage.demoted_levels").inc(policy.demoted_levels)
    registry.counter("storage.degradations").inc(len(policy.degradations))
    io_plan = getattr(policy, "last_io_plan", None)
    if io_plan is not None:
        registry.gauge("storage.io_plan.part_entries").set(io_plan.part_entries)
    registry.counter("checkpoint.written").inc(engine._checkpoints_written)
    registry.counter("checkpoint.failures").inc(engine._checkpoint_failures)
