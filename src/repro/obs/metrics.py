"""Named counters, gauges and histograms behind one registry.

Before this layer existed every measured quantity lived in its own
ad-hoc structure — ``IOStats`` fields, ``MemoryMeter`` snapshots, the
``PatternHasher`` hit/miss pair, per-queue depth prints in benchmark
scripts.  The :class:`MetricsRegistry` gives them one namespace and one
snapshot format so exporters, the CLI and the benchmarks read a single
interface (the bridge helpers in :mod:`repro.obs.bridge` fold the
existing structures in).

Three instrument kinds:

* :class:`Counter` — monotonically non-decreasing event count; ``inc``
  rejects negative deltas so a counter can never go backwards.
* :class:`Gauge` — last-written level (queue depth, current bytes);
  merging keeps the maximum, which is the only associative choice that
  preserves the "worst level seen" reading across partial registries.
* :class:`Histogram` — count/total/min/max summary of observed values
  (part durations, write latencies); constant space, associative merge.

All instruments are thread-safe (executor pool threads and the
engine thread both record), and ``merge`` is associative
and commutative instrument-by-instrument — the property tests in
``tests/property/test_obs_property.py`` hold the registry to that.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsView"]


class Counter:
    """A monotonically non-decreasing event count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter increments must be non-negative, got {delta}")
        with self._lock:
            self._value += delta

    @property
    def value(self) -> int:
        return self._value

    def merge(self, other: "Counter") -> None:
        self.inc(other.value)

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A last-written level, remembering the peak it ever reached."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._peak = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._peak:
                self._peak = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            if self._value > self._peak:
                self._peak = self._value

    @property
    def value(self) -> float:
        return self._value

    @property
    def peak(self) -> float:
        return self._peak

    def merge(self, other: "Gauge") -> None:
        """Keep the maxima — the associative reading across partials."""
        with self._lock:
            self._value = max(self._value, other.value)
            self._peak = max(self._peak, other.peak)

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value, "peak": self.peak}


class Histogram:
    """Constant-space summary (count/total/min/max) of observed values."""

    kind = "histogram"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        with self._lock:
            self.count += other.count
            self.total += other.total
            if other.min is not None:
                self.min = other.min if self.min is None else min(self.min, other.min)
            if other.max is not None:
                self.max = other.max if self.max is None else max(self.max, other.max)

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted paths (``io.bytes_written``, ``queue.parts_written``,
    ``hasher.hits`` — see docs/api.md for the full table).  Asking for an
    existing name with a different instrument kind raises, so one metric
    can never silently be two things.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls()
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} is a {instrument.kind}, not a {cls.kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Name → instrument snapshot, sorted by name (JSON-friendly)."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: inst.snapshot() for name, inst in sorted(items)}

    def view(self, prefix: str) -> "MetricsView":
        """A prefix-scoped view of this registry.

        ``registry.view("tenant.acme").counter("queries")`` reads and
        writes the same instrument as
        ``registry.counter("tenant.acme.queries")`` — the view holds no
        instruments of its own, it only namespaces names.  This is how
        the service tier keeps per-tenant metrics isolated without a
        registry per tenant (one snapshot still shows everything).
        """
        if not prefix:
            raise ValueError("view prefix must be non-empty")
        return MetricsView(self, prefix)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in, instrument by instrument.

        Unknown names are created; same-name instruments must be of the
        same kind.  Counter and histogram merges add, gauge merges keep
        the maximum — each is associative and commutative, so merging
        per-worker registries in any grouping yields the same totals.
        """
        with other._lock:
            items = list(other._instruments.items())
        for name, instrument in items:
            mine = self._get_or_create(name, type(instrument))
            mine.merge(instrument)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


class MetricsView:
    """A dotted-prefix window onto a :class:`MetricsRegistry`.

    Every instrument accessor prepends the view's prefix, so code handed
    a view cannot write outside its namespace — the service gives each
    tenant's accounting a ``tenant.<name>`` view and the shared registry
    stays the single source of truth.  Views nest (``view("a").view("b")``
    is ``view("a.b")``) and snapshot only their own subtree.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._name(name))

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(self._name(name))

    def view(self, prefix: str) -> "MetricsView":
        return self._registry.view(self._name(prefix))

    def names(self) -> list[str]:
        """Fully qualified names under this view's prefix."""
        marker = self.prefix + "."
        return [name for name in self._registry.names() if name.startswith(marker)]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """This subtree's snapshot, keyed *relative* to the prefix."""
        marker = self.prefix + "."
        return {
            name[len(marker):]: snap
            for name, snap in self._registry.snapshot().items()
            if name.startswith(marker)
        }
