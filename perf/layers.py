"""Per-layer attribution, measured from outside the program.

A traced op hands the engine its own public observers — a ``Tracer``, a
``MetricsRegistry`` and a timing subclass of ``PatternHasher`` — and
runs inside :class:`Probes`, which puts timing wrappers around the
public entry points of the layers the tracer does not cover
(``expand_*_level``, ``Planner.plan_level``, the applications' ``reduce``
and ``prune``).  Nothing under ``src/`` is edited; the wrappers are
installed for the traced op only and removed after it, so the untraced
ops that give the end-to-end metrics never see them.

``LAYER_METRICS`` is the per-layer schema; ``BENCHMARK.json`` lists the
same names and the harness test holds the two together.
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.core.engine as engine_module
from repro import MiningApplication, PatternHasher
from repro.core.pattern import Pattern, triangle_index
from repro.core.plan import Planner
from repro.service import Route

#: (name, unit, better).  Timings are seconds per op unless the unit says
#: otherwise; counts are per op.  A layer a workload does not exercise
#: reports 0.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("graph.build_s", "s", "lower"),
    ("graph.views_s", "s", "lower"),
    ("graph.edge_index_s", "s", "lower"),
    ("graph.nbytes", "B", "lower"),
    ("plan.busy_s", "s", "lower"),
    ("plan.calls", "count", "lower"),
    ("plan.parts", "count", "lower"),
    ("plan.predict_err", "ratio", "lower"),
    ("explore.busy_s", "s", "lower"),
    ("explore.levels", "count", "lower"),
    ("explore.emitted", "count", "lower"),
    ("explore.candidates", "count", "lower"),
    ("explore.useful_ratio", "ratio", "higher"),
    ("explore.ns_per_candidate", "ns", "lower"),
    ("cse.decode_s", "s", "lower"),
    ("cse.ns_per_embedding", "ns", "lower"),
    ("cse.level_mb", "MB", "lower"),
    ("apps.map_s", "s", "lower"),
    ("apps.mapped", "count", "lower"),
    ("apps.us_per_embedding", "us", "lower"),
    ("apps.reduce_s", "s", "lower"),
    ("apps.prune_s", "s", "lower"),
    ("apps.patterns", "count", "lower"),
    ("eigenhash.calls", "count", "lower"),
    ("eigenhash.busy_s", "s", "lower"),
    ("eigenhash.hit_ratio", "ratio", "higher"),
    ("eigenhash.us_per_miss", "us", "lower"),
    ("eigenhash.probe_us", "us", "lower"),
    ("executor.parts", "count", "lower"),
    ("executor.busy_s", "s", "lower"),
    ("executor.span_s", "s", "lower"),
    ("executor.utilization", "ratio", "higher"),
    ("executor.overhead_s", "s", "lower"),
    ("executor.threads_over_serial", "ratio", "lower"),
    ("storage.bytes_written", "B", "lower"),
    ("storage.bytes_read", "B", "lower"),
    ("storage.io_mb", "MB", "lower"),
    ("storage.write_s", "s", "lower"),
    ("storage.read_s", "s", "lower"),
    ("storage.read_mb_per_s", "MB/s", "higher"),
    ("storage.parts_written", "count", "lower"),
    ("storage.prefetch_hit_ratio", "ratio", "higher"),
    ("storage.retries", "count", "lower"),
    ("storage.spilled_levels", "count", "lower"),
    ("storage.write_amp", "ratio", "lower"),
    ("storage.io_over_bound", "ratio", "lower"),
    ("storage.rss_over_accounted", "ratio", "lower"),
    ("service.requests", "count", "higher"),
    ("service.hit_ratio", "ratio", "higher"),
    ("service.green_p50_ms", "ms", "lower"),
    ("service.green_p99_ms", "ms", "lower"),
    ("service.red_p50_ms", "ms", "lower"),
    ("service.red_p90_ms", "ms", "lower"),
    ("service.yellow_p50_ms", "ms", "lower"),
    ("service.invalidate_ms", "ms", "lower"),
    ("service.sessions_created", "count", "lower"),
    ("service.tax_ratio", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.spans", "count", "lower"),
)

#: Metrics that are counts of work, not measurements of time: two runs of
#: a serial workload on the same inputs must report them identically.
COUNT_METRICS = frozenset(
    name for name, unit, _ in LAYER_METRICS if unit in ("count", "B")
) - {"executor.parts"}  # the threaded engine's part count follows its pool


class TimingHasher(PatternHasher):
    """``PatternHasher`` that also times every ``hash_pattern`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.busy_s = 0.0
        self.miss_s = 0.0
        self._probe_lock = threading.Lock()

    def hash_pattern(self, pattern: Pattern) -> int:
        misses = self.misses
        started = time.perf_counter()
        value = super().hash_pattern(pattern)
        elapsed = time.perf_counter() - started
        with self._probe_lock:
            self.calls += 1
            self.busy_s += elapsed
            if self.misses != misses:
                self.miss_s += elapsed
        return value

    def stats(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "busy_s": self.busy_s,
            "miss_s": self.miss_s,
            "hits": self.hits,
            "misses": self.misses,
        }


def _app_classes_defining(method: str) -> list[type]:
    """``MiningApplication`` and every loaded subclass with its own ``method``."""
    found, todo = [], [MiningApplication]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if method in cls.__dict__:
            found.append(cls)
    return found


class Probes:
    """Timing wrappers around layer entry points, active inside ``with``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.plans: list[tuple[float, int]] = []  # (seconds, parts)
        #: (seconds, emitted, candidates examined, planner's prediction)
        self.expansions: list[tuple[float, int, int, int]] = []
        self.reduce_s = 0.0
        self.prune_s = 0.0

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "Probes":
        probes = self

        def timed_expand(original):
            def expand(*args, **kwargs):
                started = time.perf_counter()
                stats = original(*args, **kwargs)
                elapsed = time.perf_counter() - started
                predicted = getattr(probes._local, "predicted", 0)
                with probes._lock:
                    probes.expansions.append(
                        (elapsed, stats.emitted, stats.candidates_examined, predicted)
                    )
                return stats

            return expand

        def plan_level(planner, ctx, cse, _original=Planner.plan_level):
            started = time.perf_counter()
            plan = _original(planner, ctx, cse)
            elapsed = time.perf_counter() - started
            probes._local.predicted = plan.predicted_entries
            with probes._lock:
                probes.plans.append((elapsed, plan.num_parts))
            return plan

        def timed_method(original, field_name):
            def method(app, *args, **kwargs):
                started = time.perf_counter()
                try:
                    return original(app, *args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    with probes._lock:
                        setattr(probes, field_name, getattr(probes, field_name) + elapsed)

            return method

        for name in ("expand_vertex_level", "expand_edge_level"):
            self._patch(engine_module, name, timed_expand(getattr(engine_module, name)))
        self._patch(Planner, "plan_level", plan_level)
        for method, field_name in (("reduce", "reduce_s"), ("prune", "prune_s")):
            for cls in _app_classes_defining(method):
                self._patch(cls, method, timed_method(cls.__dict__[method], field_name))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float
    track: Any
    parent: int | None
    args: dict
    children: list[int] = field(default_factory=list)
    self_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def build_spans(events) -> list[Span]:
    """Spans with parents and self times from a tracer's event list.

    Stack spans nest per thread; a ``complete`` span names its parent,
    and is attached to the latest open-or-closed stack span of that name
    whose interval holds its start.  Self time is the span minus the part
    of its interval its children cover (children may overlap)."""
    spans: list[Span] = []
    stacks: dict[Any, list[int]] = {}
    completes = []
    for event in events:
        if event.kind == "begin":
            stack = stacks.setdefault(event.track, [])
            parent = stack[-1] if stack else None
            spans.append(Span(event.name, event.ts, event.ts, event.track, parent, dict(event.args)))
            stack.append(len(spans) - 1)
        elif event.kind == "end":
            spans[stacks[event.track].pop()].end = event.ts
        elif event.kind == "complete":
            completes.append(event)
    stack_spans = len(spans)
    for event in completes:
        parent = None
        if event.parent is not None:
            for index in range(stack_spans - 1, -1, -1):
                candidate = spans[index]
                if (
                    candidate.name == event.parent
                    and candidate.start <= event.ts <= candidate.end
                ):
                    parent = index
                    break
        spans.append(
            Span(event.name, event.ts, event.ts + event.dur, event.track, parent, dict(event.args))
        )
    for index, span in enumerate(spans):
        if span.parent is not None:
            spans[span.parent].children.append(index)
    for span in spans:
        covered, cursor = 0.0, span.start
        for start, end in sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in span.children
        ):
            if end > cursor:
                covered += end - max(start, cursor)
                cursor = end
        span.self_s = span.seconds - covered
    return spans


def _total(spans: list[Span], name: str, parent: str | None = None, self_time: bool = False) -> float:
    return sum(
        span.self_s if self_time else span.seconds
        for span in spans
        if span.name == name
        and (parent is None or (span.parent is not None and spans[span.parent].name == parent))
    )


# ----------------------------------------------------------------------
# One traced op → its layer numbers
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def silvestri_bound_bytes(num_edges: int, k: int, memory_entries: float, itemsize: int) -> float:
    """Computed, not measured: Silvestri's I/O bound for enumerating
    k-vertex subgraphs, ``E^(k/2) / M^(k/2-1)`` entries moved, and never
    less than one scan of the edge list."""
    enumerate_entries = num_edges ** (k / 2) / max(1.0, memory_entries) ** (k / 2 - 1)
    return itemsize * max(2.0 * num_edges, enumerate_entries)


def op_layers(op, events, counters: dict[str, float], hasher: dict[str, float], probes: Probes, graph) -> dict[str, Any]:
    """Layer numbers of one traced op.

    ``counters`` holds this op's registry deltas (counter values and
    histogram totals by name), ``hasher`` the timing hasher's deltas."""
    spans = build_spans(events)
    out: dict[str, Any] = {"_spans": spans, "_peak": op.peak_accounted_bytes}
    out["obs.spans"] = len(spans)

    out["plan.busy_s"] = sum(seconds for seconds, _ in probes.plans)
    out["plan.calls"] = len(probes.plans)
    out["plan.parts"] = sum(parts for _, parts in probes.plans)
    emitted = sum(e for _, e, _, _ in probes.expansions)
    candidates = sum(c for _, _, c, _ in probes.expansions)
    out["plan.predict_err"] = _ratio(
        sum(abs(p - e) for _, e, _, p in probes.expansions), emitted
    )
    explore_busy = sum(s for s, _, _, _ in probes.expansions)
    out["explore.busy_s"] = explore_busy
    out["explore.levels"] = len(probes.expansions)
    out["explore.emitted"] = emitted
    out["explore.candidates"] = candidates
    out["explore.useful_ratio"] = _ratio(emitted, candidates)
    out["explore.ns_per_candidate"] = _ratio(explore_busy * 1e9, candidates)

    map_s = _total(spans, "part", parent="aggregate")
    mapped = sum(span.args.get("size", 0) for span in spans if span.name == "aggregate")
    aggregate_self = _total(spans, "aggregate", self_time=True)
    decode_s = max(0.0, aggregate_self - probes.reduce_s)
    out["apps.map_s"] = map_s
    out["apps.mapped"] = mapped
    out["apps.us_per_embedding"] = _ratio(map_s * 1e6, mapped)
    out["apps.reduce_s"] = probes.reduce_s
    out["apps.prune_s"] = probes.prune_s
    out["apps.patterns"] = sum(len(m.pattern_map) for m in op.mined) + sum(
        len(a.pattern_map) for a in op.answers if a.route is Route.RED
    )
    out["cse.decode_s"] = decode_s
    out["cse.ns_per_embedding"] = _ratio(decode_s * 1e9, mapped)
    out["cse.level_mb"] = sum(
        m.memory_snapshot.get("cse", 0) + m.io_bytes_written for m in op.mined
    ) / 1e6

    out["eigenhash.calls"] = hasher["calls"]
    out["eigenhash.busy_s"] = hasher["busy_s"]
    out["eigenhash.hit_ratio"] = _ratio(hasher["hits"], hasher["hits"] + hasher["misses"])
    out["eigenhash.us_per_miss"] = _ratio(hasher["miss_s"] * 1e6, hasher["misses"])

    parts = [span for span in spans if span.name == "part"]
    busy = sum(span.seconds for span in parts)
    schedules = [s for m in op.mined for s in m.schedules]
    span_s = sum(s.span_seconds for s in schedules)
    capacity = sum(s.span_seconds * s.num_workers for s in schedules)
    stage_wall = _total(spans, "execute") + _total(spans, "aggregate")
    out["executor.parts"] = len(parts)
    out["executor.busy_s"] = busy
    out["executor.span_s"] = span_s
    out["executor.utilization"] = _ratio(sum(s.busy_seconds for s in schedules), capacity)
    out["executor.overhead_s"] = max(0.0, stage_wall - span_s - probes.reduce_s) if schedules else 0.0

    written = counters.get("io.bytes_written", 0)
    read = counters.get("io.bytes_read", 0)
    read_s = counters.get("io.read_seconds", 0.0)
    hits = sum(1 for e in events if e.kind == "instant" and e.name == "prefetch-hit")
    misses = sum(1 for e in events if e.kind == "instant" and e.name == "prefetch-miss")
    out["storage.bytes_written"] = written
    out["storage.bytes_read"] = read
    out["storage.io_mb"] = (written + read) / 1e6
    out["storage.write_s"] = counters.get("io.write_seconds", 0.0)
    out["storage.read_s"] = read_s
    out["storage.read_mb_per_s"] = _ratio(read / 1e6, read_s)
    out["storage.parts_written"] = counters.get("queue.parts_written", 0)
    out["storage.prefetch_hit_ratio"] = _ratio(hits, hits + misses)
    out["storage.retries"] = counters.get("io.retries", 0)
    out["storage.spilled_levels"] = counters.get("storage.spilled_levels", 0)
    spilled_bytes, bound = 0.0, 0.0
    for mined in op.mined:
        count = mined.extra.get("spilled_levels", 0)
        if count:
            itemsize = graph.id_dtype.itemsize
            spilled_bytes += itemsize * sum(mined.level_sizes[-count:])
            bound += silvestri_bound_bytes(
                graph.num_edges,
                len(mined.level_sizes),
                mined.peak_memory_bytes / itemsize,
                itemsize,
            )
    out["storage.write_amp"] = _ratio(written, spilled_bytes)
    out["storage.io_over_bound"] = _ratio(written + read, bound)

    if op.answers:
        by_route: dict[Route, list[float]] = {route: [] for route in Route}
        for answer in op.answers:
            by_route[answer.route].append(answer.wall_seconds * 1e3)
        out["_latency_ms"] = by_route
        out["service.requests"] = op.attempted
        out["service.hit_ratio"] = _ratio(
            counters.get("service.cache.hits", 0),
            counters.get("service.cache.hits", 0) + counters.get("service.cache.misses", 0),
        )
        out["service.invalidate_ms"] = op.invalidate_seconds * 1e3
        out["service.sessions_created"] = counters.get("service.sessions.created", 0)
    return out


def registry_totals(registry) -> dict[str, float]:
    """Counter values and histogram totals by name (gauges are levels,
    not sums, and are left out)."""
    totals: dict[str, float] = {}
    for name, snap in registry.snapshot().items():
        if snap["type"] == "counter":
            totals[name] = snap["value"]
        elif snap["type"] == "histogram":
            totals[name] = snap["total"]
    return totals


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


# ----------------------------------------------------------------------
# Folding the traced ops of one run
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fold(per_op: list[dict[str, Any]]) -> dict[str, float]:
    """Median per metric over the traced ops; service latencies are
    pooled over every traced pass before their percentiles are taken."""
    folded = {name: 0.0 for name, _, _ in LAYER_METRICS}
    for name in folded:
        values = [op[name] for op in per_op if name in op]
        if values:
            folded[name] = statistics.median(values)
    pooled: dict[Route, list[float]] = {route: [] for route in Route}
    for op in per_op:
        for route, values in op.get("_latency_ms", {}).items():
            pooled[route].extend(values)
    folded["service.green_p50_ms"] = percentile(pooled[Route.GREEN], 0.50)
    folded["service.green_p99_ms"] = percentile(pooled[Route.GREEN], 0.99)
    folded["service.red_p50_ms"] = percentile(pooled[Route.RED], 0.50)
    folded["service.red_p90_ms"] = percentile(pooled[Route.RED], 0.90)
    folded["service.yellow_p50_ms"] = percentile(pooled[Route.YELLOW], 0.50)
    return folded


def eigenhash_probe_us(seed: int, patterns: int = 2000) -> float:
    """Mean microseconds per ``hash_pattern`` on a fresh hasher over a
    seeded corpus of connected labelled patterns, k = 3..6."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(patterns):
        k = int(rng.integers(3, 7))
        bits = 0
        for j in range(1, k):  # a random spanning tree keeps it connected
            bits |= 1 << triangle_index(int(rng.integers(0, j)), j, k)
        for cell in range(k * (k - 1) // 2):
            if rng.random() < 0.3:
                bits |= 1 << cell
        corpus.append(Pattern(tuple(int(x) for x in rng.integers(0, 4, size=k)), bits))
    hasher = PatternHasher()
    started = time.perf_counter()
    for pattern in corpus:
        hasher.hash_pattern(pattern)
    return (time.perf_counter() - started) * 1e6 / len(corpus)


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [
        {
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "self_s": span.self_s,
            "track": str(span.track),
            "parent": span.parent,
            "args": {k: v for k, v in span.args.items() if isinstance(v, (int, float, str, bool))},
        }
        for span in spans
    ]


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_ops(workload, session, inputs, scratch, seed, seconds, min_ops, check):
    """Alternate untraced and traced ops for ``seconds``.

    Returns the per-layer metrics (plus ``_spans``, the last traced op's
    span list) and the op-time samples.  Tracing overhead is the ratio of
    the traced and untraced medians, taken from the same alternation so a
    slow phase of the box hits both sides."""
    from repro import MetricsRegistry, Tracer

    probes = Probes()
    is_service = workload.kind == "service"
    threaded = workload.engine_kwargs.get("executor") == "threads"
    observed = None
    if is_service:
        # The service takes its observers at construction, so traced
        # passes run on a second, observed service over the same inputs.
        tracer, registry, hasher = Tracer(), MetricsRegistry(), TimingHasher()
        observed = workload.setup(
            inputs, scratch, tracer=tracer, metrics=registry, hasher=hasher
        )
    plain, traced, serial, per_op = [], [], [], []
    try:
        if observed is not None:
            check(observed.run_op())
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(traced) < min_ops:
            started = time.perf_counter()
            check(session.run_op())
            plain.append(time.perf_counter() - started)
            if threaded:
                started = time.perf_counter()
                check(session.run_op(executor="serial", workers=1))
                serial.append(time.perf_counter() - started)

            if not is_service:
                tracer, registry, hasher = Tracer(), MetricsRegistry(), TimingHasher()
            mark = len(tracer)
            totals_before = registry_totals(registry)
            hasher_before = hasher.stats()
            probes.reset()
            started = time.perf_counter()
            with probes:
                if is_service:
                    op = observed.run_op()
                else:
                    op = session.run_op(tracer=tracer, metrics=registry, hasher=hasher)
            traced.append(time.perf_counter() - started)
            per_op.append(
                op_layers(
                    check(op),
                    tracer.events[mark:],
                    delta(registry_totals(registry), totals_before),
                    delta(hasher.stats(), hasher_before),
                    probes,
                    session.graph,
                )
            )
        metrics = fold(per_op)
        if is_service:
            solo = statistics.median(observed.solo_seconds() for _ in range(3))
            red_s = sum(sum(op["_latency_ms"][Route.RED]) for op in per_op) / len(per_op) / 1e3
            metrics["service.tax_ratio"] = red_s / solo - 1
    finally:
        if observed is not None:
            observed.close()
    metrics["obs.trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    if serial:
        metrics["executor.threads_over_serial"] = statistics.median(plain) / statistics.median(serial)
    metrics["eigenhash.probe_us"] = eigenhash_probe_us(seed)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    metrics["storage.rss_over_accounted"] = rss / max(op["_peak"] for op in per_op)
    metrics["_spans"] = spans_to_json(per_op[-1]["_spans"])
    return metrics, {"traced_op_s": traced, "untraced_op_s": plain}
