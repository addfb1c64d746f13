"""The long-running mining service: admission → cache → route → execute.

:class:`MiningService` is the query tier's heart.  One instance owns

* one shared (bounded) :class:`~repro.core.eigenhash.PatternHasher`, so
  pattern fingerprints computed for any tenant warm the cache for all,
* the :class:`~repro.service.sessions.SessionPool` of warm engines,
* the :class:`~repro.service.cache.ResultCache` keyed on content
  identity, and
* the :class:`~repro.service.tenants.TenantRegistry` doing admission.

A query's life: admit (quota) → resolve graph → probe cache → route
→ execute → cache → answer.  A cache hit is GREEN, an approximate-mode
query YELLOW, and every other query runs RED under its effective budget
as the engine's ``max_embeddings`` guard.  When the planner predicts a
level above that guard, the run stops with
:class:`~repro.errors.PlanError` before building the level, and the
query degrades to YELLOW (an approximable app that allows it) or is
refused with :class:`~repro.errors.QueryRejectedError`.  The service
keeps no cost model of its own.  Each request gets
its own span track (``request-<id>``) in the service tracer, so
concurrent requests render as parallel tracks in the Chrome trace, and
per-tenant counters live under ``tenant.<name>.*`` in the shared
metrics registry.

Concurrency: :meth:`query` is safe to call from many threads at once
(that is the point); :meth:`submit` is a convenience that dispatches to
an internal request pool and returns a future.  A RED query's engine
runs its parts serially on the thread that serves the query (the
caller's, or a :meth:`submit` dispatcher thread): a part pool under the
request threads only added hand-offs and GIL contention.  So a session
engine cuts each level into one part by default: more parts on one
thread only repeat per-part work (an FSM part's fold setup, its
canonicalisation of the same raw codes, its hash call, and the merge).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from ..apps.approximate import approximate_motifs
from ..core.engine import KaleidoEngine
from ..core.eigenhash import PatternHasher
from ..errors import PlanError, QueryRejectedError, ServiceError
from ..graph import datasets
from ..graph.graph import Graph
from ..obs.metrics import MetricsRegistry, MetricsView
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .cache import CachedAnswer, CacheKey, ResultCache
from .request import APPROXIMABLE_APPS, QueryRequest, QueryResult, Route, build_app
from .sessions import SessionPool
from .tenants import TenantQuota, TenantRegistry

__all__ = ["MiningService"]


class MiningService:
    """Multi-tenant mining-as-a-service over shared warm state.

    Parameters
    ----------
    pool_workers:
        Accepted and ignored.  A RED query runs its engine's parts one
        after another on the thread that serves it, so cutting a level
        into more parts only adds per-part work; a session engine takes
        ``workers`` from ``engine_kwargs`` like any other engine option
        (default 1: one part per level).
    max_sessions_per_graph:
        How many engine sessions may exist per graph fingerprint — the
        per-graph concurrency ceiling for RED runs.
    cache_entries:
        LRU capacity of the result cache.
    default_quota:
        Admission quota for tenants without an explicit one.
    max_inflight:
        Worker threads in the request dispatcher behind :meth:`submit`.
    engine_kwargs:
        Extra keyword arguments applied to every session's engine
        (e.g. ``memory_limit_bytes``, ``spill_dir``).
    tracer / metrics:
        Shared observability sinks.  Per-request spans land on
        ``request-<id>`` tracks of this tracer; service-level counters
        (``service.*``, ``tenant.*``) land in this registry.  Each
        engine session keeps its *own* registry so engine-internal
        counters never double-count across tenants.
    sanitize:
        Run under the runtime sanitizers: the service's lock-bearing
        components (session pool, result cache, tenant registry, hasher)
        are wrapped by a :class:`repro.analysis.LockOrderSanitizer` that
        raises :class:`~repro.errors.LockOrderError` on lock-order
        inversions, and every session's engine runs with
        ``sanitize=True`` (the part-purity race detector).  Results are
        unchanged for well-behaved code.
    """

    def __init__(
        self,
        pool_workers: int | None = None,
        max_sessions_per_graph: int = 4,
        cache_entries: int = 256,
        default_quota: TenantQuota | None = None,
        max_inflight: int = 16,
        engine_kwargs: dict[str, Any] | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
        sanitize: bool = False,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sanitize = sanitize
        self._engine_kwargs = dict(engine_kwargs or {})
        self.hasher = PatternHasher()
        self.cache = ResultCache(cache_entries, metrics=self.metrics)
        self.tenants = TenantRegistry(default_quota, metrics=self.metrics)
        self.sessions = SessionPool(
            self._build_engine, max_sessions_per_graph, metrics=self.metrics
        )
        self._graphs: dict[tuple[str, str], Graph] = {}  # guarded-by: _graphs_lock
        self._graphs_lock = threading.Lock()
        #: Active lock-order sanitizer for the service's whole lifetime
        #: (unlike the engine's per-run scope): service locks interleave
        #: across requests, so ordering evidence must accumulate.
        self.lock_sanitizer = None
        if sanitize:
            from ..analysis.sanitizer import LockOrderSanitizer

            self.lock_sanitizer = LockOrderSanitizer()
            for holder in (self, self.hasher, self.cache, self.tenants, self.sessions):
                self.lock_sanitizer.instrument(holder)
        self._ids = itertools.count(1)
        self._dispatch = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="mining-service"
        )
        self._requests = self.metrics.counter("service.requests")
        self._completed = self.metrics.counter("service.completed")
        self._failed = self.metrics.counter("service.failed")
        self._latency = self.metrics.histogram("service.latency_seconds")
        #: The route that served each answer; a RED attempt that hit the
        #: guard counts only as yellow + degraded, or as rejected.
        self._routes = {
            route: self.metrics.counter(f"service.route.{route.value.lower()}")
            for route in Route
        }
        self._degraded = self.metrics.counter("service.route.degraded")
        self._rejected = self.metrics.counter("service.route.rejected")
        self._closed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_engine(self, graph: Graph) -> KaleidoEngine:
        kwargs: dict[str, Any] = {
            "hasher": self.hasher,
            "metrics": MetricsRegistry(),
            "sanitize": self.sanitize,
        }
        kwargs.update(self._engine_kwargs)
        return KaleidoEngine(graph, **kwargs)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self.tenants.set_quota(tenant, quota)

    def tenant_view(self, tenant: str) -> MetricsView:
        """The tenant's scoped slice of the service metrics."""
        return self.tenants.view(tenant)

    # ------------------------------------------------------------------
    # Graph resolution
    # ------------------------------------------------------------------
    def resolve_graph(self, request: QueryRequest) -> Graph:
        """The query's graph: its own, or the named dataset (cached)."""
        if request.graph is not None:
            return request.graph
        assert request.dataset is not None  # enforced by QueryRequest
        key = (request.dataset, request.profile)
        with self._graphs_lock:
            graph = self._graphs.get(key)
            if graph is None:
                graph = datasets.load(request.dataset, profile=request.profile)
                self._graphs[key] = graph
            return graph

    def invalidate_graph(self, graph: Graph | str) -> int:
        """Flush cached answers and warm sessions for a mutated graph.

        Accepts the graph object or a fingerprint string.  With
        content-keyed caching this is optional for correctness — new
        contents hash to new keys, and the session pool refuses to
        reuse a session whose graph mutated under it — but it reclaims
        stale state eagerly.  Passing the graph object flushes its
        *current* fingerprint plus every fingerprint the pool still
        holds sessions for under this exact object (i.e. the
        pre-mutation keys).  To reclaim pre-mutation cache entries when
        no warm session remembers them, capture ``graph.fingerprint()``
        before mutating and pass that string here.  Returns the number
        of cache entries dropped.
        """
        if isinstance(graph, str):
            fingerprints = {graph}
        else:
            fingerprints = {graph.fingerprint()}
            fingerprints.update(self.sessions.fingerprints_for(graph))
        dropped = 0
        for fingerprint in fingerprints:
            dropped += self.cache.invalidate_graph(fingerprint)
            self.sessions.drop_graph(fingerprint)
        return dropped

    # ------------------------------------------------------------------
    # The query path
    # ------------------------------------------------------------------
    def query(self, request: QueryRequest) -> QueryResult:
        """Serve one query synchronously.

        Raises :class:`~repro.errors.QuotaExceededError` at admission,
        :class:`~repro.errors.QueryRejectedError` when the engine's guard
        stops a query that cannot degrade, and whatever else the engine
        raises on RED runs.  Always releases the tenant slot, and always
        accounts the outcome.
        """
        if self._closed:
            raise ServiceError("service is closed")
        request_id = next(self._ids)
        self._requests.inc()
        start = time.perf_counter()
        self.tenants.admit(request.tenant)
        tenant_view = self.tenants.view(request.tenant)
        track = f"request-{request_id}"
        try:
            with self.tracer.track_span(
                "query",
                track,
                tenant=request.tenant,
                app=request.app,
                k=request.k,
            ) as span:
                result = self._serve(request, request_id, track)
                span.annotate(route=result.route.value, cache=result.cache_hit)
        except ServiceError:
            self._failed.inc()
            tenant_view.counter("failed").inc()
            raise
        except Exception:
            self._failed.inc()
            tenant_view.counter("failed").inc()
            raise  # engine/storage errors keep their type
        finally:
            self.tenants.release(request.tenant)
        elapsed = time.perf_counter() - start
        result.wall_seconds = elapsed
        self._completed.inc()
        self._routes[result.route].inc()
        self._latency.observe(elapsed)
        tenant_view.counter("completed").inc()
        tenant_view.counter(f"route.{result.route.value.lower()}").inc()
        tenant_view.histogram("latency_seconds").observe(elapsed)
        return result

    def submit(self, request: QueryRequest) -> "Future[QueryResult]":
        """Dispatch a query to the request pool; returns a future."""
        if self._closed:
            raise ServiceError("service is closed")
        return self._dispatch.submit(self.query, request)

    def _serve(self, request: QueryRequest, request_id: int, track: str) -> QueryResult:
        graph = self.resolve_graph(request)
        key: CacheKey = (
            graph.fingerprint(),
            request.app,
            request.k,
            request.cache_params(),
        )
        cached = self.cache.get(key)
        if cached is not None:
            return QueryResult(
                request_id=request_id,
                tenant=request.tenant,
                app=request.app,
                route=Route.GREEN,
                cache_hit=True,
                value=cached.value,
                pattern_map=dict(cached.pattern_map),
                wall_seconds=0.0,
                error_bars=dict(cached.error_bars) if cached.error_bars else None,
                extra={"origin_route": cached.route, "reason": "result-cache hit"},
            )
        if request.mode == "approximate":
            result = self._serve_yellow(
                request, request_id, graph, track, "approximate mode requested"
            )
        else:
            budget = request.budget
            effective = self.tenants.clamp_budget(
                request.tenant, budget.max_embeddings if budget is not None else None
            )
            try:
                result = self._serve_red(request, request_id, graph, effective, track)
            except PlanError as exc:
                allow = budget.allow_degraded if budget is not None else True
                if not (allow and request.app in APPROXIMABLE_APPS):
                    self._rejected.inc()
                    raise QueryRejectedError(
                        f"{exc}; the query cannot degrade "
                        f"(app {request.app!r}, allow_degraded={allow})"
                    ) from exc
                # A degraded answer is approximate but keyed by the
                # exact-mode request it degraded from; caching it would
                # serve sampling estimates as GREEN hits to later exact
                # queries — including tenants with a larger or no budget
                # ceiling.  A repeat runs to the guard and re-samples.
                result = self._serve_yellow(
                    request,
                    request_id,
                    graph,
                    track,
                    f"{exc}; degraded to sampling",
                    degraded=True,
                )
                self._degraded.inc()
                return result
        self.cache.put(
            key,
            CachedAnswer(
                value=result.value,
                pattern_map=dict(result.pattern_map),
                route=result.route.value,
                error_bars=dict(result.error_bars) if result.error_bars else None,
            ),
        )
        return result

    def _serve_yellow(
        self,
        request: QueryRequest,
        request_id: int,
        graph: Graph,
        track: str,
        reason: str,
        degraded: bool = False,
    ) -> QueryResult:
        samples = request.params.get("samples") or (
            request.budget.samples if request.budget is not None else 400
        )
        seed = request.params.get("seed", 0)
        with self.tracer.track_span("approximate", track, samples=samples):
            estimates = approximate_motifs(graph, request.k, samples, seed=seed)
        pattern_map = {h: est.estimate for h, est in estimates.items()}
        return QueryResult(
            request_id=request_id,
            tenant=request.tenant,
            app=request.app,
            route=Route.YELLOW,
            cache_hit=False,
            value=sum(pattern_map.values()),
            pattern_map=pattern_map,
            wall_seconds=0.0,
            error_bars={h: est.half_width for h, est in estimates.items()},
            extra={"reason": reason, "samples": samples, "degraded": degraded},
        )

    def _serve_red(
        self,
        request: QueryRequest,
        request_id: int,
        graph: Graph,
        effective_budget: int | None,
        track: str,
    ) -> QueryResult:
        app = build_app(request.app, request.k, request.params)
        with self.sessions.session(graph) as session:
            with self.tracer.track_span(
                "engine-run", track, app=request.app, runs=session.runs_completed
            ):
                mined = session.engine.run(app, max_embeddings=effective_budget)
        return QueryResult(
            request_id=request_id,
            tenant=request.tenant,
            app=request.app,
            route=Route.RED,
            cache_hit=False,
            value=mined.value,
            pattern_map=dict(mined.pattern_map),
            wall_seconds=0.0,
            extra={
                "reason": "full out-of-core run",
                "engine_wall_seconds": mined.wall_seconds,
                "peak_memory_bytes": mined.peak_memory_bytes,
                "session_runs": session.runs_completed,
            },
        )

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of service health."""
        return {
            "closed": self._closed,
            "sessions": len(self.sessions),
            "cache_entries": len(self.cache),
            "hasher_entries": len(self.hasher),
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        """Tear down the dispatcher and the sessions."""
        if self._closed:
            return
        self._closed = True
        self._dispatch.shutdown(wait=True)
        self.sessions.close()
        if self.lock_sanitizer is not None:
            self.lock_sanitizer.restore()
            self.lock_sanitizer = None

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
