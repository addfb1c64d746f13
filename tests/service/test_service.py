"""MiningService acceptance tests: parity, caching, quotas, budgets.

Every behavioural claim is asserted twice where the issue demands it —
once on the returned :class:`QueryResult` and once in the shared obs
metrics registry, which is the service's audit trail.
"""

import threading

import pytest

from repro.apps import MotifCounting, TriangleCounting
from repro.core.engine import KaleidoEngine
from repro.errors import QueryRejectedError, QuotaExceededError, ServiceError
from repro.graph import datasets
from repro.obs import MetricsRegistry, Tracer
from repro.service import (
    MiningService,
    QueryBudget,
    QueryRequest,
    Route,
    TenantQuota,
    build_app,
)


@pytest.fixture
def service():
    svc = MiningService(pool_workers=2, max_sessions_per_graph=2)
    yield svc
    svc.close()


def counter(svc, name):
    return svc.metrics.snapshot()[name]["value"]


# ----------------------------------------------------------------------
# Concurrency parity (the headline acceptance criterion)
# ----------------------------------------------------------------------
def test_eight_concurrent_queries_match_solo_run(small_random):
    solo = KaleidoEngine(small_random).run(MotifCounting(3))
    earlier_threads = set(threading.enumerate())
    svc = MiningService(pool_workers=4, max_sessions_per_graph=4)
    try:
        futures = [
            svc.submit(
                QueryRequest(app="motif", k=3, graph=small_random, tenant=f"t{i % 4}")
            )
            for i in range(8)
        ]
        results = [future.result(timeout=120) for future in futures]
        # each query ran its parts on its own dispatcher thread: the
        # open service started no part pool
        part_threads = [
            t.name
            for t in set(threading.enumerate()) - earlier_threads
            if t.name.startswith("kaleido-part")
        ]
    finally:
        svc.close()
    assert len(results) == 8
    for result in results:
        assert result.pattern_map == dict(solo.pattern_map)
    assert part_threads == []
    routes = {result.route for result in results}
    assert Route.RED in routes  # someone actually mined


#: Shared queries of the warm-then-concurrent script: exact tc, motif
#: and clique plus one approximate motif, which is cached per mode.
SHARED_QUERIES = (
    ("tc", {}, "exact"),
    ("motif", {}, "exact"),
    ("clique", {}, "exact"),
    ("motif", {"samples": 200, "seed": 7}, "approximate"),
)


def test_warm_then_concurrent_tenants_under_sanitizer():
    """One tenant warms the cache serially, then three tenants submit at
    once: each repeats the shared queries (deterministic GREEN hits) and
    runs one exclusive exact motif whose ``tag`` param busts the cache.
    The sanitized service answers exactly like a solo engine."""

    def request(app, params, mode, tenant):
        return QueryRequest(
            app=app, dataset="citeseer", profile="tiny", k=3,
            params=dict(params), tenant=tenant, mode=mode,
        )

    tenants = ("bob", "carol", "dave")
    measured = [request(*query, tenant) for tenant in tenants for query in SHARED_QUERIES]
    measured += [request("motif", {"tag": t}, "exact", t) for t in tenants]
    with MiningService(pool_workers=2, max_inflight=len(measured), sanitize=True) as svc:
        for query in SHARED_QUERIES:
            svc.query(request(*query, "alice"))
        results = [future.result(timeout=120) for future in map(svc.submit, measured)]
        hits = counter(svc, "service.cache.hits")
        misses = counter(svc, "service.cache.misses")
    assert (hits, misses) == (12, 7)  # 4 warm + 3 tagged misses
    assert sum(result.route is Route.GREEN for result in results) == hits

    with KaleidoEngine(datasets.load("citeseer", "tiny")) as engine:
        solo = {
            app: dict(engine.run(build_app(app, 3, {})).pattern_map)
            for app, _params, mode in SHARED_QUERIES
            if mode == "exact"
        }
    for req, result in zip(measured, results):
        if req.mode == "exact":
            assert result.pattern_map == solo[req.app], (req.tenant, req.app)


def test_concurrent_tenants_all_accounted(service, paper_graph):
    barrier = threading.Barrier(4)
    results = []

    def go(tenant):
        barrier.wait(timeout=30)
        results.append(
            service.query(QueryRequest(app="tc", graph=paper_graph, tenant=tenant))
        )

    threads = [
        threading.Thread(target=go, args=(f"tenant{i}",)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert len(results) == 4
    assert len({tuple(sorted(r.pattern_map.items())) for r in results}) == 1
    for i in range(4):
        assert counter(service, f"tenant.tenant{i}.completed") == 1
        assert service.metrics.snapshot()[f"tenant.tenant{i}.inflight"]["value"] == 0


# ----------------------------------------------------------------------
# Result cache: hit, miss, invalidation
# ----------------------------------------------------------------------
def test_repeat_query_is_a_recorded_cache_hit(service, paper_graph):
    request = QueryRequest(app="tc", graph=paper_graph)
    first = service.query(request)
    second = service.query(QueryRequest(app="tc", graph=paper_graph))
    assert first.route is Route.RED and not first.cache_hit
    assert second.route is Route.GREEN and second.cache_hit
    assert second.pattern_map == first.pattern_map
    assert counter(service, "service.cache.hits") == 1
    assert counter(service, "service.cache.misses") == 1
    # the hit was served without re-mining: still exactly one engine run
    assert counter(service, "service.route.red") == 1
    assert counter(service, "service.sessions.created") == 1


def test_mutating_the_graph_invalidates_the_cache(service, paper_graph):
    service.query(QueryRequest(app="tc", graph=paper_graph))
    old_fingerprint = paper_graph.fingerprint()
    paper_graph.labels[0] += 1
    paper_graph.invalidate_caches()
    assert paper_graph.fingerprint() != old_fingerprint
    again = service.query(QueryRequest(app="tc", graph=paper_graph))
    assert again.route is Route.RED and not again.cache_hit
    assert counter(service, "service.cache.misses") == 2
    assert counter(service, "service.cache.hits") == 0


def test_same_contents_hit_across_graph_objects(service, paper_graph):
    from repro.graph import from_edge_list

    edges = [(1, 2), (1, 5), (2, 5), (2, 3), (3, 4), (3, 5), (4, 5)]
    reloaded = from_edge_list(edges, name="paper-reloaded")
    service.query(QueryRequest(app="tc", graph=paper_graph))
    result = service.query(QueryRequest(app="tc", graph=reloaded))
    assert result.route is Route.GREEN and result.cache_hit


def test_explicit_invalidate_graph_flushes_entries(service, paper_graph):
    service.query(QueryRequest(app="tc", graph=paper_graph))
    assert service.invalidate_graph(paper_graph) == 1
    result = service.query(QueryRequest(app="tc", graph=paper_graph))
    assert result.route is Route.RED


def test_invalidate_graph_reclaims_pre_mutation_state(service, paper_graph):
    service.query(QueryRequest(app="tc", graph=paper_graph))
    old_fingerprint = paper_graph.fingerprint()
    paper_graph.labels[0] += 1
    paper_graph.invalidate_caches()
    assert paper_graph.fingerprint() != old_fingerprint
    # the old-fingerprint entry and session are found via the session
    # pool's graph-object identity, despite the fingerprint having moved
    assert service.invalidate_graph(paper_graph) == 1
    assert len(service.cache) == 0
    assert len(service.sessions) == 0


def test_invalidate_graph_accepts_a_fingerprint_string(service, paper_graph):
    old_fingerprint = paper_graph.fingerprint()
    service.query(QueryRequest(app="tc", graph=paper_graph))
    paper_graph.labels[0] += 1
    paper_graph.invalidate_caches()
    assert service.invalidate_graph(old_fingerprint) == 1
    assert len(service.cache) == 0


# ----------------------------------------------------------------------
# Quotas and budgets
# ----------------------------------------------------------------------
def test_quota_rejection_before_any_work(service, paper_graph):
    service.set_quota("busy", TenantQuota(max_concurrent=1))
    service.tenants.admit("busy")  # simulate one query already in flight
    try:
        with pytest.raises(QuotaExceededError, match="busy"):
            service.query(QueryRequest(app="tc", graph=paper_graph, tenant="busy"))
    finally:
        service.tenants.release("busy")
    assert counter(service, "tenant.busy.rejected") == 1
    # the refusal happened at admission: nothing was mined or cached
    assert counter(service, "service.cache.misses") == 0
    assert counter(service, "service.sessions.created") == 0
    # and the slot bookkeeping survived: the tenant can query again
    result = service.query(QueryRequest(app="tc", graph=paper_graph, tenant="busy"))
    assert result.route is Route.RED


def test_budget_exceeded_degrades_to_approximate(service, paper_graph):
    result = service.query(
        QueryRequest(
            app="motif",
            k=4,
            graph=paper_graph,
            budget=QueryBudget(max_embeddings=2, samples=50),
        )
    )
    assert result.route is Route.YELLOW
    assert result.extra["degraded"]
    assert result.error_bars is not None
    assert counter(service, "service.route.degraded") == 1


def test_degraded_answer_is_not_cached_under_the_exact_key(service, paper_graph):
    degraded = service.query(
        QueryRequest(
            app="motif",
            k=4,
            graph=paper_graph,
            budget=QueryBudget(max_embeddings=2, samples=50),
        )
    )
    assert degraded.route is Route.YELLOW
    assert degraded.extra["degraded"]
    # a later exact query with no budget must mine, never see the estimate
    exact = service.query(QueryRequest(app="motif", k=4, graph=paper_graph))
    assert exact.route is Route.RED and not exact.cache_hit
    assert exact.error_bars is None
    assert counter(service, "service.cache.hits") == 0


def test_tenant_ceiling_degrades_without_query_budget(service, paper_graph):
    service.set_quota("capped", TenantQuota(max_embeddings=2))
    result = service.query(
        QueryRequest(app="motif", k=4, graph=paper_graph, tenant="capped")
    )
    assert result.route is Route.YELLOW
    assert result.extra["degraded"]


def test_budget_rejection_releases_the_tenant_slot(service, paper_graph):
    with pytest.raises(QueryRejectedError):
        service.query(
            QueryRequest(
                app="clique",
                k=4,
                graph=paper_graph,
                tenant="strict",
                budget=QueryBudget(max_embeddings=1, allow_degraded=False),
            )
        )
    snap = service.metrics.snapshot()
    assert snap["tenant.strict.inflight"]["value"] == 0
    assert snap["tenant.strict.failed"]["value"] == 1
    assert counter(service, "service.failed") == 1


# ----------------------------------------------------------------------
# Routing paths end to end
# ----------------------------------------------------------------------
def test_approximate_mode_serves_yellow_with_error_bars(service, small_random):
    result = service.query(
        QueryRequest(
            app="motif",
            k=3,
            graph=small_random,
            mode="approximate",
            params={"samples": 60, "seed": 3},
        )
    )
    assert result.route is Route.YELLOW
    assert result.error_bars is not None and result.pattern_map
    assert counter(service, "service.route.yellow") == 1


def test_yellow_answers_are_cached_per_mode(service, small_random):
    request = dict(app="motif", k=3, graph=small_random, mode="approximate")
    first = service.query(QueryRequest(**request))
    second = service.query(QueryRequest(**request))
    assert second.route is Route.GREEN
    assert second.pattern_map == first.pattern_map
    # an exact query for the same app/k must NOT see the approximate answer
    exact = service.query(QueryRequest(app="motif", k=3, graph=small_random))
    assert exact.route is Route.RED


def test_warm_session_is_reused_across_runs(service, paper_graph):
    service.query(QueryRequest(app="tc", graph=paper_graph))
    service.query(QueryRequest(app="motif", k=3, graph=paper_graph))
    assert counter(service, "service.sessions.created") == 1
    assert counter(service, "service.sessions.reused") == 1


def test_warm_session_answers_release_spill_parts_and_report_own_peak(tmp_path):
    """One warm spill-last session serves FSM, then 3-motif: neither
    answer leaves spill parts behind, and the motif answer reports its
    own peak, not the FSM run's."""
    graph = datasets.load("citeseer", "tiny")
    svc = MiningService(
        pool_workers=1,
        engine_kwargs={"storage_mode": "spill-last", "spill_dir": str(tmp_path)},
    )
    try:
        fsm = svc.query(
            QueryRequest(app="fsm", graph=graph, params={"edges": 3, "support": 2})
        )
        assert list(tmp_path.glob("*.npy")) == []
        motif = svc.query(QueryRequest(app="motif", k=3, graph=graph))
        assert list(tmp_path.glob("*.npy")) == []
    finally:
        svc.close()
    assert fsm.route is Route.RED and motif.route is Route.RED
    assert motif.extra["session_runs"] == 2
    assert motif.extra["peak_memory_bytes"] < fsm.extra["peak_memory_bytes"]


# ----------------------------------------------------------------------
# Observability and lifecycle
# ----------------------------------------------------------------------
def test_each_request_gets_its_own_span_track(paper_graph):
    tracer = Tracer()
    svc = MiningService(pool_workers=1, tracer=tracer, metrics=MetricsRegistry())
    try:
        svc.query(QueryRequest(app="tc", graph=paper_graph, tenant="alice"))
        svc.query(QueryRequest(app="tc", graph=paper_graph, tenant="bob"))
    finally:
        svc.close()
    spans = [e for e in tracer.events if e.kind == "complete" and e.name == "query"]
    assert [span.track for span in spans] == ["request-1", "request-2"]
    assert spans[0].args["tenant"] == "alice"
    assert spans[0].args["route"] == "RED"
    assert spans[1].args["route"] == "GREEN"
    engine_spans = [e for e in tracer.events if e.name == "engine-run"]
    assert [e.track for e in engine_spans] == ["request-1"]


def test_stats_snapshot_shape(service, paper_graph):
    service.query(QueryRequest(app="tc", graph=paper_graph))
    stats = service.stats()
    assert stats["sessions"] == 1
    assert stats["cache_entries"] == 1
    assert "service.requests" in stats["metrics"]


def test_closed_service_refuses_queries(paper_graph):
    svc = MiningService(pool_workers=1)
    svc.close()
    with pytest.raises(ServiceError, match="closed"):
        svc.query(QueryRequest(app="tc", graph=paper_graph))
    svc.close()  # idempotent


def test_dataset_queries_resolve_and_cache_the_graph():
    svc = MiningService(pool_workers=1)
    try:
        first = svc.query(
            QueryRequest(app="tc", dataset="citeseer", profile="tiny")
        )
        second = svc.query(
            QueryRequest(app="tc", dataset="citeseer", profile="tiny")
        )
    finally:
        svc.close()
    assert first.route is Route.RED
    assert second.route is Route.GREEN


def test_red_run_result_matches_direct_engine(paper_graph):
    svc = MiningService(pool_workers=2)
    try:
        result = svc.query(QueryRequest(app="tc", graph=paper_graph))
    finally:
        svc.close()
    solo = KaleidoEngine(paper_graph).run(TriangleCounting())
    assert result.pattern_map == dict(solo.pattern_map)
    assert result.value == solo.value
