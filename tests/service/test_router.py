"""Routing: GREEN / YELLOW / RED, degradation and rejection, end to end.

The service keeps no cost model of its own.  A cache hit is GREEN, an
approximate-mode query YELLOW, and every other query runs RED under its
effective budget as the engine's ``max_embeddings`` guard.  When the
planner predicts a level above the guard, the query degrades to YELLOW
(motif counting, ``allow_degraded``) or is refused.

The routing differential draws a small random labelled graph × tc,
clique / motif with k 3–4, FSM with 2–3 edges × a budget (none, or one
either side of one of the planner's per-level predictions, on the query
or as the tenant's ceiling) × ``allow_degraded``.  The service must
answer RED with the solo run's value iff a solo
``KaleidoEngine.run(max_embeddings=budget)`` completes; otherwise the
answer is YELLOW and degraded (motif, allowed) or a
:class:`QueryRejectedError` chained from the engine's ``PlanError``.
The example budget comes from the hypothesis profile in
``tests/conftest.py``: ``tier1`` by default, ``deep`` with
``--hypothesis-profile=deep``.
"""

from unittest.mock import patch

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro.core.engine import KaleidoEngine
from repro.core.plan import Planner
from repro.errors import PlanError, QueryRejectedError
from repro.graph import from_edge_list
from repro.service import (
    MiningService,
    QueryBudget,
    QueryRequest,
    Route,
    TenantQuota,
    build_app,
)

ROUTES = ("service.route.green", "service.route.yellow", "service.route.red")


@pytest.fixture
def service():
    svc = MiningService()
    yield svc
    svc.close()


def counters(svc):
    return {
        name: entry["value"]
        for name, entry in svc.metrics.snapshot().items()
        if name.startswith("service.") and "value" in entry
    }


def assert_routes_account_for_answers(svc):
    snap = counters(svc)
    assert sum(snap[name] for name in ROUTES) == snap["service.completed"]


# ----------------------------------------------------------------------
# The routes one by one
# ----------------------------------------------------------------------
def test_cached_queries_route_green(service, paper_graph):
    first = service.query(QueryRequest(app="tc", graph=paper_graph))
    again = service.query(QueryRequest(app="tc", graph=paper_graph))
    assert first.route is Route.RED
    assert again.route is Route.GREEN and again.cache_hit
    assert again.extra == {"origin_route": "RED", "reason": "result-cache hit"}
    assert counters(service)["service.route.green"] == 1
    assert_routes_account_for_answers(service)


def test_approximate_mode_routes_yellow(service, paper_graph):
    request = QueryRequest(
        app="motif", graph=paper_graph, mode="approximate", params={"samples": 20}
    )
    result = service.query(request)
    assert result.route is Route.YELLOW
    assert not result.extra["degraded"]
    assert result.extra["reason"] == "approximate mode requested"


def test_within_budget_routes_red(service, paper_graph):
    request = QueryRequest(
        app="tc", graph=paper_graph, budget=QueryBudget(max_embeddings=10**9)
    )
    result = service.query(request)
    assert result.route is Route.RED
    assert "estimated_embeddings" not in result.extra
    assert counters(service)["service.route.red"] == 1


def test_over_budget_approximable_degrades_to_yellow(service, paper_graph):
    request = QueryRequest(
        app="motif",
        k=4,
        graph=paper_graph,
        budget=QueryBudget(max_embeddings=1, samples=20),
    )
    result = service.query(request)
    assert result.route is Route.YELLOW
    assert result.extra["degraded"]
    assert "predicted at" in result.extra["reason"]
    snap = counters(service)
    assert snap["service.route.degraded"] == snap["service.route.yellow"] == 1
    assert snap["service.route.red"] == 0  # the guarded attempt is not a RED answer


def test_over_budget_without_degradation_is_rejected(service, paper_graph):
    request = QueryRequest(
        app="clique",
        k=4,
        graph=paper_graph,
        budget=QueryBudget(max_embeddings=1),
    )
    with pytest.raises(QueryRejectedError, match="cannot degrade") as refused:
        service.query(request)
    assert isinstance(refused.value.__cause__, PlanError)
    assert "predicted at" in str(refused.value)
    request = QueryRequest(
        app="motif",
        k=4,
        graph=paper_graph,
        budget=QueryBudget(max_embeddings=1, allow_degraded=False),
    )
    with pytest.raises(QueryRejectedError, match="allow_degraded=False"):
        service.query(request)
    snap = counters(service)
    assert snap["service.route.rejected"] == 2
    assert sum(snap[name] for name in ROUTES) == 0


# ----------------------------------------------------------------------
# The routing differential
# ----------------------------------------------------------------------
@st.composite
def queries(draw):
    app = draw(st.sampled_from(("tc", "clique", "motif", "fsm")))
    n = draw(st.integers(min_value=4, max_value=8))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=3, max_size=14, unique=True)
    )
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = 3 if app in ("tc", "fsm") else draw(st.integers(3, 4))
    params = {"edges": draw(st.integers(2, 3)), "support": 2} if app == "fsm" else {}
    return {
        "graph": from_edge_list(edges, labels=labels, name="route"),
        "app": app,
        "k": k,
        "params": params,
        "allow_degraded": draw(st.booleans()),
        "on_tenant": draw(st.booleans()),
    }


def unguarded_run(case):
    """A solo run without a guard, and every level's predicted size."""
    seen: list[int] = []
    plan_level = Planner.plan_level

    def recording(self, ctx, cse):
        plan = plan_level(self, ctx, cse)
        seen.append(plan.predicted_entries)
        return plan

    with patch.object(Planner, "plan_level", recording):
        with KaleidoEngine(case["graph"]) as engine:
            return engine.run(build_app(case["app"], case["k"], case["params"])), seen


def solo_run(case, budget):
    """The solo run under ``budget``, or None if the guard stopped it."""
    with KaleidoEngine(case["graph"]) as engine:
        try:
            return engine.run(
                build_app(case["app"], case["k"], case["params"]),
                max_embeddings=budget,
            )
        except PlanError:
            return None


@given(case=queries(), data=st.data())
def test_service_routes_as_the_solo_guard_decides(case, data):
    unguarded, predicted = unguarded_run(case)
    near = sorted({max(1, p + d) for p in predicted for d in (-1, 0)})
    budget = data.draw(st.sampled_from([*near, None]), label="budget")
    solo = unguarded if budget is None else solo_run(case, budget)
    assert (solo is not None) == (budget is None or max(predicted) <= budget)

    if solo is not None:
        expected = "red"
    elif case["app"] == "motif" and case["allow_degraded"]:
        expected = "degraded"
    else:
        expected = "rejected"
    event(expected)

    svc = MiningService()
    try:
        query_budget = QueryBudget(allow_degraded=case["allow_degraded"], samples=20)
        if case["on_tenant"]:
            svc.set_quota("t", TenantQuota(max_embeddings=budget))
        else:
            query_budget = QueryBudget(
                max_embeddings=budget,
                allow_degraded=case["allow_degraded"],
                samples=20,
            )
        request = QueryRequest(
            app=case["app"],
            k=case["k"],
            params=case["params"],
            graph=case["graph"],
            tenant="t",
            budget=query_budget,
        )
        # Ask twice: only an exact answer is cached and comes back GREEN.
        for attempt in range(2):
            if expected == "rejected":
                with pytest.raises(QueryRejectedError) as refused:
                    svc.query(request)
                assert isinstance(refused.value.__cause__, PlanError)
                continue
            result = svc.query(request)
            if expected == "red":
                assert result.route is (Route.RED if attempt == 0 else Route.GREEN)
                assert result.value == solo.value
                assert result.pattern_map == dict(solo.pattern_map)
            else:
                assert result.route is Route.YELLOW and result.extra["degraded"]
                assert "predicted at" in result.extra["reason"]
        snap = counters(svc)
        assert sum(snap[name] for name in ROUTES) == snap["service.completed"]
        assert snap["service.route.degraded"] == (2 if expected == "degraded" else 0)
        assert snap["service.route.rejected"] == (2 if expected == "rejected" else 0)
    finally:
        svc.close()
