"""QueryRequest validation, cache params and result serialization."""

import pytest

from repro.service import QueryBudget, QueryRequest, QueryResult, Route, build_app
from repro.apps import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    MotifCounting,
    TriangleCounting,
)


def test_request_validates_app():
    with pytest.raises(ValueError, match="unknown app"):
        QueryRequest(app="pagerank", dataset="citeseer")


def test_request_validates_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        QueryRequest(app="tc", dataset="citeseer", mode="turbo")


def test_approximate_only_for_approximable_apps():
    with pytest.raises(ValueError, match="no approximate mode"):
        QueryRequest(app="tc", dataset="citeseer", mode="approximate")
    QueryRequest(app="motif", dataset="citeseer", mode="approximate")


def test_request_needs_a_graph_or_dataset():
    with pytest.raises(ValueError, match="dataset name or a graph"):
        QueryRequest(app="tc")


@pytest.mark.parametrize(
    "params, match",
    [
        ({"samples": True}, "samples"),
        ({"samples": 2.7}, "samples"),
        ({"samples": 0}, "samples"),
        ({"samples": "40"}, "samples"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "3"}, "seed"),
    ],
)
def test_request_validates_sampling_params(params, match):
    with pytest.raises(ValueError, match=match):
        QueryRequest(app="motif", dataset="x", mode="approximate", params=params)


def test_request_accepts_sampling_params():
    QueryRequest(
        app="motif", dataset="x", mode="approximate", params={"samples": 1, "seed": 0}
    )


def test_cache_params_canonical_and_mode_aware():
    a = QueryRequest(app="fsm", dataset="x", params={"support": 5, "edges": 2})
    b = QueryRequest(app="fsm", dataset="x", params={"edges": 2, "support": 5})
    assert a.cache_params() == b.cache_params()
    exact = QueryRequest(app="motif", dataset="x")
    approx = QueryRequest(app="motif", dataset="x", mode="approximate")
    assert exact.cache_params() != approx.cache_params()


def test_cache_params_fold_in_sample_budget():
    small = QueryRequest(
        app="motif", dataset="x", mode="approximate", budget=QueryBudget(samples=100)
    )
    large = QueryRequest(
        app="motif", dataset="x", mode="approximate", budget=QueryBudget(samples=900)
    )
    assert small.cache_params() != large.cache_params()


def test_budget_json_round_trip():
    budget = QueryBudget(max_embeddings=123, allow_degraded=False, samples=77)
    assert QueryBudget.from_json(budget.to_json()) == budget


def test_build_app_constructs_each_application():
    assert isinstance(build_app("tc", 3, {}), TriangleCounting)
    assert isinstance(build_app("motif", 4, {}), MotifCounting)
    assert isinstance(build_app("clique", 4, {}), CliqueDiscovery)
    fsm = build_app("fsm", 3, {"edges": 3, "support": 2})
    assert isinstance(fsm, FrequentSubgraphMining)


def test_result_to_json_sorts_patterns():
    result = QueryResult(
        request_id=7,
        tenant="alice",
        app="motif",
        route=Route.RED,
        cache_hit=False,
        value=3,
        pattern_map={9: 1, 2: 2},
        wall_seconds=0.5,
    )
    payload = result.to_json()
    assert payload["status"] == "ok"
    assert payload["route"] == "RED"
    assert list(payload["patterns"]) == ["2", "9"]
