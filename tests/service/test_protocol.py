"""The JSON line protocol: stream handling, error shaping, TCP server."""

import io
import json

import pytest

from repro.apps import FrequentSubgraphMining
from repro.core.engine import KaleidoEngine
from repro.graph import datasets
from repro.service import MiningService, QueryRequest
from repro.service.protocol import (
    ServiceServer,
    handle_payload,
    parse_request,
    request_over_socket,
    serve_stream,
)


@pytest.fixture
def service():
    svc = MiningService(pool_workers=1)
    yield svc
    svc.close()


def run_lines(service, payloads):
    lines = [json.dumps(p) if isinstance(p, dict) else p for p in payloads]
    out = io.StringIO()
    served = serve_stream(service, iter(line + "\n" for line in lines), out)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    return served, responses


def test_parse_request_full_payload():
    request = parse_request(
        {
            "app": "motif",
            "k": 4,
            "dataset": "citeseer",
            "profile": "tiny",
            "tenant": "alice",
            "mode": "approximate",
            "params": {"seed": 7},
            "budget": {"max_embeddings": 10, "samples": 50},
        }
    )
    assert isinstance(request, QueryRequest)
    assert request.k == 4 and request.tenant == "alice"
    assert request.budget is not None and request.budget.samples == 50


def test_parse_request_requires_app():
    with pytest.raises(ValueError, match="'app'"):
        parse_request({"dataset": "citeseer"})


def test_query_round_trip_over_stream(service, paper_graph):
    # seed the service in process, then hit the cache over the wire
    service.query(QueryRequest(app="tc", graph=paper_graph))
    served, responses = run_lines(
        service,
        [
            {"id": 1, "op": "ping"},
            {"id": 2, "app": "tc", "dataset": "citeseer", "profile": "tiny"},
            {"id": 3, "app": "tc", "dataset": "citeseer", "profile": "tiny"},
        ],
    )
    assert served == 3
    ping, first, second = responses
    assert ping == {"id": 1, "op": "ping", "status": "ok"}
    assert first["status"] == "ok" and first["cache"] == "miss"
    assert second["cache"] == "hit" and second["route"] == "GREEN"
    assert second["patterns"] == first["patterns"]


def test_bad_json_yields_error_line_not_a_crash(service):
    served, responses = run_lines(service, ["{not json", '{"op": "ping"}'])
    assert served == 2
    assert responses[0]["status"] == "error"
    assert responses[1]["status"] == "ok"


def test_unknown_app_is_a_typed_error_response(service):
    _, responses = run_lines(
        service, [{"id": 9, "app": "pagerank", "dataset": "citeseer"}]
    )
    assert responses[0]["status"] == "error"
    assert responses[0]["error"] == "ValueError"
    assert responses[0]["id"] == 9


def test_quota_op_and_rejection_shape(service):
    _, responses = run_lines(
        service,
        [
            {"op": "quota", "tenant": "limited", "max_concurrent": 1},
        ],
    )
    assert responses[0]["status"] == "ok"
    service.tenants.admit("limited")
    response = handle_payload(
        service,
        {"app": "tc", "dataset": "citeseer", "profile": "tiny", "tenant": "limited"},
    )
    service.tenants.release("limited")
    assert response["status"] == "error"
    assert response["error"] == "QuotaExceededError"


@pytest.mark.parametrize("cap", ["x", -1, 0, True, 2.5])
def test_malformed_quota_is_rejected_and_tenant_keeps_working(service, cap):
    query = {"app": "tc", "dataset": "citeseer", "profile": "tiny", "tenant": "a"}
    _, responses = run_lines(
        service,
        [{"op": "quota", "tenant": "a", "max_embeddings": cap}, query],
    )
    assert responses[0]["status"] == "error"
    assert responses[0]["error"] == "ValueError"
    assert responses[1]["status"] == "ok"
    assert responses[1]["route"] == "RED"  # not degraded by a bogus ceiling


@pytest.mark.parametrize(
    "budget",
    [
        {"max_embeddings": -1},
        {"max_embeddings": "x"},
        {"samples": 0},
        {"samples": 2.7},
        {"samples": True},
    ],
)
def test_malformed_query_budget_is_a_value_error(service, budget):
    response = handle_payload(
        service,
        {"app": "tc", "dataset": "citeseer", "profile": "tiny", "budget": budget},
    )
    assert response["status"] == "error"
    assert response["error"] == "ValueError"


@pytest.mark.parametrize(
    "params", [{"samples": True}, {"samples": 2.7}, {"seed": -1}, {"seed": False}]
)
def test_malformed_sampling_params_are_a_value_error(service, params):
    response = handle_payload(
        service,
        {
            "app": "motif",
            "dataset": "citeseer",
            "profile": "tiny",
            "mode": "approximate",
            "params": params,
        },
    )
    assert response["status"] == "error"
    assert response["error"] == "ValueError"


def test_invalidate_op(service):
    payload = {"app": "tc", "dataset": "citeseer", "profile": "tiny"}
    handle_payload(service, payload)
    response = handle_payload(service, {**payload, "op": "invalidate"})
    assert response == {"status": "ok", "op": "invalidate", "dropped": 1}


def test_shutdown_stops_the_stream(service):
    served, responses = run_lines(
        service, [{"op": "shutdown"}, {"op": "ping"}]
    )
    assert served == 1
    assert responses[0]["op"] == "shutdown"


def test_stats_op_reports_metrics(service):
    _, responses = run_lines(service, [{"op": "stats"}])
    assert responses[0]["status"] == "ok"
    assert "service.requests" in responses[0]["stats"]["metrics"]


def test_tcp_server_round_trip(service):
    server = ServiceServer(service, "127.0.0.1", 0)
    thread = server.serve_background()
    host, port = server.address
    try:
        ping = request_over_socket(host, port, {"op": "ping"})
        assert ping["status"] == "ok"
        mined = request_over_socket(
            host, port, {"app": "tc", "dataset": "citeseer", "profile": "tiny"}
        )
        assert mined["status"] == "ok" and mined["route"] in ("RED", "GREEN")
    finally:
        server.stop()
        thread.join(timeout=10)


def test_fsm_answer_and_a_later_line_cross_the_wire(service):
    """An FSM answer's pattern map holds MNI views; the wire carries the
    frequent patterns' supports, and the stream goes on to serve the next
    line."""
    served, responses = run_lines(
        service,
        [
            {
                "op": "query",
                "app": "fsm",
                "dataset": "citeseer",
                "profile": "tiny",
                "k": 3,
                "params": {"support": 5},
            },
            {"op": "stats"},
        ],
    )
    assert served == 2
    answer, stats = responses
    assert answer["status"] == "ok" and stats["status"] == "ok"
    patterns = answer["patterns"]
    assert patterns
    assert all(isinstance(key, str) and int(key) >= 0 for key in patterns)
    assert all(type(support) is int and support >= 5 for support in patterns.values())
    solo = KaleidoEngine(datasets.load("citeseer", profile="tiny")).run(
        FrequentSubgraphMining(num_edges=2, support=5)  # "edges" defaults to 2
    )
    assert patterns == {str(h): s for h, s in solo.value.items()}
