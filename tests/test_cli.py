"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import from_edge_list, save_edge_list, save_labeled_adjacency


def test_datasets_command(capsys):
    assert main(["datasets", "--profile", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "citeseer" in out and "youtube" in out


def test_mine_tc_named_dataset(capsys):
    assert main(["mine", "tc", "--dataset", "citeseer", "--profile", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "TC" in out


def test_mine_json_output(capsys):
    assert main(
        ["mine", "clique", "-k", "3", "--dataset", "citeseer",
         "--profile", "tiny", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["app"] == "3-Clique"
    assert payload["value"] > 0
    assert payload["wall_seconds"] > 0


def test_mine_fsm_options(capsys):
    assert main(
        ["mine", "fsm", "--dataset", "citeseer", "--profile", "tiny",
         "--edges", "1", "--support", "3", "--exact-mni", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["app"] == "2-FSM(s=3)"


def test_mine_from_edge_file(tmp_path, capsys, paper_graph):
    path = tmp_path / "g.txt"
    save_edge_list(paper_graph, path)
    assert main(["mine", "tc", "--dataset", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3


def test_mine_from_adjacency_file(tmp_path, capsys):
    g = from_edge_list([(0, 1), (1, 2), (0, 2)], labels=[1, 2, 3])
    path = tmp_path / "g.adj"
    save_labeled_adjacency(g, path)
    assert main(
        ["mine", "tc", "--dataset", str(path), "--format", "adjacency", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1


def test_mine_spill_options(tmp_path, capsys):
    assert main(
        ["mine", "motif", "-k", "3", "--dataset", "citeseer", "--profile", "tiny",
         "--storage", "spill-last", "--spill-dir", str(tmp_path), "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["io_bytes_written"] > 0


def test_mine_io_plan_flags(tmp_path, capsys):
    # Part size is planned from the memory budget; there is no I/O knob.
    parser = build_parser()
    for flag in (["--prefetch-depth", "2"], ["--io-plan", "fixed"],
                 ["--queue-maxsize", "4"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["mine", "tc", "--dataset", "citeseer", *flag])
    capsys.readouterr()
    # End to end: a spilled run reports the plan it chose.
    assert main(
        ["mine", "motif", "-k", "3", "--dataset", "citeseer", "--profile", "tiny",
         "--storage", "spill-last", "--spill-dir", str(tmp_path), "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "io_mode" not in payload and "degradations" not in payload
    assert payload["io_plan"]["part_entries"] >= 1 << 12


def test_run_alias_with_trace_exports(tmp_path, capsys):
    trace = tmp_path / "t.json"
    jsonl = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.json"
    assert main(
        ["run", "motif", "-k", "3", "--dataset", "citeseer", "--profile", "tiny",
         "--workers", "2", "--trace-out", str(trace),
         "--trace-jsonl", str(jsonl), "--metrics-out", str(metrics), "--json"]
    ) == 0
    capsys.readouterr()

    payload = json.loads(trace.read_text())
    events = payload["traceEvents"]
    names = {e["name"] for e in events}
    assert {"run", "level", "plan", "execute", "aggregate", "part"} <= names
    worker_tracks = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["args"]["name"].startswith("worker-")
    }
    assert worker_tracks == {"worker-0", "worker-1"}

    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(lines) == len([e for e in events if e["ph"] != "M"])

    snap = json.loads(metrics.read_text())
    assert snap["hasher.hits"]["type"] == "counter"
    assert "mem.bytes" in snap


def test_mine_without_trace_flags_writes_nothing(tmp_path, capsys):
    assert main(
        ["mine", "tc", "--dataset", "citeseer", "--profile", "tiny", "--json"]
    ) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def test_generate_command(tmp_path, capsys):
    path = tmp_path / "gen.txt"
    assert main(
        ["generate", str(path), "--vertices", "50", "--edges", "120",
         "--labels", "3", "--seed", "9"]
    ) == 0
    assert path.exists()
    from repro.graph import load_edge_list

    g = load_edge_list(path)
    assert g.num_edges == 120


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["mine", "pagerank"])


def test_mine_rejects_processes_executor(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["mine", "tc", "--dataset", "citeseer", "--executor", "processes"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --executor: invalid choice: 'processes'" in err
    assert "'serial'" in err and "'threads'" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("mine", "--workers", "0"),
        ("mine", "--workers", "two"),
        ("mine", "--io-retries", "0"),
        ("mine", "--checkpoint-every", "0"),
        ("serve", "--workers", "0"),
        ("serve", "--sessions-per-graph", "0"),
        ("serve", "--cache-entries", "0"),
        ("serve", "--max-concurrent", "-1"),
    ],
)
def test_non_positive_counts_exit_2(command, flag, value, capsys):
    argv = ["mine", "tc", "--profile", "tiny"] if command == "mine" else ["serve"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["approx", "--profile", "tiny", "--samples", "0"],
         "argument --samples: must be a positive integer"),
        (["approx", "--profile", "tiny", "-k", "2"],
         "argument -k: must be an integer >= 3"),
        (["generate", "out.txt", "--vertices", "0"],
         "argument --vertices: must be an integer >= 2"),
        (["query", "tc", "--socket", "localhost"],
         "argument --socket: want HOST:PORT, got 'localhost'"),
    ],
    ids=["approx-samples", "approx-k", "generate-vertices", "socket-no-port"],
)
def test_invalid_inputs_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_stats_command(capsys):
    assert main(["stats", "--dataset", "citeseer", "--profile", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "triangles" in out and "power-law alpha" in out


def test_approx_command(capsys):
    assert main(
        ["approx", "--dataset", "citeseer", "--profile", "tiny",
         "-k", "3", "--samples", "200"]
    ) == 0
    out = capsys.readouterr().out
    assert "approximate 3-motif census" in out
    assert "[" in out  # confidence interval printed


def test_serve_stdin_round_trip(monkeypatch, capsys):
    import io
    import sys as _sys

    requests = [
        {"id": 1, "op": "ping"},
        {"id": 2, "app": "tc", "dataset": "citeseer", "profile": "tiny"},
        {"id": 3, "app": "tc", "dataset": "citeseer", "profile": "tiny"},
        {"id": 4, "op": "shutdown"},
    ]
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    monkeypatch.setattr(_sys, "stdin", stdin)
    assert main(["serve", "--workers", "1"]) == 0
    captured = capsys.readouterr()
    responses = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["id"] for r in responses] == [1, 2, 3, 4]
    assert responses[1]["cache"] == "miss" and responses[2]["cache"] == "hit"
    assert "served 4 requests" in captured.err


def test_serve_metrics_export(tmp_path, monkeypatch, capsys):
    import io
    import sys as _sys

    requests = [
        {"app": "tc", "dataset": "citeseer", "profile": "tiny"},
        {"op": "shutdown"},
    ]
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    monkeypatch.setattr(_sys, "stdin", stdin)
    metrics_path = tmp_path / "service_metrics.json"
    assert main(["serve", "--workers", "1", "--metrics-out", str(metrics_path)]) == 0
    capsys.readouterr()
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["service.requests"]["value"] == 1
    assert snapshot["service.route.red"]["value"] == 1


def test_query_command_against_socket_server(capsys):
    from repro.service import MiningService
    from repro.service.protocol import ServiceServer

    service = MiningService(pool_workers=1)
    server = ServiceServer(service, "127.0.0.1", 0)
    thread = server.serve_background()
    host, port = server.address
    try:
        rc = main(
            ["query", "tc", "--socket", f"{host}:{port}",
             "--dataset", "citeseer", "--profile", "tiny", "--tenant", "cli"]
        )
        payload = json.loads(capsys.readouterr().out)
    finally:
        server.stop()
        thread.join(timeout=10)
        service.close()
    assert rc == 0
    assert payload["status"] == "ok"
    assert payload["route"] == "RED" and payload["tenant"] == "cli"


def test_query_command_rejects_bad_param(capsys):
    assert main(
        ["query", "tc", "--socket", "127.0.0.1:1", "--param", "nonsense"]
    ) == 2
    assert "bad --param" in capsys.readouterr().err
