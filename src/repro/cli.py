"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``mine`` (alias ``run``)
    Run one of the four mining applications over a named dataset or an
    edge-list file, with optional workers / memory budget / spill dir.
    ``--trace-out`` / ``--trace-jsonl`` / ``--metrics-out`` export the
    run's trace and metrics (Chrome ``trace_event`` JSON, flat JSONL,
    metrics snapshot).
``datasets``
    Print the dataset registry (paper stats vs generated stand-ins).
``generate``
    Write a synthetic graph to an edge-list file.
``serve`` / ``query``
    The mining service front end: ``serve`` runs the multi-tenant query
    tier over line-delimited JSON (stdin/stdout by default, or a TCP
    socket with ``--socket HOST:PORT``); ``query`` is the one-shot
    client for a socket-mode service.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable

from .apps import (
    ApproximateMotifCounting,
    CliqueDiscovery,
    FrequentSubgraphMining,
    MotifCounting,
    TriangleCounting,
)
from .core.engine import KaleidoEngine
from .core.executor import EXECUTOR_CHOICES
from .errors import GraphConstructionError
from .obs import Tracer, write_chrome_trace, write_jsonl
from .storage.retry import RetryPolicy
from .graph import (
    PAPER_STATS,
    Graph,
    chung_lu,
    dataset_names,
    load,
    load_auto,
    load_edge_list,
    load_labeled_adjacency,
    save_edge_list,
)

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=`` for integers with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            want = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _megabytes(text: str) -> float:
    """argparse ``type=`` for a memory budget in MB of at least one byte."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and int(value * 1e6) >= 1):
        raise argparse.ArgumentTypeError(
            f"must be a finite size of at least one byte, got {text!r}"
        )
    return value


def _host_port(spec: str) -> tuple[str, int]:
    """argparse ``type=`` for ``HOST:PORT``; an empty host means 127.0.0.1."""
    host, _, port = spec.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"want HOST:PORT, got {spec!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kaleido reproduction: out-of-core graph mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", aliases=["run"], help="run a mining application")
    mine.add_argument(
        "app", choices=["tc", "motif", "clique", "fsm"], help="application"
    )
    mine.add_argument(
        "--dataset", default="citeseer", help="registry name or file path"
    )
    mine.add_argument("--profile", default="bench", help="dataset profile")
    mine.add_argument("--format", default="auto", choices=["auto", "edges", "adjacency"])
    mine.add_argument("-k", type=int, default=3, help="motif/clique size")
    mine.add_argument("--edges", type=int, default=2, help="FSM pattern edges")
    mine.add_argument("--support", type=int, default=5, help="FSM MNI support")
    mine.add_argument("--exact-mni", action="store_true", help="exact MNI counting")
    mine.add_argument("--workers", type=_positive_int, default=1)
    mine.add_argument(
        "--executor",
        default="serial",
        choices=list(EXECUTOR_CHOICES),
        help="part executor: 'serial' (parts one after another, default) or "
        "'threads' (real thread pool of --workers threads)",
    )
    mine.add_argument("--memory-limit-mb", type=_megabytes, default=None)
    mine.add_argument("--spill-dir", default=None)
    mine.add_argument(
        "--storage", default="auto", choices=["auto", "memory", "spill-last"]
    )
    mine.add_argument("--no-prediction", action="store_true")
    mine.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write an atomic per-level checkpoint here after each iteration",
    )
    mine.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=1,
        help="checkpoint every N exploration iterations (default 1)",
    )
    mine.add_argument(
        "--resume",
        action="store_true",
        help="resume from the deepest valid checkpoint in --checkpoint-dir",
    )
    mine.add_argument(
        "--io-retries",
        type=_positive_int,
        default=4,
        help="total attempts for transient storage faults (default 4; "
        "1 disables retrying)",
    )
    mine.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the part-purity sanitizer: any shared-state write "
        "during per-part execution raises PartPurityError",
    )
    mine.add_argument("--json", action="store_true", help="machine-readable output")
    mine.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace_event JSON trace here "
        "(load in chrome://tracing or https://ui.perfetto.dev)",
    )
    mine.add_argument(
        "--trace-jsonl",
        default=None,
        help="write the raw trace events as one JSON object per line",
    )
    mine.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics registry snapshot as JSON",
    )

    ds = sub.add_parser("datasets", help="list the dataset registry")
    ds.add_argument("--profile", default="bench")

    gen = sub.add_parser("generate", help="write a synthetic power-law graph")
    gen.add_argument("path", help="output edge-list path")
    gen.add_argument("--vertices", type=_int_at_least(2), default=1000)
    gen.add_argument("--edges", type=_int_at_least(0), default=5000)
    gen.add_argument("--labels", type=_positive_int, default=1)
    gen.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser("stats", help="print statistics of a graph")
    stats.add_argument("--dataset", default="citeseer")
    stats.add_argument("--profile", default="bench")
    stats.add_argument("--format", default="auto", choices=["auto", "edges", "adjacency"])

    approx = sub.add_parser(
        "approx", help="sampling-based approximate motif counting"
    )
    approx.add_argument("--dataset", default="citeseer")
    approx.add_argument("--profile", default="bench")
    approx.add_argument("--format", default="auto", choices=["auto", "edges", "adjacency"])
    approx.add_argument("-k", type=_int_at_least(3), default=3)
    approx.add_argument("--samples", type=_positive_int, default=1000)
    approx.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the mining service (line-delimited JSON over stdin or TCP)",
    )
    serve.add_argument(
        "--sessions-per-graph",
        type=_positive_int,
        default=4,
        help="max warm engine sessions per graph fingerprint",
    )
    serve.add_argument(
        "--cache-entries", type=_positive_int, default=256, help="result-cache LRU capacity"
    )
    serve.add_argument(
        "--max-concurrent",
        type=_positive_int,
        default=4,
        help="default per-tenant concurrent-query quota",
    )
    serve.add_argument(
        "--socket",
        type=_host_port,
        default=None,
        metavar="HOST:PORT",
        help="listen on TCP instead of stdin/stdout (port 0 picks a free port)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        help="write the per-request span tracks as a Chrome trace on exit",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        help="write the service metrics snapshot as JSON on exit",
    )
    serve.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the runtime sanitizers: lock-order checking on the "
        "service's locks plus the part-purity race detector in every "
        "engine session",
    )

    query = sub.add_parser(
        "query", help="send one query to a running 'repro serve --socket' service"
    )
    query.add_argument("app", choices=["tc", "motif", "clique", "fsm"])
    query.add_argument("--socket", type=_host_port, required=True, metavar="HOST:PORT")
    query.add_argument("--dataset", default="citeseer")
    query.add_argument("--profile", default="bench")
    query.add_argument("-k", type=int, default=3)
    query.add_argument("--tenant", default="default")
    query.add_argument(
        "--mode", default="exact", choices=["exact", "approximate"]
    )
    query.add_argument("--max-embeddings", type=int, default=None)
    query.add_argument("--samples", type=int, default=None)
    query.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="app parameter (repeatable), e.g. --param support=5",
    )
    return parser


def _load_graph(args: argparse.Namespace):
    if args.dataset in dataset_names():
        return load(args.dataset, args.profile)
    if args.format == "adjacency":
        return load_labeled_adjacency(args.dataset)
    if args.format == "edges":
        return load_edge_list(args.dataset)
    return load_auto(args.dataset)


def _make_app(args: argparse.Namespace):
    if args.app == "tc":
        return TriangleCounting()
    if args.app == "motif":
        return MotifCounting(args.k)
    if args.app == "clique":
        return CliqueDiscovery(args.k)
    return FrequentSubgraphMining(
        num_edges=args.edges, support=args.support, exact_mni=args.exact_mni
    )


def _cmd_mine(args: argparse.Namespace, app) -> int:
    graph = _load_graph(args)
    limit = (
        None if args.memory_limit_mb is None else int(args.memory_limit_mb * 1e6)
    )
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    wants_trace = args.trace_out or args.trace_jsonl or args.metrics_out
    tracer = Tracer() if wants_trace else None
    with KaleidoEngine(
        graph,
        workers=args.workers,
        memory_limit_bytes=limit,
        storage_mode=args.storage,
        spill_dir=args.spill_dir,
        use_prediction=not args.no_prediction,
        executor=args.executor,
        io_retry=RetryPolicy(attempts=args.io_retries),
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        tracer=tracer,
        sanitize=args.sanitize,
    ) as engine:
        result = engine.run(app, resume=args.resume)
    if args.trace_out:
        write_chrome_trace(args.trace_out, engine.tracer)
    if args.trace_jsonl:
        write_jsonl(args.trace_jsonl, engine.tracer)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(engine.metrics.snapshot(), handle, indent=2)
            handle.write("\n")
    if args.json:
        payload = {
            "app": result.app_name,
            "graph": graph.name,
            "executor": result.extra.get("executor"),
            "wall_seconds": result.wall_seconds,
            "peak_memory_bytes": result.peak_memory_bytes,
            "level_sizes": result.level_sizes,
            "io_bytes_read": result.io_bytes_read,
            "io_bytes_written": result.io_bytes_written,
            "io_retries": result.extra.get("io_retries"),
            "io_failed_deletes": result.extra.get("io_failed_deletes"),
            "io_plan": result.extra.get("io_plan"),
            "resumed_from_level": result.extra.get("resumed_from_level"),
            "checkpoints_written": result.extra.get("checkpoints_written"),
            "value": _value_payload(result.value),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{graph}")
        print(result.summary())
        print(f"result: {_value_payload(result.value)}")
    return 0


def _value_payload(value):
    if isinstance(value, dict):
        return {str(k): v for k, v in sorted(value.items())}
    if hasattr(value, "count"):
        return value.count
    return value


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'name':<10} {'paper |V|':>12} {'paper |E|':>12} "
          f"{'ours |V|':>9} {'ours |E|':>9} {'labels':>7}")
    for name in dataset_names():
        paper = PAPER_STATS[name]
        graph = load(name, args.profile)
        print(
            f"{name:<10} {paper['vertices']:>12,} {paper['edges']:>12,} "
            f"{graph.num_vertices:>9,} {graph.num_edges:>9,} "
            f"{graph.num_labels:>7}"
        )
    return 0


def _cmd_generate(args: argparse.Namespace, graph: Graph) -> int:
    save_edge_list(graph, args.path)
    print(f"wrote {graph} to {args.path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .graph import compute_stats

    graph = _load_graph(args)
    print(graph)
    for metric, value in compute_stats(graph).rows():
        print(f"  {metric:<24} {value}")
    return 0


def _cmd_approx(args: argparse.Namespace, census: ApproximateMotifCounting) -> int:
    graph = _load_graph(args)
    estimates = census.run(graph)
    print(f"{graph}")
    print(f"approximate {args.k}-motif census ({args.samples} samples):")
    for phash, est in sorted(estimates.items(), key=lambda kv: -kv[1].estimate):
        print(
            f"  {phash:>20}  {est.estimate:14.1f}  "
            f"[{est.low:.1f}, {est.high:.1f}]"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry, write_chrome_trace
    from .service import MiningService, ServiceServer, serve_stream
    from .service.tenants import TenantQuota

    wants_obs = args.trace_out or args.metrics_out
    tracer = Tracer() if args.trace_out else None
    service = MiningService(
        max_sessions_per_graph=args.sessions_per_graph,
        cache_entries=args.cache_entries,
        default_quota=TenantQuota(max_concurrent=args.max_concurrent),
        tracer=tracer,
        metrics=MetricsRegistry() if wants_obs else None,
        sanitize=args.sanitize,
    )
    try:
        if args.socket is not None:
            host, port = args.socket
            server = ServiceServer(service, host, port)
            bound_host, bound_port = server.address
            print(f"serving on {bound_host}:{bound_port}", file=sys.stderr)
            sys.stderr.flush()
            try:
                server.serve_forever()
            except KeyboardInterrupt:  # pragma: no cover - interactive
                pass
            finally:
                server.stop()
        else:
            served = serve_stream(service, sys.stdin, sys.stdout)
            print(f"served {served} requests", file=sys.stderr)
    finally:
        service.close()
        if args.trace_out:
            write_chrome_trace(args.trace_out, service.tracer)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(service.metrics.snapshot(), handle, indent=2)
                handle.write("\n")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .service.protocol import request_over_socket

    params: dict[str, object] = {}
    for item in args.param:
        key, _, raw = item.partition("=")
        if not key or not raw:
            print(f"bad --param {item!r} (want KEY=VALUE)", file=sys.stderr)
            return 2
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    payload: dict[str, object] = {
        "op": "query",
        "app": args.app,
        "k": args.k,
        "dataset": args.dataset,
        "profile": args.profile,
        "tenant": args.tenant,
        "mode": args.mode,
        "params": params,
    }
    budget: dict[str, object] = {}
    if args.max_embeddings is not None:
        budget["max_embeddings"] = args.max_embeddings
    if args.samples is not None:
        budget["samples"] = args.samples
    if budget:
        payload["budget"] = budget
    host, port = args.socket
    response = request_over_socket(host, port, payload)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("status") == "ok" else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("mine", "run"):
        try:  # the app validates its own parameters (-k, --edges, --support)
            app = _make_app(args)
        except ValueError as exc:
            parser.error(str(exc))
        return _cmd_mine(args, app)
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "generate":
        try:  # the generator checks the sizes against each other
            graph = chung_lu(args.vertices, args.edges, seed=args.seed, num_labels=args.labels)
        except GraphConstructionError as exc:
            parser.error(str(exc))
        return _cmd_generate(args, graph)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "approx":
        try:  # the census validates its own parameters (-k)
            census = ApproximateMotifCounting(args.k, args.samples, seed=args.seed)
        except ValueError as exc:
            parser.error(str(exc))
        return _cmd_approx(args, census)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
