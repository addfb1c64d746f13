#!/usr/bin/env python
"""Expansion-kernel benchmark: scalar vs vectorized, spilled executor parity.

Times the exploration hot path both ways on the synthetic CiteSeer/MiCo
stand-ins:

* **kernel micro-bench** — expand one full CSE level per dataset through
  the scalar per-embedding loop (tuple decode + ``expand_vertex_part``)
  and through the vectorized block kernel (``decode_block`` +
  ``expand_block``, canonical bounds fused into the gather), plus the
  edge-induced analogue, and report the speedup.  The emitted
  ``(vert, counts)`` are asserted bit-identical first — a fast wrong
  kernel must fail the benchmark, not win it; the kernel legitimately
  examines fewer candidates, and both counts are recorded.  A
  **filtered-clique** row does the same for a 4-clique level, whose plan
  carries a pattern gather: the scalar loop post-filtering its canonical
  survivors for all-adjacency vs the kernel gathering one shortest tail
  per row and probing the other columns.
* **spilled executor parity** — one spilled 3-motif engine run under
  the serial executor and the real thread pool, reporting wall seconds
  for each and failing if their pattern maps differ.
* **hasher hit rate** — the EigenHash cache hit rate of an FSM run (the
  per-embedding hashing workload) must stay high — the raw-structure
  front cache exists exactly for this — and is recorded in the output.

Writes ``BENCH_kernels.json`` and exits nonzero if the vectorized kernel
is slower than the scalar loop on the smoke workload (the CI guard), if
kernel/scalar or serial/threads outputs differ, or if the hasher hit
rate collapses.

Usage::

    PYTHONPATH=src python scripts/bench_kernels.py [--quick] [--out BENCH_kernels.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MotifCounting,
)
from repro.core import kernels  # noqa: E402
from repro.core.cse import CSE  # noqa: E402
from repro.core.explore import (  # noqa: E402
    expand_edge_level,
    expand_edge_part,
    expand_vertex_level,
    expand_vertex_part,
)
from repro.core.plan import Planner  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.graph.edge_index import EdgeIndex  # noqa: E402


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _bench_level(name: str, ctx, cse, scalar, repeats: int, pattern_gather=None) -> dict:
    """Time ``scalar()`` against the kernel on the CSE's top level and
    check they emit the same ``(vert, counts)``."""
    size = cse.size()

    def kernel():
        return kernels.expand_block(
            ctx, cse.decode_block(0, size), pattern_gather=pattern_gather
        )

    scalar_s, ref = _best_of(scalar, repeats)
    kernel_s, (vert, counts, examined) = _best_of(kernel, repeats)
    if not (np.array_equal(vert, ref.vert) and np.array_equal(counts, ref.counts)):
        raise RuntimeError(f"{ctx.kind} kernel output differs from scalar on {name}")
    return {
        "embeddings": size,
        "emitted": int(ref.emitted),
        "scalar_seconds": scalar_s,
        "kernel_seconds": kernel_s,
        "speedup": scalar_s / kernel_s if kernel_s > 0 else float("inf"),
        "examined_scalar": int(ref.candidates_examined),
        "examined_kernel": int(examined),
    }


def bench_vertex_kernel(graph, depth: int, repeats: int) -> dict:
    """Scalar vs vectorized expansion of one vertex-induced level."""
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(depth):
        expand_vertex_level(graph, cse)
    adjacency = graph.adjacency_sets()  # pre-warmed for the scalar path

    def scalar():
        embeddings = [emb for _, emb in cse.iter_embeddings()]
        return expand_vertex_part(graph, adjacency, embeddings, (0, cse.size()), 0)

    return _bench_level(
        graph.name, kernels.vertex_kernel_context(graph), cse, scalar, repeats
    )


def bench_filtered_clique(graph, repeats: int) -> dict:
    """Scalar+post-filter vs the kernel's gather-and-probe growing
    triangles into 4-cliques."""
    gathers = Planner(graph, policy=None).pattern_gathers(CliqueDiscovery(4))
    cse = CSE(np.arange(graph.num_vertices, dtype=np.int32))
    for _ in range(2):
        expand_vertex_level(graph, cse, pattern_gather=gathers[cse.depth])
    gather = gathers[cse.depth]
    adjacency = graph.adjacency_sets()

    def scalar():
        embeddings = [emb for _, emb in cse.iter_embeddings()]
        return expand_vertex_part(
            graph, adjacency, embeddings, (0, cse.size()), 0, pattern_gather=gather
        )

    return _bench_level(
        graph.name, kernels.vertex_kernel_context(graph), cse, scalar, repeats, gather
    )


def bench_edge_kernel(graph, repeats: int) -> dict:
    """Scalar vs vectorized expansion of one edge-induced level."""
    index = EdgeIndex(graph)
    cse = CSE(np.arange(index.num_edges, dtype=np.int32))
    expand_edge_level(graph, index, cse)
    eu, ev = index.endpoint_lists()
    incident = index.incident_lists()

    def scalar():
        embeddings = [emb for _, emb in cse.iter_embeddings()]
        return expand_edge_part(eu, ev, incident, embeddings, (0, cse.size()), 0)

    return _bench_level(
        graph.name, kernels.edge_kernel_context(index), cse, scalar, repeats
    )


def bench_spilled_executors(
    graph,
    workers: int,
    sanitize: bool = False,
    trace_out: str | None = None,
) -> dict:
    """Spilled 3-motif, serial vs threads.

    Every level is forced to disk (``spill-last``), so this runs the full
    out-of-core path — mmap-served parts and the planned part size.
    Pattern maps are asserted identical between the two executors (a
    ``RuntimeError`` otherwise); wall seconds and ``cpu_count`` are
    recorded, not gated.  ``trace_out`` gets the threads run's trace.
    """
    import tempfile

    from repro.obs import Tracer, write_chrome_trace

    record = {}
    maps = {}
    for spec in ("serial", "threads"):
        tracer = Tracer() if (trace_out and spec == "threads") else None
        with tempfile.TemporaryDirectory(prefix="bench-spill-") as spill_dir:
            with KaleidoEngine(
                graph,
                workers=workers,
                executor=spec,
                storage_mode="spill-last",
                spill_dir=spill_dir,
                sanitize=sanitize,
                tracer=tracer,
            ) as engine:
                result = engine.run(MotifCounting(3))
        record[spec] = {
            "wall_seconds": result.wall_seconds,
            "pattern_counts": sorted(result.value.values()),
        }
        maps[spec] = result.pattern_map
        if spec == "threads":
            record["io_plan"] = result.extra.get("io_plan")
            record["spilled_levels"] = result.extra.get("spilled_levels")
            if tracer is not None:
                write_chrome_trace(trace_out, tracer)
    if maps["serial"] != maps["threads"]:
        raise RuntimeError("serial and threads disagree on the spilled pattern map")
    record["cpu_count"] = os.cpu_count() or 1
    return record


def bench_hasher(graph, sanitize: bool = False) -> dict:
    """Hit rate of the pattern-hash cache over an FSM run.

    FSM hashes once per distinct raw structure, and every raw structure
    of a pattern class after the first is served by the hasher's
    normalised cache, so the hit rate measures how many automorphic raw
    structures share each polynomial computation.
    """
    with KaleidoEngine(graph, sanitize=sanitize) as engine:
        engine.run(FrequentSubgraphMining(2, support=3))
        hasher = engine.hasher
        record = {
            "hits": hasher.hits,
            "misses": hasher.misses,
            "hit_rate": hasher.hit_rate,
        }
    if record["hits"] + record["misses"] > 0 and record["hit_rate"] < 0.5:
        raise RuntimeError(
            f"hasher hit rate collapsed: {record['hit_rate']:.3f} "
            f"({record['hits']} hits / {record['misses']} misses)"
        )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernels.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: tiny profiles, fewer repeats",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace of the spilled threads run here",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the engine benches under the part-purity sanitizer",
    )
    args = parser.parse_args(argv)

    profile = "tiny" if args.quick else "bench"
    repeats = 2 if args.quick else 3
    names = ["citeseer"] if args.quick else ["citeseer", "mico"]

    record: dict = {
        "benchmark": "expansion_kernels",
        "profile": profile,
        "datasets": {},
    }
    failures: list[str] = []
    for name in names:
        graph = datasets.load(name, profile)
        vertex = bench_vertex_kernel(graph, depth=2, repeats=repeats)
        edge = bench_edge_kernel(graph, repeats=repeats)
        clique = bench_filtered_clique(graph, repeats=repeats)
        record["datasets"][name] = {
            "vertex_kernel": vertex,
            "edge_kernel": edge,
            "filtered_clique": clique,
        }
        for kind, run in (("vertex", vertex), ("edge", edge)):
            print(
                f"{name:>10} {kind:>6}: {run['embeddings']} embeddings, "
                f"scalar {run['scalar_seconds'] * 1e3:.1f}ms vs "
                f"kernel {run['kernel_seconds'] * 1e3:.1f}ms "
                f"({run['speedup']:.1f}x, "
                f"{run['examined_kernel']}/{run['examined_scalar']} examined)"
            )
            if run["speedup"] < 1.0:
                failures.append(
                    f"{name} {kind} kernel slower than scalar "
                    f"({run['speedup']:.2f}x)"
                )
        print(
            f"{name:>10} clique: {clique['embeddings']} triangles, "
            f"scalar+post-filter {clique['scalar_seconds'] * 1e3:.1f}ms vs "
            f"kernel gather {clique['kernel_seconds'] * 1e3:.1f}ms "
            f"({clique['speedup']:.1f}x)"
        )

    smoke = datasets.load("citeseer", profile)
    record["sanitize"] = args.sanitize
    record["spilled_executors"] = bench_spilled_executors(
        smoke,
        workers=args.workers,
        sanitize=args.sanitize,
        trace_out=args.trace_out,
    )
    spilled = record["spilled_executors"]
    print(
        f"    spilled: serial {spilled['serial']['wall_seconds']:.3f}s vs "
        f"threads {spilled['threads']['wall_seconds']:.3f}s "
        f"({spilled['cpu_count']} cores, pattern maps equal)"
    )
    record["hasher"] = bench_hasher(smoke, sanitize=args.sanitize)
    print(
        f"     hasher: {record['hasher']['hits']} hits / "
        f"{record['hasher']['misses']} misses "
        f"(hit rate {record['hasher']['hit_rate']:.3f})"
    )

    record["failures"] = failures
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
