"""The six ledger workloads: frozen sizes, seeded inputs, set-up, ops, digests.

Everything the program under test sees is produced here from ``--seed``:
an edge array and a label array.  The *structure* of each graph is frozen
(one Chung–Lu draw per size, ``STRUCTURE_SEED``), and the seed draws an
isomorphic copy of it — vertex ids re-assigned in descending-degree order
with seeded tie-breaks, label names permuted, edge rows shuffled and
flipped.  Isomorphic copies keep every answer (sorted pattern counts,
level sizes, spill bytes) identical across seeds, so one golden digest
checks every seed and the run-to-run spread of a timing is machine noise,
not a different amount of work.  A fully random relabelling was measured
first and rejected: it moved the 4-clique op by 12% between seeds because
the canonical filter's early exits depend on where the hubs sit in id
order; degree order pins the hubs and leaves the ties to the seed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    KaleidoEngine,
    MiningApplication,
    MiningService,
    MotifCounting,
    QueryRequest,
)
from repro.errors import ServiceError
from repro.graph import Graph, chung_lu, ensure_connected_core, from_edge_list
from repro.graph.edge_index import EdgeIndex
from repro.service import Route, build_app

#: Seed of the one Chung–Lu draw per size; frozen together with the sizes.
STRUCTURE_SEED = 7


@dataclass(frozen=True)
class Size:
    n: int
    m: int
    labels: int = 1


@dataclass(frozen=True)
class Inputs:
    """What the benchmark hands the program: arrays, nothing else."""

    edges: np.ndarray  # (m, 2) int64, undirected, each edge once
    labels: np.ndarray  # (n,) int64, one per vertex


@dataclass
class OpResult:
    """One op's checked outputs and the engine facts the metrics need."""

    #: Isomorphism-invariant summary, checked against golden.json.
    digest: Any
    peak_accounted_bytes: int
    #: Answer parts that follow vertex order (no seed-free golden); they
    #: must repeat from op to op within a run.  None when there are none.
    repeat: Any = None
    attempted: int = 1
    refused: int = 0
    #: Engine results (one per engine run in the op) for layer attribution.
    mined: list = field(default_factory=list)
    #: Service answers of the op, in issue order per client.
    answers: list = field(default_factory=list)
    invalidate_seconds: float = 0.0


class SubgraphCount(MiningApplication):
    """Count connected k-vertex subgraphs: no filter, O(1) mapper.

    Benchmark-owned so that exploration, CSE decode and storage carry the
    op instead of an application's mapper."""

    induced = "vertex"

    def __init__(self, k: int) -> None:
        self.k = k

    def iterations(self) -> int:
        return self.k - 1

    def map_embedding(self, ctx, embedding, pmap) -> None:
        pmap[0] = pmap.get(0, 0) + 1

    def finalize(self, ctx, cse, pmap) -> int:
        return pmap.get(0, 0)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def generate_inputs(size: Size, seed: int) -> Inputs:
    """A seeded isomorphic copy of the frozen structure for ``size``."""
    base = ensure_connected_core(
        chung_lu(size.n, size.m, STRUCTURE_SEED, num_labels=size.labels),
        STRUCTURE_SEED,
    )
    rng = np.random.default_rng(seed)
    n = base.num_vertices
    by_degree = np.lexsort((rng.random(n), -base.degrees()))
    new_id = np.empty(n, dtype=np.int64)
    new_id[by_degree] = np.arange(n)
    eu, ev = base.edge_arrays()
    edges = np.stack([new_id[eu], new_id[ev]], axis=1)
    edges = edges[rng.permutation(edges.shape[0])]
    flip = rng.random(edges.shape[0]) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    label_names = rng.permutation(max(1, size.labels))
    labels = np.empty(n, dtype=np.int64)
    labels[new_id] = label_names[base.labels]
    return Inputs(edges, labels)


# ----------------------------------------------------------------------
# Digests: isomorphism-invariant summaries of an answer
# ----------------------------------------------------------------------
def summarise(value: Any, cap: int | None = None) -> Any:
    """Sorted counts / supports of a pattern map, or the bare count.

    Pattern hashes depend on label names and are dropped; ``cap`` folds
    FSM's short-circuited supports (any value >= the threshold) onto the
    threshold, which is all the short-circuit promises."""
    if hasattr(value, "count") and not isinstance(value, dict):
        return int(value.count)
    if isinstance(value, dict):
        values = [int(v) if cap is None else min(int(v), cap) for v in value.values()]
        return sorted(values)
    return int(value)


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class EngineSession:
    """A prebuilt graph; every op runs a fresh engine over it."""

    def __init__(self, workload: "Workload", graph: Graph, scratch: str) -> None:
        self.workload = workload
        self.graph = graph
        self.scratch = scratch

    def run_op(self, tracer=None, metrics=None, hasher=None, **overrides) -> OpResult:
        workload = self.workload
        kwargs = dict(workload.engine_kwargs)
        kwargs.update(overrides)
        spill_dir = None
        if kwargs.get("storage_mode") == "spill-last":
            spill_dir = tempfile.mkdtemp(prefix="spill-", dir=self.scratch)
            kwargs["spill_dir"] = spill_dir
        try:
            with KaleidoEngine(
                self.graph, tracer=tracer, metrics=metrics, hasher=hasher, **kwargs
            ) as engine:
                mined = engine.run(workload.make_app())
        finally:
            if spill_dir is not None:
                shutil.rmtree(spill_dir, ignore_errors=True)
        return OpResult(
            digest={
                "value": summarise(mined.value, workload.support_cap),
                "levels": list(mined.level_sizes),
            },
            peak_accounted_bytes=mined.peak_memory_bytes,
            mined=[mined],
        )

    def alternate_digest(self) -> Any:
        """The same answer by a second engine configuration."""
        return self.run_op(**ALTERNATE_ENGINE).digest

    def reference_digest(self) -> Any:
        return {"value": self.workload.reference(self.graph)}

    def close(self) -> None:
        pass


#: ``--regen-golden``'s second opinion: no executor pool, no spill, and the
#: masked kernels instead of the fused restricted ones.
ALTERNATE_ENGINE = {
    "executor": "serial",
    "workers": 1,
    "storage_mode": "memory",
    "use_restrictions": False,
}

#: The service request script.  Exact queries are RED on a cold cache;
#: the approximate one is YELLOW.  Its sample seed is fixed so the answer
#: repeats pass to pass.
SERVICE_TENANTS = ("ada", "bo", "cy")
SERVICE_QUERIES: tuple[dict, ...] = (
    {"app": "tc", "k": 3, "params": {}},
    {"app": "clique", "k": 3, "params": {}},
    {"app": "fsm", "k": 3, "params": {"edges": 2, "support": 3}},
    {"app": "motif", "k": 3, "params": {}},
    {"app": "clique", "k": 4, "params": {}},
    {"app": "motif", "k": 4, "params": {"samples": 400, "seed": 11}, "mode": "approximate"},
)
SERVICE_CLIENTS = 2
SERVICE_WARM_ROUNDS = 5


def query_label(spec: dict) -> str:
    mode = "~" if spec.get("mode") == "approximate" else ""
    return f"{mode}{spec['app']}{spec['k']}"


class ServiceSession:
    """A ``MiningService`` over an in-process graph, driven closed-loop
    by ``SERVICE_CLIENTS`` client threads."""

    def __init__(self, workload: "Workload", graph: Graph, tracer=None, metrics=None, hasher=None):
        self.workload = workload
        self.graph = graph
        engine_kwargs: dict[str, Any] = {}
        if tracer is not None:
            engine_kwargs["tracer"] = tracer
        if hasher is not None:
            engine_kwargs["hasher"] = hasher
        self.service = MiningService(
            pool_workers=SERVICE_CLIENTS,
            max_inflight=SERVICE_CLIENTS,
            engine_kwargs=engine_kwargs,
            tracer=tracer,
            metrics=metrics,
        )

    def _request(self, spec: dict, tenant: str) -> QueryRequest:
        return QueryRequest(
            app=spec["app"],
            k=spec["k"],
            params=dict(spec["params"]),
            graph=self.graph,
            tenant=tenant,
            mode=spec.get("mode", "exact"),
        )

    def _drive(self, scripts: list[list[tuple[dict, str]]]) -> list[list[tuple[dict, Any]]]:
        """Each client issues its script in order, one request in flight."""
        out: list[list[tuple[dict, Any]]] = [[] for _ in scripts]

        def client(index: int) -> None:
            for spec, tenant in scripts[index]:
                try:
                    answer = self.service.query(self._request(spec, tenant))
                except ServiceError as exc:  # refused: counted, never retried
                    answer = exc
                out[index].append((spec, answer))

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(len(scripts))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    def run_op(self) -> OpResult:
        """One pass: invalidate → cold phase (misses) → warm phase (hits)."""
        started = time.perf_counter()
        self.service.invalidate_graph(self.graph)
        invalidate_seconds = time.perf_counter() - started
        # Cold: each distinct key goes to exactly one client, so the miss
        # set is deterministic whatever the thread interleaving.
        cold = [
            [
                (spec, SERVICE_TENANTS[(i + j) % len(SERVICE_TENANTS)])
                for j, spec in enumerate(SERVICE_QUERIES)
                if j % SERVICE_CLIENTS == i
            ]
            for i in range(SERVICE_CLIENTS)
        ]
        warm_all = [
            (spec, tenant)
            for _ in range(SERVICE_WARM_ROUNDS)
            for tenant in SERVICE_TENANTS
            for spec in SERVICE_QUERIES
        ]
        warm = [warm_all[i::SERVICE_CLIENTS] for i in range(SERVICE_CLIENTS)]
        answered = self._drive(cold) + self._drive(warm)
        flat = [pair for script in answered for pair in script]
        digest: dict[str, Any] = {"green": 0}
        repeat: dict[str, Any] = {}
        peak = self.graph.nbytes
        for spec, answer in flat:
            if isinstance(answer, Exception):
                continue
            label = query_label(spec)
            if spec.get("mode") == "approximate":
                # Sampled estimates follow vertex order: checked op to op.
                summary, target = sorted(answer.pattern_map.values()), repeat
            else:
                summary, target = summarise(answer.value, spec["params"].get("support")), digest
            # Every answer to a key must agree, hit or miss.
            if target.setdefault(label, summary) != summary:
                target[label] = {"disagree": [target[label], summary]}
            digest["green"] += answer.route is Route.GREEN
            peak = max(peak, answer.extra.get("peak_memory_bytes", 0))
        return OpResult(
            digest=digest,
            peak_accounted_bytes=peak,
            repeat=repeat,
            attempted=len(flat),
            refused=sum(1 for _, answer in flat if isinstance(answer, Exception)),
            answers=[answer for _, answer in flat if not isinstance(answer, Exception)],
            invalidate_seconds=invalidate_seconds,
        )

    def _solo(self, **engine_kwargs) -> list[tuple[dict, Any]]:
        """The exact queries on one plain engine, no service around it."""
        with KaleidoEngine(self.graph, **engine_kwargs) as engine:
            return [
                (spec, engine.run(build_app(spec["app"], spec["k"], spec["params"])))
                for spec in SERVICE_QUERIES
                if spec.get("mode") != "approximate"
            ]

    def solo_seconds(self) -> float:
        """The denominator of ``service.tax_ratio``."""
        return sum(mined.wall_seconds for _, mined in self._solo())

    def alternate_digest(self) -> Any:
        digest = {
            query_label(spec): summarise(mined.value, spec["params"].get("support"))
            for spec, mined in self._solo(**ALTERNATE_ENGINE)
        }
        digest["green"] = SERVICE_WARM_ROUNDS * len(SERVICE_TENANTS) * len(SERVICE_QUERIES)
        return digest

    def reference_digest(self) -> Any:
        return self.workload.reference(self.graph)

    def close(self) -> None:
        self.service.close()


# ----------------------------------------------------------------------
# Workload table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    smoke: Size
    kind: str = "engine"  # "engine" | "service"
    make_app: Callable[[], MiningApplication] | None = None
    engine_kwargs: dict = field(default_factory=dict)
    #: FSM support threshold folded into the digest (see ``summarise``).
    support_cap: int | None = None
    #: Whether ops explore edge-induced (an EdgeIndex is a used view).
    edge_induced: bool = False
    #: Brute-force answer for ``--regen-golden`` on the smoke-size graph.
    reference: Callable[[Graph], Any] | None = None

    def size(self, scale: str) -> Size:
        return self.smoke if scale == "smoke" else self.full

    def setup(
        self,
        inputs: Inputs,
        scratch: str,
        timings: dict | None = None,
        tracer=None,
        metrics=None,
        hasher=None,
    ):
        """Generated arrays → a session ready for its first op.

        ``timings`` (optional) receives the graph-layer split of the
        set-up: build, derived views, edge index.  The observers reach a
        service session, which takes them at construction; engine
        sessions take theirs per op."""
        t0 = time.perf_counter()
        graph = from_edge_list(map(tuple, inputs.edges.tolist()), inputs.labels.tolist(), self.name)
        t1 = time.perf_counter()
        graph.adjacency_sets()
        graph.adjacency_keys()
        graph.fingerprint()
        t2 = time.perf_counter()
        if self.edge_induced:
            EdgeIndex(graph)
        t3 = time.perf_counter()
        if timings is not None:
            timings["graph.build_s"] = t1 - t0
            timings["graph.views_s"] = t2 - t1
            timings["graph.edge_index_s"] = t3 - t2 if self.edge_induced else 0.0
            timings["graph.nbytes"] = graph.nbytes
        if self.kind == "service":
            return ServiceSession(self, graph, tracer, metrics, hasher)
        session = EngineSession(self, graph, scratch)
        # Engine construction is part of being ready; ops build their own.
        kwargs = dict(self.engine_kwargs)
        if kwargs.get("storage_mode") == "spill-last":
            kwargs["spill_dir"] = os.path.join(scratch, "setup-spill")
        KaleidoEngine(graph, **kwargs).close()
        if "spill_dir" in kwargs:
            shutil.rmtree(kwargs["spill_dir"], ignore_errors=True)
        return session


def _reference_motif4(graph: Graph) -> Any:
    from repro.apps.reference import count_motifs_naive

    return sorted(count_motifs_naive(graph, 4).values())


def _reference_fsm(graph: Graph) -> Any:
    from repro.apps.reference import fsm_naive

    return sorted(min(s, 3) for s in fsm_naive(graph, 2, 3).values())


def _reference_clique4(graph: Graph) -> Any:
    from repro.apps.reference import count_cliques_naive

    return count_cliques_naive(graph, 4)


def _reference_subgraph4(graph: Graph) -> Any:
    from repro.apps.reference import connected_vertex_sets

    return len(connected_vertex_sets(graph, 4))


def _reference_service(graph: Graph) -> Any:
    from repro.apps.reference import count_cliques_naive, count_motifs_naive

    triangles = count_cliques_naive(graph, 3)
    return {
        "tc3": triangles,
        "clique3": triangles,
        "clique4": count_cliques_naive(graph, 4),
        "motif3": sorted(count_motifs_naive(graph, 3).values()),
        "fsm3": _reference_fsm(graph),
    }


def verified_digest(workload: Workload, scale: str, seed: int, scratch: str) -> tuple[Any, list[str]]:
    """The digest ``golden.json`` should hold, and every reason not to
    trust it.  The production configuration must agree with a second
    engine configuration, with an isomorphic copy drawn from another seed,
    and — on the smoke-size graph, where brute force is feasible — with
    ``repro.apps.reference``."""
    problems: list[str] = []
    session = workload.setup(generate_inputs(workload.size(scale), seed), scratch)
    try:
        digest = session.run_op().digest
        alternate = session.alternate_digest()
        if alternate != digest:
            problems.append(f"second configuration disagrees: {alternate!r} != {digest!r}")
        if scale == "smoke":
            reference = session.reference_digest()
            if any(digest.get(key) != want for key, want in reference.items()):
                problems.append(f"brute force disagrees: {reference!r} vs {digest!r}")
    finally:
        session.close()
    other = workload.setup(generate_inputs(workload.size(scale), seed + 1), scratch)
    try:
        if other.run_op().digest != digest:
            problems.append("digest differs between seeds: inputs are not isomorphic copies")
    finally:
        other.close()
    return digest, problems


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="motif4-mem",
        why="aggregation-bound: the motif mapper and canonical_extensions carry the op, kernels under 1%",
        full=Size(165, 830),
        smoke=Size(40, 110),
        make_app=lambda: MotifCounting(4),
        engine_kwargs={"storage_mode": "memory", "executor": "serial"},
        reference=_reference_motif4,
    ),
    Workload(
        name="motif4-threads",
        why="same graph and app through executor=threads, workers=2: its ratio to motif4-mem is the executor's rent",
        full=Size(165, 830),
        smoke=Size(40, 110),
        make_app=lambda: MotifCounting(4),
        engine_kwargs={"storage_mode": "memory", "executor": "threads", "workers": 2},
        reference=_reference_motif4,
    ),
    Workload(
        name="fsm3-mem",
        why="the paper's headline app: edge kernels, aggregate every iteration, prune, MNI, EigenHash on labelled patterns",
        full=Size(700, 2500, labels=12),
        smoke=Size(120, 300, labels=6),
        make_app=lambda: FrequentSubgraphMining(num_edges=2, support=3),
        engine_kwargs={"storage_mode": "memory", "executor": "serial"},
        support_cap=3,
        edge_induced=True,
        reference=_reference_fsm,
    ),
    Workload(
        name="clique4-filter",
        why="embedding_filter drops expansion to the scalar core.explore path: execute carries the op, aggregate none",
        full=Size(275, 2050),
        smoke=Size(60, 300),
        make_app=lambda: CliqueDiscovery(4),
        engine_kwargs={"storage_mode": "memory", "executor": "serial"},
        reference=_reference_clique4,
    ),
    Workload(
        name="explore4-spill",
        why="O(1) mapper under spill-last: plan, fused kernels, CSE decode and storage writes and reads carry the op",
        full=Size(470, 1650),
        smoke=Size(60, 140),
        make_app=lambda: SubgraphCount(4),
        engine_kwargs={"storage_mode": "spill-last", "executor": "serial"},
        reference=_reference_subgraph4,
    ),
    Workload(
        name="service-mix",
        why="MiningService, 3 tenants, 2 closed-loop clients: cache puts, gets, invalidation, session rebuild, shared pool",
        full=Size(330, 1250, labels=12),
        smoke=Size(60, 160, labels=6),
        kind="service",
        reference=_reference_service,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
