"""The Kaleido engine: a plan → execute → aggregate pipeline (Sections 3-5).

One :class:`KaleidoEngine` instance runs one mining application over one
graph.  Each exploration iteration flows through three explicit stages:

* **Plan** (:class:`repro.core.plan.Planner`): predict candidate sizes,
  cut the level into balanced parts, check the ``max_embeddings`` guard,
  and decide whether the new level lives in memory or spills to disk
  (the hybrid storage policy, driven by the memory budget).
* **Execute** (:mod:`repro.core.executor`): run the per-part expansion
  functions through the configured :class:`PartExecutor` — serial with
  the work-stealing replay by default (the modelled-parallel behaviour
  every benchmark is built on), or a real thread pool — and merge the
  part results deterministically.
* **Aggregate**: decode the top level one part at a time as a
  ``(rows, k)`` block and run the application's ``map_block`` Mapper
  over each through the same executor, then the serial Reducer.

Every live data structure is accounted in a :class:`MemoryMeter`, and the
per-stage wall times are reported in ``MiningResult.phase_spans`` as
``plan_seconds`` / ``execute_seconds`` / ``aggregate_seconds``.
"""

from __future__ import annotations

import logging
import pickle
import time
from contextlib import nullcontext
from functools import partial
from typing import Callable

import numpy as np

from ..balance.worksteal import Schedule
from ..errors import StorageError
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from ..obs.bridge import absorb_engine
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from ..storage.checkpoint import RunCheckpoint
from ..storage.hybrid import StoragePolicy
from ..storage.meter import MemoryBudget, MemoryMeter
from ..storage.retry import RetryPolicy
from ..storage.spill import PartStore
from .api import EngineContext, MiningApplication, MiningResult, PatternMap
from .cse import CSE
from .eigenhash import PatternHasher
from .executor import PartExecutor, resolve_executor
from .explore import expand_edge_level, expand_vertex_level
from .plan import Planner

#: Version tag of the pickled run-state blob inside mid-run checkpoints.
_RUN_STATE_VERSION = 1

__all__ = ["KaleidoEngine", "aggregate_part"]

logger = logging.getLogger("repro.engine")


def aggregate_part(
    app: MiningApplication, ctx: EngineContext, block: np.ndarray
) -> tuple[PatternMap, object]:
    """Run the AggregatingMapper over one part's ``(rows, k)`` block.

    Pure per-part function (each part owns its own PatternMap and its own
    ``start_part`` state — the paper's FSM avoids a concurrent hashmap
    the same way), so mapper parts go through the same executor seam as
    expansion parts.  Returns ``(pmap, part_state)``; the engine hands
    the part states to ``app.finish_part`` in part-index order, so apps
    with positional side outputs (FSM's per-iteration hash list,
    materialised matches) stay deterministic under concurrent executors.
    """
    pmap: PatternMap = {}
    part = app.start_part(ctx)
    app.map_block(ctx, block, pmap, part)
    return pmap, part


class KaleidoEngine:
    """Configurable two-phase graph mining engine.

    An engine is a reusable *session* over one graph: construct it once
    and call :meth:`run` many times.  Everything expensive survives
    between runs — the executor's worker pool, the pattern-hash caches,
    the graph's derived structures (adjacency views, and the edge index
    built lazily on the first edge-induced run) — so a long-running
    caller (the service tier) pays the setup cost once per session, not
    once per query.  Runs on one engine must be serialized by the
    caller; for concurrent queries, give each its own engine and share
    the executor instance and the hasher across them (both are
    thread-safe), which is exactly what
    :class:`repro.service.MiningService` does.

    Parameters
    ----------
    graph:
        The input graph.
    workers:
        Worker count: the modelled worker count for the work-stealing
        replay, and the thread-pool size for the ``"threads"`` executor.
    hasher:
        Isomorphism fingerprinter; defaults to the paper's EigenHash.
        Pass ``repro.baselines.BlissLikeHasher()`` for the Fig.-12 study.
    memory_limit_bytes:
        Budget for intermediate data; exceeding it spills CSE levels.
    storage_mode:
        ``"auto"`` (spill when over budget), ``"memory"`` (never spill;
        budget ignored), or ``"spill-last"`` (always spill newly explored
        levels — the Table-4 "hybrid" configuration).
    use_prediction:
        Partition exploration work by predicted candidate sizes (paper
        default) or by plain embedding counts (the Fig.-17 baseline).
    parts_per_worker:
        Task granularity for the executor and the scheduler model.
    executor:
        ``"serial"`` (default: serial execution replayed through the
        work-stealing model), ``"threads"`` (a real thread pool of
        ``workers`` threads), or any :class:`PartExecutor` instance.  Part
        results are merged in part order, so every executor produces
        identical mining results.  Executors resolved from a spec string
        are closed with the engine; instances are caller-owned.
    io_retry:
        Retry policy for transient storage faults (capped exponential
        backoff); defaults to :class:`~repro.storage.retry.RetryPolicy`'s
        defaults.
    checkpoint_dir / checkpoint_every:
        When ``checkpoint_dir`` is set, the engine writes an atomic,
        checksummed per-level checkpoint after every
        ``checkpoint_every``-th exploration iteration; crash debris in
        the directory is garbage-collected at construction, and
        ``run(app, resume=True)`` restarts from the deepest valid level.
    on_checkpoint:
        Optional ``(iteration, path)`` callback fired after each
        checkpoint lands (operational hook; crash-recovery tests use it
        to kill the run at exact iteration boundaries).
    tracer:
        A :class:`repro.obs.Tracer` to record the run's span tree
        (``run → level → {plan, execute, aggregate} → part``) and
        instant events (spill, demote, io-plan, retry, checkpoint,
        checkpoint-restore).  Defaults to the
        no-op tracer, which costs a single attribute check per probe and
        never changes mined results (parity-tested).
    metrics:
        A :class:`repro.obs.MetricsRegistry` to collect the run's
        counters/gauges/histograms (``io.*``, ``mem.*``, ``queue.*``,
        ``hasher.*``, ``storage.*``, ``checkpoint.*``).  A fresh
        registry is created when not given; read it back from
        ``engine.metrics``.
    sanitize:
        Run the application under the runtime sanitizers.  The
        part-purity sanitizer
        (:class:`repro.analysis.PartPuritySanitizer`) raises
        :class:`~repro.errors.PartPurityError` on any application
        attribute write while the executor is running per-part tasks —
        a race detector for shared mapper state.  The lock-order
        sanitizer (:class:`repro.analysis.LockOrderSanitizer`) wraps
        the executor's and hasher's locks and raises
        :class:`~repro.errors.LockOrderError` if any two are ever taken
        in inconsistent orders.  A well-behaved app produces
        byte-identical results with or without either.
    """

    def __init__(
        self,
        graph: Graph,
        workers: int = 1,
        hasher: PatternHasher | None = None,
        memory_limit_bytes: int | None = None,
        storage_mode: str = "auto",
        spill_dir: str | None = None,
        use_prediction: bool = True,
        parts_per_worker: int = 4,
        max_embeddings: int | None = None,
        executor: "str | PartExecutor" = "serial",
        io_retry: RetryPolicy | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 1,
        on_checkpoint: Callable[[int, str], None] | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
        sanitize: bool = False,
        use_restrictions: bool = True,
    ) -> None:
        if storage_mode not in ("auto", "memory", "spill-last"):
            raise ValueError(f"unknown storage_mode {storage_mode!r}")
        if workers <= 0:
            raise ValueError("workers must be positive")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        self.graph = graph
        self.workers = workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.hasher = hasher if hasher is not None else PatternHasher()
        self.meter = MemoryMeter()
        self.budget = MemoryBudget(memory_limit_bytes)
        self.storage_mode = storage_mode
        self.use_prediction = use_prediction
        self.parts_per_worker = parts_per_worker
        #: Safety valve: abort (PlanError) if any level would exceed this
        #: many embeddings.  Exploration is exponential in depth; a guard
        #: beats an out-of-control run in production settings.
        self.max_embeddings = max_embeddings
        self.executor = resolve_executor(executor)
        # Executors resolved from a spec string are engine-owned: close()
        # reaps their pools.  Caller-supplied instances stay caller-owned.
        self._owns_executor = not isinstance(executor, PartExecutor)
        self._store: PartStore | None = (
            PartStore(spill_dir, retry=io_retry, tracer=self.tracer, metrics=self.metrics)
            if spill_dir is not None
            else None
        )
        self._policy = StoragePolicy(
            self.budget,
            self.meter,
            store=self._store,
            force_spill_last=(storage_mode == "spill-last"),
            retry=io_retry,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        #: Whether levels expand on the restriction-fused kernel (the
        #: default) or, when False, on the scalar reference loops — the
        #: independent second opinion; mined results are byte-identical
        #: either way.
        self.use_restrictions = use_restrictions
        self.planner = Planner(
            graph,
            self._policy,
            workers=workers,
            parts_per_worker=parts_per_worker,
            use_prediction=use_prediction,
            storage_mode=storage_mode,
            max_embeddings=max_embeddings,
        )
        self.sanitize = sanitize
        #: Active PartPuritySanitizer while a sanitized run is in flight.
        self._sanitizer = None
        #: Active LockOrderSanitizer while a sanitized run is in flight.
        self._lock_sanitizer = None
        #: Lazily built EdgeIndex, shared across this session's runs.
        self._edge_index: EdgeIndex | None = None
        #: How many runs this session has completed.
        self.runs_completed = 0
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self._checkpoints: RunCheckpoint | None = None
        self._checkpoints_written = 0
        self._checkpoint_failures = 0
        if checkpoint_dir is not None:
            self._checkpoints = RunCheckpoint(checkpoint_dir)
            self._checkpoints.collect_garbage()

    # ------------------------------------------------------------------
    def run(
        self,
        app: MiningApplication,
        resume: bool = False,
        max_embeddings: "int | None" = -1,
    ) -> MiningResult:
        """Run one application start to finish and report costs.

        An engine may run many applications back to back; session state
        (worker pools, hash caches, the edge index) is reused, and
        per-run measurements accumulate into ``self.metrics`` (counters
        sum across runs — the useful reading for repeated-run callers).

        With ``resume=True`` (requires ``checkpoint_dir``), the run
        restarts from the deepest valid mid-run checkpoint instead of
        from scratch; an empty or absent checkpoint directory simply
        starts over.  The resumed run produces the same final pattern
        map as an uninterrupted one.

        ``max_embeddings`` overrides the engine-wide exploration guard
        for this run only (``None`` lifts it) — the service tier threads
        each query's budget through here.  The default sentinel ``-1``
        keeps the engine's configured guard.

        The run is recorded on ``self.tracer`` as one ``run`` span with
        nested ``level → {plan, execute, aggregate} → part`` children,
        and the run's measurements are folded into ``self.metrics``
        when it finishes.  Tracing never changes mined results.
        """
        if self.sanitize:
            from ..analysis.sanitizer import LockOrderSanitizer, PartPuritySanitizer

            sanitizer = PartPuritySanitizer(app)
            lock_sanitizer = LockOrderSanitizer()
            # The engine's lock-bearing collaborators: the executor's
            # pool bookkeeping and the hasher's cache statistics.
            lock_sanitizer.instrument(self.executor)
            lock_sanitizer.instrument(self.hasher)
        else:
            sanitizer = None
            lock_sanitizer = None
        self._sanitizer = sanitizer
        self._lock_sanitizer = lock_sanitizer
        guard_before = self.planner.max_embeddings
        if max_embeddings != -1:
            self.planner.max_embeddings = max_embeddings
        try:
            with lock_sanitizer if lock_sanitizer is not None else nullcontext():
                with sanitizer if sanitizer is not None else nullcontext():
                    with self.tracer.span("run", app=app.name, graph=self.graph.name):
                        result = self._run(app, resume)
        finally:
            self._sanitizer = None
            self._lock_sanitizer = None
            self.planner.max_embeddings = guard_before
        self.runs_completed += 1
        absorb_engine(self.metrics, self)
        return result

    def _hot_phase(self):
        """Sanitizer window around executor part runs (no-op otherwise)."""
        if self._sanitizer is None:
            return nullcontext()
        return self._sanitizer.hot_phase()

    def _run(self, app: MiningApplication, resume: bool) -> MiningResult:
        started = time.perf_counter()
        schedules: list[Schedule] = []
        schedule_phases: list[str] = []
        phase_spans: dict[str, float] = {}
        plan_seconds = 0.0
        execute_seconds = 0.0
        aggregate_seconds = 0.0

        ctx = EngineContext(graph=self.graph, engine=self)
        self.meter.set("graph", self.graph.nbytes)
        if app.induced == "edge":
            # Session reuse: the edge index is a pure function of the
            # graph, so build it once and share it across runs.
            if self._edge_index is None:
                self._edge_index = EdgeIndex(self.graph)
            ctx.edge_index = self._edge_index
            self.meter.set("edge_index", ctx.edge_index.nbytes)
        elif app.induced != "vertex":
            raise ValueError(f"unknown induced mode {app.induced!r}")

        # Compile the app's query pattern (if it has one) into its
        # symmetry-breaking restriction set; a complete, uniformly
        # labelled pattern also yields the per-level gather descriptors
        # the level plans carry to the kernel.
        pattern_restrictions = self.planner.pattern_restrictions(app)
        self.planner.active_gathers = self.planner.pattern_gathers(app)

        roots = app.init(ctx)
        block_filter = app.block_filter(ctx)
        cse = CSE(roots)
        reduced: PatternMap = {}
        aggregated = False
        start_iteration = 0
        resumed_from: int | None = None
        if resume:
            restored = self._restore(ctx, app, roots)
            if restored is not None:
                cse, reduced, aggregated, start_iteration, resumed_from = restored
        self.meter.set("cse", cse.nbytes_in_memory)
        level_sizes = [cse.size(idx) for idx in range(cse.depth)]

        # ---------------- Phase 1: embedding exploration ----------------
        explore_span = 0.0
        total_iterations = app.iterations()
        if aggregated and cse.size() == 0:
            # The checkpointed run had already pruned every embedding away;
            # nothing left to explore.
            start_iteration = total_iterations
        for iteration in range(start_iteration, total_iterations):
            self.tracer.begin("level", index=iteration, size=cse.size())
            try:
                # Stages 1+2: plan, then execute.  A storage failure
                # aborts the sink (its parts are deleted) and propagates.
                stage_started = time.perf_counter()
                with self.tracer.span("plan", depth=cse.depth):
                    plan = self.planner.plan_level(ctx, cse)
                plan_seconds += time.perf_counter() - stage_started

                stage_started = time.perf_counter()
                with self.tracer.span(
                    "execute", parts=plan.num_parts, spill=plan.spill
                ), self._hot_phase():
                    if app.induced == "vertex":
                        stats = expand_vertex_level(
                            self.graph,
                            cse,
                            block_filter,
                            parts=plan.part_bounds,
                            sink=plan.sink,
                            executor=self.executor,
                            workers=self.workers,
                            tracer=self.tracer,
                            use_kernels=self.use_restrictions,
                            pattern_gather=plan.pattern_gather,
                        )
                    else:
                        assert ctx.edge_index is not None
                        stats = expand_edge_level(
                            self.graph,
                            ctx.edge_index,
                            cse,
                            block_filter,
                            parts=plan.part_bounds,
                            sink=plan.sink,
                            executor=self.executor,
                            workers=self.workers,
                            tracer=self.tracer,
                            use_kernels=self.use_restrictions,
                        )
                execute_seconds += time.perf_counter() - stage_started

                schedule = stats.schedule
                assert schedule is not None
                schedules.append(schedule)
                schedule_phases.append("explore")
                explore_span += schedule.span_seconds
                level_sizes.append(cse.size())
                self.meter.set("cse", cse.nbytes_in_memory)
                logger.debug(
                    "%s: level %d -> %d embeddings (%d candidates examined, "
                    "%.3fs span, %.2f MB accounted)",
                    app.name, cse.depth, cse.size(), stats.candidates_examined,
                    schedule.span_seconds, self.meter.current_bytes / 1e6,
                )

                if app.aggregate_every_iteration:
                    reduced, agg_span, agg_wall = self._aggregate(
                        ctx, app, cse, schedules, schedule_phases
                    )
                    aggregated = True
                    explore_span += agg_span
                    aggregate_seconds += agg_wall
                    mask = app.prune(ctx, cse, reduced)
                    if mask is not None:
                        cse.filter_top_level(mask)
                        level_sizes[-1] = cse.size()
                        self.meter.set("cse", cse.nbytes_in_memory)
                self._maybe_checkpoint(ctx, app, cse, iteration, reduced, aggregated)
            finally:
                self.tracer.end("level")
            if app.aggregate_every_iteration and cse.size() == 0:
                break
        phase_spans["explore"] = explore_span

        # ---------------- Phase 2: pattern aggregation ------------------
        if not app.aggregate_every_iteration or not aggregated:
            reduced, agg_span, agg_wall = self._aggregate(
                ctx, app, cse, schedules, schedule_phases
            )
            phase_spans["aggregate"] = agg_span
            aggregate_seconds += agg_wall

        simulated_seconds = sum(phase_spans.values())
        phase_spans["plan_seconds"] = plan_seconds
        phase_spans["execute_seconds"] = execute_seconds
        phase_spans["aggregate_seconds"] = aggregate_seconds

        value = app.finalize(ctx, cse, reduced)
        wall = time.perf_counter() - started
        logger.info(
            "%s over %s: %.3fs wall, %d patterns, peak %.2f MB",
            app.name, self.graph.name, wall, len(reduced),
            self.meter.peak_bytes / 1e6,
        )
        io_read, io_written = self._io_totals()
        result = MiningResult(
            app_name=app.name,
            value=value,
            pattern_map=reduced,
            wall_seconds=wall,
            simulated_seconds=simulated_seconds,
            peak_memory_bytes=self.meter.peak_bytes,
            level_sizes=level_sizes,
            phase_spans=phase_spans,
            io_bytes_read=io_read,
            io_bytes_written=io_written,
            memory_snapshot=self.meter.snapshot(),
            schedules=schedules,
            utilization=(
                sum(s.busy_seconds for s in schedules)
                / max(
                    1e-12,
                    sum(s.span_seconds * s.num_workers for s in schedules),
                )
            ),
            extra={
                "schedule_phases": schedule_phases,
                "executor": self.executor.name,
                "hasher_cache_entries": len(self.hasher)
                if hasattr(self.hasher, "__len__")
                else None,
                "spilled_levels": self._policy.spilled_levels,
                "demoted_levels": self._policy.demoted_levels,
                "io_plan": (
                    None
                    if self._policy.last_io_plan is None
                    else self._policy.last_io_plan.as_dict()
                ),
                "resumed_from_level": resumed_from,
                "checkpoints_written": self._checkpoints_written,
                "checkpoint_failures": self._checkpoint_failures,
                "io_retries": self._io_counter("retries"),
                "io_failed_deletes": self._io_counter("failed_deletes"),
                "sanitize": self.sanitize,
                "restrictions": self.use_restrictions,
                "pattern_restrictions": (
                    None
                    if pattern_restrictions is None
                    else [
                        (r.smaller, r.larger)
                        for r in pattern_restrictions.restrictions
                    ]
                ),
            },
        )
        return result

    # ------------------------------------------------------------------
    # Robustness plumbing: checkpointing, resume
    # ------------------------------------------------------------------
    def _io_counter(self, name: str) -> int:
        store = self._policy.store
        return 0 if store is None else getattr(store.io, name)

    def _maybe_checkpoint(
        self,
        ctx: EngineContext,
        app: MiningApplication,
        cse: CSE,
        iteration: int,
        reduced: PatternMap,
        aggregated: bool,
    ) -> None:
        """Write the per-level checkpoint for one completed iteration.

        Checkpoints are an availability feature, not a correctness one: a
        failed write is logged and counted, and the run carries on (the
        previous checkpoint, if any, stays valid — saves are atomic).
        """
        if self._checkpoints is None or (iteration + 1) % self.checkpoint_every:
            return
        state = {
            "version": _RUN_STATE_VERSION,
            "app": app.name,
            "iteration": iteration,
            "aggregated": aggregated,
            "reduced": reduced,
            "app_state": app.checkpoint_state(ctx),
        }
        try:
            path = self._checkpoints.save(iteration, cse, pickle.dumps(state))
        except StorageError as exc:
            self._checkpoint_failures += 1
            if self.tracer.enabled:
                self.tracer.instant("checkpoint-failure", iteration=iteration)
            logger.warning(
                "checkpoint after iteration %d failed (run continues): %s",
                iteration, exc,
            )
            return
        self._checkpoints_written += 1
        if self.tracer.enabled:
            self.tracer.instant("checkpoint", iteration=iteration)
        logger.debug("checkpointed iteration %d at %s", iteration, path)
        if self.on_checkpoint is not None:
            self.on_checkpoint(iteration, path)

    def _restore(
        self, ctx: EngineContext, app: MiningApplication, roots: np.ndarray
    ) -> tuple[CSE, PatternMap, bool, int, int] | None:
        """Load the deepest valid checkpoint; None means start fresh."""
        if self._checkpoints is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        restored = self._checkpoints.latest()
        if restored is None:
            logger.info("no valid checkpoint found; starting from scratch")
            return None
        iteration, cse, payload = restored
        try:
            state = pickle.loads(payload)
        except Exception as exc:  # CRC passed but the blob is unusable
            raise StorageError(f"cannot decode checkpoint run state: {exc}") from exc
        if state.get("version") != _RUN_STATE_VERSION:
            raise StorageError(
                f"unsupported run-state version {state.get('version')!r}"
            )
        if state.get("app") != app.name:
            raise StorageError(
                f"checkpoint belongs to {state.get('app')!r}, not {app.name!r}"
            )
        if not np.array_equal(cse.levels[0].vert_array(), roots):
            raise StorageError(
                "checkpoint root level does not match the application's seeds "
                "(different graph or parameters?)"
            )
        if state.get("app_state") is not None:
            app.restore_state(ctx, state["app_state"])
        if self.tracer.enabled:
            self.tracer.instant(
                "checkpoint-restore", iteration=iteration, depth=cse.depth
            )
        logger.info(
            "resuming %s from checkpoint level %d (depth %d, %d embeddings)",
            app.name, iteration, cse.depth, cse.size(),
        )
        return cse, state["reduced"], bool(state["aggregated"]), iteration + 1, iteration

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        ctx: EngineContext,
        app: MiningApplication,
        cse: CSE,
        schedules: list[Schedule],
        schedule_phases: list[str],
    ) -> tuple[PatternMap, float, float]:
        """Plan mapper parts, run them through the executor, then reduce.

        Returns ``(reduced, simulated span, wall seconds)``.  Per-part
        PatternMaps are modelled faithfully: each part owns its own map,
        so accounted memory grows with the worker count and the final
        merge is serial — which is exactly why FSM scales sublinearly
        (Fig. 14).
        """
        wall_started = time.perf_counter()
        with self.tracer.span("aggregate", size=cse.size()):
            plan = self.planner.plan_aggregate(ctx, app, cse)

            def tasks():
                # The kernels' read path (the sequential walk): resident
                # levels slice their arrays, spilled ones their mmap parts.
                for start, end in plan.part_bounds:
                    yield partial(aggregate_part, app, ctx, cse.decode_block(start, end))

            with self._hot_phase():
                report = self.executor.run(
                    tasks(), workers=self.workers, tracer=self.tracer, phase="aggregate"
                )
            pmaps: list[PatternMap] = [pmap for pmap, _ in report.results]
            # Part states are absorbed serially in part-index order,
            # whatever order the executor completed the parts in.
            for _, part_state in report.results:
                if part_state is not None:
                    app.finish_part(ctx, part_state)

            self.meter.set("pattern_maps", sum(app.pmap_nbytes(m) for m in pmaps))
            if hasattr(self.hasher, "nbytes"):
                self.meter.set("hasher_cache", self.hasher.nbytes)
            schedule = report.schedule
            schedules.append(schedule)
            schedule_phases.append("aggregate")

            reduce_started = time.perf_counter()
            reduced = app.reduce(ctx, pmaps)
            reduce_seconds = time.perf_counter() - reduce_started
            self.meter.set("pattern_maps", app.pmap_nbytes(reduced))
        wall = time.perf_counter() - wall_started
        return reduced, schedule.span_seconds + reduce_seconds, wall

    def _io_totals(self) -> tuple[int, int]:
        store = self._policy.store
        if store is None:
            return 0, 0
        return store.io.bytes_read, store.io.bytes_written

    @property
    def io_stats(self):
        """The spill store's IOStats (None when nothing ever spilled)."""
        store = self._policy.store
        return None if store is None else store.io

    def close(self) -> None:
        """Delete spill files and reap engine-owned worker pools (safe to
        call twice)."""
        self._policy.close()
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "KaleidoEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
