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

Every live data structure is accounted in the run's :class:`MemoryMeter`,
and the per-stage wall times are reported in ``MiningResult.phase_spans``
as ``plan_seconds`` / ``execute_seconds`` / ``aggregate_seconds``.
"""

from __future__ import annotations

import logging
import pickle
import time
from collections import Counter
from contextlib import nullcontext
from functools import partial
from typing import Callable, ContextManager

import numpy as np

from ..balance.worksteal import Schedule
from ..errors import StorageError
from ..graph.edge_index import EdgeIndex
from ..graph.graph import Graph
from ..obs.bridge import absorb_io_stats, absorb_memory_meter
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from ..storage.checkpoint import RunCheckpoint
from ..storage.hybrid import StoragePolicy
from ..storage.meter import IOStats, MemoryBudget, MemoryMeter
from ..storage.retry import RetryPolicy
from ..storage.spill import PartStore
from .api import EngineContext, MiningApplication, MiningResult, PatternMap
from .cse import CSE
from .eigenhash import PatternHasher
from .executor import PartExecutor, resolve_executor
from .explore import expand_edge_level, expand_vertex_level
from .plan import Planner, check_embedding_cap

#: Version tag of the pickled run-state blob inside mid-run checkpoints.
#: 4: an ``MNIState`` pickles only its defining arrays, and both FSM apps
#: carry their cost counters in their app state.
_RUN_STATE_VERSION = 4

#: The lookup counters a hasher may keep (bliss-like baselines keep none).
_HASHER_COUNTERS = ("hits", "misses", "evictions")

__all__ = ["KaleidoEngine", "aggregate_part"]

logger = logging.getLogger("repro.engine")


def aggregate_part(
    app: MiningApplication, ctx: EngineContext, block: np.ndarray
) -> PatternMap:
    """Run the AggregatingMapper over one part's ``(rows, k)`` block.

    Pure per-part function (each part owns its own PatternMap — the
    paper's FSM avoids a concurrent hashmap the same way), so mapper
    parts go through the same executor seam as expansion parts.  The
    part's map is all it produces; the engine hands the maps to
    ``app.reduce`` in part-index order, so apps with positional output
    (FSM's per-row hashes, materialised matches) stay deterministic under
    concurrent executors.
    """
    pmap: PatternMap = {}
    app.map_block(ctx, block, pmap)
    return pmap


class KaleidoEngine:
    """Configurable two-phase graph mining engine.

    An engine is a reusable *session* over one graph: construct it once
    and call :meth:`run` many times.  Session state survives between
    runs — the graph, the configuration, the executor's worker pool, the
    hasher and its caches, the lazily built edge index, the spill store,
    the checkpoint directory, the tracer, the metrics registry and
    ``runs_completed`` — so a long-running caller (the service tier) pays
    the setup cost once per session, not once per query.  Run state —
    the memory meter, storage policy and planner, the store's
    ``IOStats``, the sanitizers, the checkpoint counts and the spilled
    parts — is built by each :meth:`run` and gone when it returns, so a
    run meters, spills and reports exactly as on a fresh engine.  Runs
    on one engine must be serialized by the caller; for concurrent
    queries, give each its own engine and share the (thread-safe) hasher
    across them, as :class:`repro.service.MiningService` does; its
    engines run their parts on the thread that serves the query.

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
        Each run's budget for intermediate data; exceeding it spills CSE
        levels.
    storage_mode:
        ``"auto"`` (spill when over budget), ``"memory"`` (never spill;
        budget ignored), or ``"spill-last"`` (always spill newly explored
        levels — the Table-4 "hybrid" configuration).
    use_prediction:
        Partition exploration work by predicted candidate sizes (paper
        default) or by plain embedding counts (the Fig.-17 baseline).
        The ``max_embeddings`` guard and the next level's size estimate
        read the predicted sizes either way.
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
        ``checkpoint_every``-th exploration iteration — new resident
        levels are written, spilled parts and the levels the run's
        previous checkpoint holds are hard-linked; crash debris in the
        directory is garbage-collected at construction, and
        ``run(app, resume=True)`` restarts from the deepest valid level,
        with the levels that were on disk reopened from the spill store.
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
        A :class:`repro.obs.MetricsRegistry` that each run folds its own
        counters/gauges/histograms into when it finishes (``io.*``,
        ``mem.*``, ``queue.*``, ``hasher.*``, ``storage.*``,
        ``checkpoint.*``); counters sum over the session's runs.  A
        fresh registry is created when not given; read it back from
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
        executor: "str | PartExecutor" = "serial",
        io_retry: RetryPolicy | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 1,
        on_checkpoint: Callable[[int, str], None] | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
        sanitize: bool = False,
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
        self.budget = MemoryBudget(memory_limit_bytes)
        self.storage_mode = storage_mode
        self.use_prediction = use_prediction
        self.parts_per_worker = parts_per_worker
        self.io_retry = io_retry
        self.executor = resolve_executor(executor)
        # Executors resolved from a spec string are engine-owned: close()
        # reaps their pools.  Caller-supplied instances stay caller-owned.
        self._owns_executor = not isinstance(executor, PartExecutor)
        # The session's spill store (its orphan sweep runs once, here);
        # without a spill_dir each spilling run gets a temp-dir store.
        self._store: PartStore | None = (
            PartStore(spill_dir, retry=io_retry, tracer=self.tracer, metrics=self.metrics)
            if spill_dir is not None
            else None
        )
        self.sanitize = sanitize
        #: Lazily built EdgeIndex, shared across this session's runs.
        self._edge_index: EdgeIndex | None = None
        #: How many runs this session has completed.
        self.runs_completed = 0
        #: The last run's spill IOStats (None if it had no store to spill to).
        self.io_stats: IOStats | None = None
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        if checkpoint_dir is not None:
            RunCheckpoint(checkpoint_dir).collect_garbage()

    # ------------------------------------------------------------------
    def run(
        self,
        app: MiningApplication,
        resume: bool = False,
        max_embeddings: int | None = None,
    ) -> MiningResult:
        """Run one application start to finish and report its costs.

        An engine may run many applications back to back.  Session state
        (worker pools, hash caches, the edge index, the spill store) is
        reused; the run builds its own memory meter, storage policy and
        planner, so its spill decisions, its result and the numbers it
        folds into ``self.metrics`` cover this run only.  Its spill parts
        are deleted before it returns, whether it succeeds or raises;
        ``self.io_stats`` then holds its I/O.

        With ``resume=True`` (requires ``checkpoint_dir``), the run
        restarts from the deepest valid mid-run checkpoint instead of
        from scratch; an empty or absent checkpoint directory simply
        starts over.  The resumed run produces the same final pattern
        map as an uninterrupted one.

        ``max_embeddings`` is the run's safety valve: the run aborts with
        :class:`~repro.errors.PlanError` before building any level the
        planner predicts above that many embeddings (None: no guard).
        Anything but ``None`` or an ``int`` >= 1 raises ``ValueError``
        before level 0 is built.  Exploration is exponential in depth;
        the service tier runs each query under its budget here and
        degrades or refuses it on the ``PlanError``.

        The run is recorded on ``self.tracer`` as one ``run`` span with
        nested ``level → {plan, execute, aggregate} → part`` children.
        Tracing never changes mined results.
        """
        check_embedding_cap(max_embeddings)
        if self.sanitize:
            from ..analysis.sanitizer import LockOrderSanitizer, PartPuritySanitizer

            sanitizer = PartPuritySanitizer(app)
            lock_sanitizer = LockOrderSanitizer()
            # The engine's lock-bearing collaborators: the executor's
            # pool bookkeeping and the hasher's cache statistics.
            lock_sanitizer.instrument(self.executor)
            lock_sanitizer.instrument(self.hasher)
            hot_phase = sanitizer.hot_phase
        else:
            sanitizer = None
            lock_sanitizer = None
            hot_phase = nullcontext
        policy = StoragePolicy(
            self.budget,
            MemoryMeter(),
            store=self._store,
            storage_mode=self.storage_mode,
            retry=self.io_retry,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        if self._store is not None:
            self._store.io = IOStats()
        planner = Planner(
            self.graph,
            policy,
            workers=self.workers,
            parts_per_worker=self.parts_per_worker,
            use_prediction=self.use_prediction,
            max_embeddings=max_embeddings,
            gathers=Planner.pattern_gathers(app),
        )
        hasher_before = [getattr(self.hasher, name, 0) for name in _HASHER_COUNTERS]
        try:
            with lock_sanitizer if lock_sanitizer is not None else nullcontext():
                with sanitizer if sanitizer is not None else nullcontext():
                    with self.tracer.span("run", app=app.name, graph=self.graph.name):
                        result = self._run(app, resume, planner, hot_phase)
        finally:
            # Delete the run's spill parts (and a temp spill directory).
            policy.close()
            self.io_stats = None if policy.store is None else policy.store.io
        self.runs_completed += 1
        self._fold_metrics(policy, result, hasher_before)
        return result

    def _fold_metrics(
        self, policy: StoragePolicy, result: MiningResult, hasher_before: list[int]
    ) -> None:
        """Fold one finished run's own numbers into ``self.metrics``.

        Counters then sum over the session's runs with each run counted
        once.  The ``hasher.*`` counters take the hasher's change across
        the run; a hasher shared with other engines (the service's
        sessions share one) also counts their lookups, so under
        concurrent sessions a run's delta can include theirs.
        """
        registry = self.metrics
        absorb_memory_meter(registry, policy.meter)
        if self.io_stats is not None:
            absorb_io_stats(registry, self.io_stats)
        registry.counter("storage.spilled_levels").inc(policy.spilled_levels)
        registry.counter("storage.demoted_levels").inc(policy.demoted_levels)
        if policy.last_io_plan is not None:
            registry.gauge("storage.io_plan.part_entries").set(
                policy.last_io_plan.part_entries
            )
        registry.counter("checkpoint.written").inc(result.extra["checkpoints_written"])
        registry.counter("checkpoint.failures").inc(result.extra["checkpoint_failures"])
        registry.counter("checkpoint.bytes_written").inc(
            result.extra["checkpoint_bytes_written"]
        )
        for name, before in zip(_HASHER_COUNTERS, hasher_before):
            registry.counter(f"hasher.{name}").inc(getattr(self.hasher, name, 0) - before)
        if hasattr(self.hasher, "__len__"):
            registry.gauge("hasher.cache_entries").set(len(self.hasher))

    def _run(
        self,
        app: MiningApplication,
        resume: bool,
        planner: Planner,
        hot_phase: Callable[[], ContextManager],
    ) -> MiningResult:
        started = time.perf_counter()
        policy = planner.policy
        meter = policy.meter
        schedules: list[Schedule] = []
        schedule_phases: list[str] = []
        phase_spans: dict[str, float] = {}
        plan_seconds = 0.0
        execute_seconds = 0.0
        aggregate_seconds = 0.0
        checkpoint_outcomes: Counter[str] = Counter()
        # The run's checkpoints; ``previous`` is the one it last wrote or
        # resumed from, never one an earlier run left behind.
        checkpoints = (
            None
            if self.checkpoint_dir is None
            else RunCheckpoint(self.checkpoint_dir, retry=self.io_retry)
        )

        ctx = EngineContext(graph=self.graph, engine=self)
        meter.set("graph", self.graph.nbytes)
        if app.induced == "edge":
            # Session reuse: the edge index is a pure function of the
            # graph, so build it once and share it across runs.
            if self._edge_index is None:
                self._edge_index = EdgeIndex(self.graph)
            ctx.edge_index = self._edge_index
            meter.set("edge_index", ctx.edge_index.nbytes)
        elif app.induced != "vertex":
            raise ValueError(f"unknown induced mode {app.induced!r}")

        # The app's query-pattern restriction set (if it has one); the
        # planner already carries the per-level gathers derived from it.
        pattern_restrictions = Planner.pattern_restrictions(app)

        roots = app.init(ctx)
        block_filter = app.block_filter(ctx)
        cse = CSE(roots)
        reduced: PatternMap = {}
        aggregated = False
        start_iteration = 0
        resumed_from: int | None = None
        if resume:
            restored = self._restore(ctx, app, roots, checkpoints, policy)
            if restored is not None:
                cse, reduced, aggregated, start_iteration, resumed_from = restored
        meter.set("cse", cse.nbytes_in_memory)
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
                    plan = planner.plan_level(ctx, cse)
                plan_seconds += time.perf_counter() - stage_started

                stage_started = time.perf_counter()
                with self.tracer.span(
                    "execute", parts=plan.num_parts, spill=plan.spill
                ), hot_phase():
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
                        )
                execute_seconds += time.perf_counter() - stage_started

                schedule = stats.schedule
                assert schedule is not None
                schedules.append(schedule)
                schedule_phases.append("explore")
                explore_span += schedule.span_seconds
                level_sizes.append(cse.size())
                meter.set("cse", cse.nbytes_in_memory)
                logger.debug(
                    "%s: level %d -> %d embeddings (%d candidates examined, "
                    "%.3fs span, %.2f MB accounted)",
                    app.name, cse.depth, cse.size(), stats.candidates_examined,
                    schedule.span_seconds, meter.current_bytes / 1e6,
                )

                if app.aggregate_every_iteration:
                    reduced, agg_span, agg_wall = self._aggregate(
                        ctx, app, cse, planner, hot_phase, schedules, schedule_phases
                    )
                    aggregated = True
                    explore_span += agg_span
                    aggregate_seconds += agg_wall
                    mask = app.prune(ctx, cse, reduced)
                    if mask is not None:
                        cse.filter_top_level(mask)
                        level_sizes[-1] = cse.size()
                        meter.set("cse", cse.nbytes_in_memory)
                outcome = self._maybe_checkpoint(
                    ctx, app, cse, iteration, reduced, aggregated, checkpoints, policy
                )
                if outcome is not None:
                    checkpoint_outcomes[outcome] += 1
            finally:
                self.tracer.end("level")
            if app.aggregate_every_iteration and cse.size() == 0:
                break
        phase_spans["explore"] = explore_span

        # ---------------- Phase 2: pattern aggregation ------------------
        if not app.aggregate_every_iteration or not aggregated:
            reduced, agg_span, agg_wall = self._aggregate(
                ctx, app, cse, planner, hot_phase, schedules, schedule_phases
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
            meter.peak_bytes / 1e6,
        )
        io = IOStats() if policy.store is None else policy.store.io
        return MiningResult(
            app_name=app.name,
            value=value,
            pattern_map=reduced,
            wall_seconds=wall,
            simulated_seconds=simulated_seconds,
            peak_memory_bytes=meter.peak_bytes,
            level_sizes=level_sizes,
            phase_spans=phase_spans,
            io_bytes_read=io.bytes_read,
            io_bytes_written=io.bytes_written,
            memory_snapshot=meter.snapshot(),
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
                "spilled_levels": policy.spilled_levels,
                "demoted_levels": policy.demoted_levels,
                "io_plan": (
                    None
                    if policy.last_io_plan is None
                    else policy.last_io_plan.as_dict()
                ),
                "resumed_from_level": resumed_from,
                "checkpoints_written": checkpoint_outcomes["written"],
                "checkpoint_failures": checkpoint_outcomes["failed"],
                "checkpoint_bytes_written": (
                    0 if checkpoints is None else checkpoints.bytes_written
                ),
                "io_retries": io.retries,
                "io_failed_deletes": io.failed_deletes,
                "sanitize": self.sanitize,
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

    # ------------------------------------------------------------------
    # Robustness plumbing: checkpointing, resume
    # ------------------------------------------------------------------
    def _maybe_checkpoint(
        self,
        ctx: EngineContext,
        app: MiningApplication,
        cse: CSE,
        iteration: int,
        reduced: PatternMap,
        aggregated: bool,
        checkpoints: RunCheckpoint | None,
        policy: StoragePolicy,
    ) -> str | None:
        """Write the per-level checkpoint for one completed iteration.

        Returns ``"written"``, ``"failed"``, or None when no checkpoint
        was due.  Checkpoints are an availability feature, not a
        correctness one: a failed write — a storage error past the
        store's retries, or a raw ``OSError`` from the manifest rename —
        is logged and counted, and the run carries on (the previous
        checkpoint, if any, stays valid — saves are atomic).
        """
        if checkpoints is None or (iteration + 1) % self.checkpoint_every:
            return None
        state = {
            "version": _RUN_STATE_VERSION,
            "app": app.name,
            "iteration": iteration,
            "aggregated": aggregated,
            "reduced": reduced,
            "app_state": app.checkpoint_state(ctx),
            "spilled_levels": policy.spilled_levels,
            "demoted_levels": policy.demoted_levels,
        }
        try:
            path = checkpoints.save(iteration, cse, pickle.dumps(state))
        except (StorageError, OSError) as exc:
            if self.tracer.enabled:
                self.tracer.instant("checkpoint-failure", iteration=iteration)
            logger.warning(
                "checkpoint after iteration %d failed (run continues): %s",
                iteration, exc,
            )
            return "failed"
        if self.tracer.enabled:
            self.tracer.instant("checkpoint", iteration=iteration)
        logger.debug("checkpointed iteration %d at %s", iteration, path)
        if self.on_checkpoint is not None:
            self.on_checkpoint(iteration, path)
        return "written"

    def _restore(
        self,
        ctx: EngineContext,
        app: MiningApplication,
        roots: np.ndarray,
        checkpoints: RunCheckpoint | None,
        policy: StoragePolicy,
    ) -> tuple[CSE, PatternMap, bool, int, int] | None:
        """Load the deepest valid checkpoint through ``policy`` (levels that
        were on disk come back on disk); None means start fresh."""
        if checkpoints is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        restored = policy.restore(checkpoints)
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
        policy.spilled_levels = state["spilled_levels"]
        policy.demoted_levels = state["demoted_levels"]
        checkpoints.previous = checkpoints.level_path(iteration)
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
        planner: Planner,
        hot_phase: Callable[[], ContextManager],
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
        meter = planner.policy.meter
        with self.tracer.span("aggregate", size=cse.size()):
            plan = planner.plan_aggregate(ctx, app, cse)

            def tasks():
                # The kernels' read path (the sequential walk): resident
                # levels slice their arrays, spilled ones their mmap parts.
                for start, end in plan.part_bounds:
                    yield partial(aggregate_part, app, ctx, cse.decode_block(start, end))

            with hot_phase():
                report = self.executor.run(
                    tasks(), workers=self.workers, tracer=self.tracer, phase="aggregate"
                )
            pmaps: list[PatternMap] = report.results
            meter.set("pattern_maps", sum(app.pmap_nbytes(m) for m in pmaps))
            if hasattr(self.hasher, "nbytes"):
                meter.set("hasher_cache", self.hasher.nbytes)
            schedule = report.schedule
            schedules.append(schedule)
            schedule_phases.append("aggregate")

            reduce_started = time.perf_counter()
            reduced = app.reduce(ctx, pmaps)
            reduce_seconds = time.perf_counter() - reduce_started
            meter.set("pattern_maps", app.pmap_nbytes(reduced))
        wall = time.perf_counter() - wall_started
        return reduced, schedule.span_seconds + reduce_seconds, wall

    def close(self) -> None:
        """Reap engine-owned worker pools (safe to call twice); each run
        already deleted its own spill parts."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "KaleidoEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
