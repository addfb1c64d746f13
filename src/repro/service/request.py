"""Query-tier request/response types and the app registry.

A :class:`QueryRequest` is the service's unit of work: *what* to mine
(application + ``k`` + params), *over what* (a named dataset or an
in-process :class:`~repro.graph.graph.Graph`), *for whom* (the tenant)
and *within what* (the :class:`QueryBudget`).  The service answers with
a :class:`QueryResult` carrying the route taken (GREEN / YELLOW / RED),
the cache outcome and the mined value.

Everything here is plain data — no engine imports — so the wire
protocol (:mod:`repro.service.protocol`) and the scheduler share one
vocabulary without a dependency cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from ..apps import (
    CliqueDiscovery,
    FrequentSubgraphMining,
    FSMResult,
    MotifCounting,
    TriangleCounting,
)
from ..core.api import MiningApplication, PatternMap
from ..core.plan import check_embedding_cap
from ..graph.graph import Graph

__all__ = [
    "APP_NAMES",
    "APPROXIMABLE_APPS",
    "QueryBudget",
    "QueryRequest",
    "QueryResult",
    "Route",
    "build_app",
]

#: Application names the query tier accepts (the CLI's vocabulary).
APP_NAMES = ("tc", "motif", "clique", "fsm")

#: Applications with a cheap approximate mode a query may degrade to.
APPROXIMABLE_APPS = frozenset({"motif"})


class Route(str, Enum):
    """How a query was served.

    ``GREEN``
        A result-cache hit: served instantly, no mining at all.
    ``YELLOW``
        The cheap path: sampling-based approximation
        (:mod:`repro.apps.approximate`) for interactive-latency answers
        — either requested outright (``mode="approximate"``) or a
        budget-exceeded degradation.
    ``RED``
        A full out-of-core engine run on an engine session.
    """

    GREEN = "GREEN"
    YELLOW = "YELLOW"
    RED = "RED"


def _is_count(value: Any) -> bool:
    """An ``int`` >= 1; ``bool`` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class QueryBudget:
    """Per-query cost bound and degradation policy.

    ``max_embeddings`` is the engine's guard: the query runs RED, and no
    level the run explores may be *predicted* above the cap (checked by
    the planner before that level is built).  When the guard trips, the
    query degrades to the approximate path (if ``allow_degraded`` and
    the app supports it) or is rejected with
    :class:`~repro.errors.QueryRejectedError`; either way it has paid
    for the levels below the guarded one.  ``samples`` sizes the
    degraded approximate run.  Both arrive from the wire unchecked, so
    construction raises ``ValueError`` unless ``max_embeddings`` is
    ``None`` or an ``int`` >= 1 and ``samples`` an ``int`` >= 1.
    """

    max_embeddings: int | None = None
    allow_degraded: bool = True
    samples: int = 400

    def __post_init__(self) -> None:
        check_embedding_cap(self.max_embeddings)
        if not _is_count(self.samples):
            raise ValueError(f"samples must be an integer >= 1, got {self.samples!r}")

    def to_json(self) -> dict[str, Any]:
        return {
            "max_embeddings": self.max_embeddings,
            "allow_degraded": self.allow_degraded,
            "samples": self.samples,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "QueryBudget":
        return cls(
            max_embeddings=payload.get("max_embeddings"),
            allow_degraded=bool(payload.get("allow_degraded", True)),
            samples=payload.get("samples", 400),
        )


@dataclass
class QueryRequest:
    """One tenant's mining query.

    The graph is named either by ``dataset``/``profile`` (resolved and
    cached by the service) or passed directly as ``graph`` (in-process
    callers).  ``params`` carries app-specific knobs — FSM's ``edges``
    and ``support``, the approximate mode's ``samples``/``seed`` — and
    participates in the cache key, canonicalised by :meth:`cache_params`.
    Construction raises ``ValueError`` unless a given ``samples`` is an
    ``int`` >= 1 and a given ``seed`` an ``int`` >= 0 (``bool`` is
    neither).
    """

    app: str
    k: int = 3
    params: Mapping[str, Any] = field(default_factory=dict)
    dataset: str | None = None
    profile: str = "bench"
    graph: Graph | None = None
    tenant: str = "default"
    budget: QueryBudget | None = None
    mode: str = "exact"  # "exact" | "approximate"

    def __post_init__(self) -> None:
        if self.app not in APP_NAMES:
            raise ValueError(f"unknown app {self.app!r} (choose from {APP_NAMES})")
        if self.mode not in ("exact", "approximate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "approximate" and self.app not in APPROXIMABLE_APPS:
            raise ValueError(f"app {self.app!r} has no approximate mode")
        if self.graph is None and self.dataset is None:
            raise ValueError("a query needs either a dataset name or a graph")
        if "samples" in self.params and not _is_count(self.params["samples"]):
            raise ValueError(
                f"samples must be an integer >= 1, got {self.params['samples']!r}"
            )
        seed = self.params.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")

    def cache_params(self) -> tuple:
        """Canonical, hashable form of everything that shapes the result.

        Sorted ``params`` items plus the mode (an approximate answer
        must never be served where an exact one was asked for, and
        vice versa) and, for approximate queries, the sample budget —
        different sample counts are different results.
        """
        items = tuple(sorted((str(k), v) for k, v in self.params.items()))
        extra: tuple = (self.mode,)
        if self.mode == "approximate" and self.budget is not None:
            extra += (self.budget.samples,)
        return items + extra


@dataclass
class QueryResult:
    """What the service answered one query with."""

    request_id: int
    tenant: str
    app: str
    route: Route
    cache_hit: bool
    value: Any
    pattern_map: PatternMap
    wall_seconds: float
    #: For YELLOW answers: the 95% CI half-widths per pattern hash.
    error_bars: dict[int, float] | None = None
    #: Why the query took its route (``reason``), plus per-route facts:
    #: ``origin_route`` (GREEN), ``samples`` and ``degraded`` (YELLOW;
    #: a degraded ``reason`` is the planner's guard message), and the
    #: engine's wall seconds, peak bytes and session runs (RED).
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """JSON-friendly projection for the wire protocol."""
        # An FSM map holds MNI views of every pattern met (short-circuited
        # supports are lower bounds); its answer is the frequent supports.
        patterns = self.value if isinstance(self.value, FSMResult) else self.pattern_map
        payload: dict[str, Any] = {
            "id": self.request_id,
            "status": "ok",
            "tenant": self.tenant,
            "app": self.app,
            "route": self.route.value,
            "cache": "hit" if self.cache_hit else "miss",
            "wall_seconds": self.wall_seconds,
            "patterns": {str(k): v for k, v in sorted(patterns.items())},
        }
        if self.error_bars is not None:
            payload["error_bars"] = {
                str(k): v for k, v in sorted(self.error_bars.items())
            }
        if self.extra:
            payload["extra"] = self.extra
        return payload


def build_app(app: str, k: int, params: Mapping[str, Any]) -> MiningApplication:
    """Instantiate the named mining application for one query."""
    if app == "tc":
        return TriangleCounting()
    if app == "motif":
        return MotifCounting(k)
    if app == "clique":
        return CliqueDiscovery(k)
    if app == "fsm":
        return FrequentSubgraphMining(
            num_edges=int(params.get("edges", 2)),
            support=int(params.get("support", 5)),
            exact_mni=bool(params.get("exact_mni", False)),
        )
    raise ValueError(f"unknown app {app!r}")
