"""Mining-as-a-service: the multi-tenant query tier.

A long-running :class:`MiningService` multiplexes concurrent
:class:`QueryRequest`s, each on its own thread, over one shared
pattern-hash cache, with per-tenant admission control
(:class:`TenantQuota`), a content-keyed :class:`ResultCache` and
GREEN / YELLOW / RED routing: cache hits are served instantly,
approximate-mode queries ride the sampling estimator, and every other
query gets a full out-of-core engine run on a warm session under its
budget as the engine's ``max_embeddings`` guard — degrading to sampling,
or refused, when the planner predicts a level above it.  :mod:`repro.service.protocol` speaks line-delimited JSON for
the ``repro serve`` / ``repro query`` CLI front end.
"""

from .cache import CachedAnswer, CacheKey, ResultCache
from .protocol import ServiceServer, handle_payload, parse_request, serve_stream
from .request import (
    APP_NAMES,
    APPROXIMABLE_APPS,
    QueryBudget,
    QueryRequest,
    QueryResult,
    Route,
    build_app,
)
from .service import MiningService
from .sessions import EngineSession, SessionPool
from .tenants import TenantQuota, TenantRegistry

__all__ = [
    "APP_NAMES",
    "APPROXIMABLE_APPS",
    "CacheKey",
    "CachedAnswer",
    "EngineSession",
    "MiningService",
    "QueryBudget",
    "QueryRequest",
    "QueryResult",
    "ResultCache",
    "Route",
    "ServiceServer",
    "SessionPool",
    "TenantQuota",
    "TenantRegistry",
    "build_app",
    "handle_payload",
    "parse_request",
    "serve_stream",
]
