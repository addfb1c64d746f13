"""Per-tenant quotas, admission control and scoped accounting.

Admission is the cheapest place to protect the shared executor pool: a
tenant with ``max_concurrent`` queries already in flight is refused with
:class:`~repro.errors.QuotaExceededError` *before* any graph is loaded
or any engine session acquired, so one chatty tenant cannot starve the
others of pool capacity.  Quotas may also pin a per-tenant embedding
ceiling, clamping whatever budget the query itself carries.

Each tenant's counters live under the ``tenant.<name>.*`` namespace of
the shared registry via :class:`~repro.obs.metrics.MetricsView` — one
snapshot shows every tenant, and a tenant's view cannot write outside
its own prefix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.plan import check_embedding_cap
from ..errors import QuotaExceededError
from ..obs.metrics import MetricsRegistry, MetricsView

__all__ = ["TenantQuota", "TenantRegistry"]


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant.

    ``max_concurrent`` bounds in-flight queries (admission control);
    ``max_embeddings`` is an optional per-tenant ceiling on the
    per-query budget: the smaller of the two becomes the engine's
    guard, with :class:`~repro.service.request.QueryBudget`'s meaning
    (no explored level may be predicted above it) and validation.
    """

    max_concurrent: int = 4
    max_embeddings: int | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        check_embedding_cap(self.max_embeddings)


class TenantRegistry:
    """Tracks per-tenant quotas and in-flight query counts."""

    def __init__(
        self,
        default_quota: TenantQuota | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.default_quota = default_quota if default_quota is not None else TenantQuota()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._quotas: dict[str, TenantQuota] = {}  # guarded-by: _lock
        self._inflight: dict[str, int] = {}  # guarded-by: _lock

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        with self._lock:
            self._quotas[tenant] = quota

    def quota(self, tenant: str) -> TenantQuota:
        with self._lock:
            return self._quotas.get(tenant, self.default_quota)

    def view(self, tenant: str) -> MetricsView:
        """The tenant's scoped metrics view (``tenant.<name>.*``)."""
        return self._metrics.view(f"tenant.{tenant}")

    def inflight(self, tenant: str) -> int:
        with self._lock:
            return self._inflight.get(tenant, 0)

    def admit(self, tenant: str) -> None:
        """Count one query in, or refuse it.

        Raises :class:`QuotaExceededError` when the tenant is already at
        its concurrency cap; on success the caller *must* pair this with
        :meth:`release` (the service does so in a ``finally``).
        """
        view = self.view(tenant)
        with self._lock:
            quota = self._quotas.get(tenant, self.default_quota)
            current = self._inflight.get(tenant, 0)
            if current >= quota.max_concurrent:
                rejected = True
            else:
                self._inflight[tenant] = current + 1
                rejected = False
        if rejected:
            view.counter("rejected").inc()
            raise QuotaExceededError(
                f"tenant {tenant!r} already has {current} queries in flight "
                f"(max_concurrent={quota.max_concurrent})"
            )
        view.counter("admitted").inc()
        view.gauge("inflight").set(current + 1)

    def release(self, tenant: str) -> None:
        with self._lock:
            current = self._inflight.get(tenant, 0)
            if current <= 0:
                raise ValueError(f"release without admit for tenant {tenant!r}")
            self._inflight[tenant] = current - 1
        self.view(tenant).gauge("inflight").set(current - 1)

    def clamp_budget(self, tenant: str, max_embeddings: int | None) -> int | None:
        """The effective embedding cap: min(query budget, tenant ceiling)."""
        ceiling = self.quota(tenant).max_embeddings
        if ceiling is None:
            return max_embeddings
        if max_embeddings is None:
            return ceiling
        return min(max_embeddings, ceiling)
