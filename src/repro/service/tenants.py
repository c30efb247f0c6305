"""Per-tenant partitioning of the engine's window-cache/disk budgets.

One long-running :class:`~repro.engine.design.DesignEngine` serves every
tenant, but its window-compilation cache — and especially the persistent
frontier/refine disk tiers — must not let one tenant evict another's warm
state or blow the shared disk budget.  The registry therefore hands each
tenant its own :class:`~repro.engine.design.WindowCacheSpec`: a private
``cache_root/tenants/<tenant>/wincache`` directory and an equal slice of
the configured entry/file/byte budgets.  Each spec names its tenant as
the cache partition, and the engine keys its shared caches by spec
(``DesignEngine.shared_cache_for``), so tenants get fully isolated
in-memory caches — REFINE memo included — even without a disk tier,
while the protocol store and the worker pool stay shared — those are
keyed by content, not by tenant.

Admission is capacity-bounded: once ``max_tenants`` distinct tenants have
been seen, requests from new tenants are rejected with
:class:`TenantLimitError` (HTTP 429 at the server layer) instead of
silently shrinking everyone's budget mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.engine.design import DesignEngine, WindowCacheSpec
from repro.engine.wincache import WindowCompilationCache

__all__ = ["TenantBudgets", "TenantLimitError", "TenantRegistry"]


class TenantLimitError(RuntimeError):
    """The registry is at capacity and cannot admit another tenant."""


@dataclass(frozen=True)
class TenantBudgets:
    """Total service-wide cache budgets, divided equally among tenants.

    ``cache_root=None`` disables the disk tiers (memory-only partitioning);
    ``total_bytes=None`` leaves the byte budget unbounded, matching the
    engine's default.
    """

    max_tenants: int = 8
    cache_root: Optional[str] = None
    total_entries: int = 512
    total_files: int = WindowCompilationCache.DEFAULT_MAX_FRONTIER_FILES
    total_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")

    def spec_for(self, tenant: str) -> WindowCacheSpec:
        """The cache partition of ``tenant``: its slice of every budget."""
        share = self.max_tenants
        cache_dir = None
        if self.cache_root is not None:
            cache_dir = str(Path(self.cache_root) / "tenants" / tenant / "wincache")
        return WindowCacheSpec(
            enabled=True,
            cache_dir=cache_dir,
            max_entries=max(1, self.total_entries // share),
            max_files=max(1, self.total_files // share),
            max_bytes=(
                max(1, self.total_bytes // share)
                if self.total_bytes is not None
                else None
            ),
            partition=tenant,
        )


@dataclass
class TenantRegistry:
    """Tracks admitted tenants and their cache partitions.

    The registry is used from the batcher's single drain task only, so it
    needs no locking; the server's admission path calls :meth:`admit`
    before a request enters the queue.
    """

    budgets: TenantBudgets = field(default_factory=TenantBudgets)
    _specs: Dict[str, WindowCacheSpec] = field(default_factory=dict)

    def admit(self, tenant: str) -> WindowCacheSpec:
        """Return ``tenant``'s partition, admitting it if there is room.

        Raises :class:`TenantLimitError` when the tenant is new and the
        registry already holds ``max_tenants`` tenants.
        """
        spec = self._specs.get(tenant)
        if spec is None:
            if len(self._specs) >= self.budgets.max_tenants:
                raise TenantLimitError(
                    f"tenant capacity reached ({self.budgets.max_tenants}); "
                    f"cannot admit {tenant!r}"
                )
            spec = self.budgets.spec_for(tenant)
            self._specs[tenant] = spec
        return spec

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Admitted tenant names, in admission order."""
        return tuple(self._specs)

    def usage(self, engine: DesignEngine) -> Dict[str, Dict[str, int]]:
        """Per-tenant disk usage of the persistent tiers and REFINE-memo
        counters of the tenant's partition, for ``/metrics``."""
        usage: Dict[str, Dict[str, int]] = {}
        for tenant, spec in self._specs.items():
            cache = engine.shared_cache_for(spec)
            files, size = cache.disk_usage() if cache is not None else (0, 0)
            statistics = cache.statistics if cache is not None else None
            usage[tenant] = {
                "disk_files": files,
                "disk_bytes": size,
                "max_files": spec.max_files or 0,
                "max_entries": spec.max_entries,
                "refine_hits": statistics.refine_hits if statistics else 0,
                "refine_cold_runs": statistics.refine_cold_runs if statistics else 0,
            }
        return usage
