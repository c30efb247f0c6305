"""Multi-tenant design service on top of :class:`~repro.engine.DesignEngine`.

The ROADMAP's "millions of users" north star made literal: a long-running
asyncio HTTP daemon (``rip serve``) that accepts (net, targets, technology,
method) design requests from many concurrent clients, micro-batches them
into :meth:`~repro.engine.design.DesignEngine.design_population` calls to
amortize pool and compile cost, and streams per-net results back as
they finish.  Everything is standard library: :mod:`asyncio` streams plus a
minimal HTTP/1.1 layer in :mod:`repro.service.server`.

Layout:

* :mod:`repro.service.schema` — the wire protocol: request validation and
  canonicalization through :mod:`repro.utils.canonical` (a request's
  identity *is* its canonical cache digest);
* :mod:`repro.service.tenants` — per-tenant partitioning of the
  window-cache/disk budgets;
* :mod:`repro.service.batcher` — the micro-batcher turning concurrent
  requests into deduplicated ``design_population`` groups;
* :mod:`repro.service.server` — the HTTP daemon: admission control
  (bounded queue, 429 on overload), per-request timeouts, ``/healthz`` and
  ``/metrics``.

The contract that makes the service trustworthy is the same oracle
discipline every fast path in this repo carries: the records a client
receives are **bit-identical** to a direct serial
``DesignEngine.design_population`` sweep of the same requests (asserted by
``tests/test_service.py`` and the ``service`` benchmark section).
"""

from repro.service.batcher import MicroBatcher
from repro.service.schema import DesignRequest, RequestError, parse_request
from repro.service.server import DesignService, run_service, serve_in_background
from repro.service.tenants import TenantBudgets, TenantLimitError, TenantRegistry

__all__ = [
    "DesignRequest",
    "DesignService",
    "MicroBatcher",
    "RequestError",
    "TenantBudgets",
    "TenantLimitError",
    "TenantRegistry",
    "parse_request",
    "run_service",
    "serve_in_background",
]
