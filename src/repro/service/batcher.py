"""Micro-batching of concurrent design requests into population sweeps.

The engine's throughput comes from batch width: one
:meth:`~repro.engine.design.DesignEngine.design_population` call amortizes
pool dispatch and window compilation across every net it carries.
Serving each HTTP request with its own one-net sweep would throw that
away, so the batcher batches while the engine is busy:
the drain loop waits for one request, takes whatever else is already
queued (up to ``max_batch``) and runs that batch at once.  A lone request
never waits on a timer; requests that arrive while the engine runs queue
up and form the next batch, so concurrent clients still share one sweep.
Each batch is then served like this:

1. requests are grouped by ``(tenant, technology, methods)`` — the axes a
   single ``design_population`` call can carry;
2. within a group, requests with equal canonical digests collapse into one
   case (concurrent identical work runs once, every waiter gets the same
   result — digest equality guarantees payload equality);
3. each group becomes one ``design_population(cases, methods,
   technology=..., cache_spec=tenant_partition)`` call, executed on a
   single-flight worker thread (the engine owns a process pool; it is one
   engine, not a thread-safe one), and results are matched back to waiters
   positionally — the engine guarantees input-order results.

Failures split along the engine's taxonomy: a per-net failure
(``infeasible`` / ``crashed``) resolves only that request's future with a
``status: failed`` payload; an infrastructure failure of the whole sweep
rejects every future in the group.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import faults
from repro.engine.design import DesignEngine
from repro.service.schema import DesignRequest, response_payload
from repro.service.tenants import TenantRegistry
from repro.tech.nodes import get_node

__all__ = ["MicroBatcher", "group_requests"]


@dataclass
class _Waiter:
    """One queued request and the future its HTTP handler awaits."""

    request: DesignRequest
    future: "asyncio.Future[dict]"


@dataclass
class _Group:
    """One ``design_population`` call's worth of deduplicated requests."""

    tenant: str
    technology_name: str
    method_names: Tuple[str, ...]
    # digest -> all waiters for that identical request (dicts preserve
    # insertion order, so cases stay in arrival order).
    waiters: "Dict[str, List[_Waiter]]" = field(default_factory=dict)


def group_requests(waiters: List[_Waiter]) -> List[_Group]:
    """Partition a drained batch into per-sweep groups, deduplicated.

    Pure so the grouping/dedup policy is unit-testable without a running
    event loop or engine.
    """
    groups: Dict[Tuple[str, str, Tuple[str, ...]], _Group] = {}
    for waiter in waiters:
        request = waiter.request
        axis = (request.tenant, request.technology_name, request.method_names)
        group = groups.get(axis)
        if group is None:
            group = _Group(
                tenant=request.tenant,
                technology_name=request.technology_name,
                method_names=request.method_names,
            )
            groups[axis] = group
        group.waiters.setdefault(request.digest, []).append(waiter)
    return list(groups.values())


class MicroBatcher:
    """Collects concurrent requests and drains them as population sweeps.

    ``submit`` is the only producer API: it enqueues a request (raising
    :class:`asyncio.QueueFull` when admission control says no) and returns
    the future its result payload will arrive on.  One background task
    drains the queue; one worker thread runs the engine.
    """

    def __init__(
        self,
        engine: DesignEngine,
        registry: TenantRegistry,
        *,
        max_queue: int = 256,
        max_batch: int = 64,
    ) -> None:
        self._engine = engine
        self._registry = registry
        self._queue: "asyncio.Queue[_Waiter]" = asyncio.Queue(maxsize=max_queue)
        self._max_batch = max_batch
        # Single-flight: the engine owns the process pool and the shared
        # caches; concurrent design_population calls are serialized here.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="rip-engine"
        )
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self.batches_drained = 0
        self.requests_served = 0
        self.requests_deduplicated = 0
        # Cumulative EngineStatistics across every sweep this batcher ran.
        self.states_generated = 0
        self.designs_completed = 0
        self.engine_wall_seconds = 0.0
        self.nets_failed = 0

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet drained into a sweep."""
        return self._queue.qsize()

    def start(self) -> None:
        """Start the drain loop on the running event loop."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_forever()
            )

    async def stop(self) -> None:
        """Cancel the drain loop and release the worker thread."""
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        self._executor.shutdown(wait=True)

    def submit(self, request: DesignRequest) -> "asyncio.Future[dict]":
        """Enqueue one validated request; raises ``asyncio.QueueFull``."""
        future: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Waiter(request=request, future=future))
        return future

    async def _drain_forever(self) -> None:
        while True:
            batch = [await self._queue.get()]
            # Only what is already queued joins: whatever arrived while the
            # previous batch ran. Nothing waits for more.
            while len(batch) < self._max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[_Waiter]) -> None:
        loop = asyncio.get_running_loop()
        self.batches_drained += 1
        for group in group_requests(batch):
            unique = [waiters[0].request for waiters in group.waiters.values()]
            all_waiters = [
                waiter for waiters in group.waiters.values() for waiter in waiters
            ]
            self.requests_served += len(all_waiters)
            self.requests_deduplicated += len(all_waiters) - len(unique)
            try:
                # Fault-injection hook before the engine sweep of one
                # drained batch: exception-mode rejects every waiter of the
                # group (the sweep-failure path the breaker tests exercise).
                faults.maybe_inject("service.batch")
                spec = self._registry.admit(group.tenant)
                technology = get_node(group.technology_name)
                methods = unique[0].methods()
                population = await loop.run_in_executor(
                    self._executor,
                    lambda: self._engine.design_population(
                        [request.case for request in unique],
                        methods,
                        technology=technology,
                        cache_spec=spec,
                    ),
                )
            except Exception as sweep_failure:
                for waiter in all_waiters:
                    if not waiter.future.done():
                        waiter.future.set_exception(sweep_failure)
                continue
            statistics = population.statistics
            self.states_generated += statistics.states_generated
            self.designs_completed += statistics.num_designs
            self.engine_wall_seconds += statistics.wall_clock_seconds
            self.nets_failed += len(population.failures())
            # Input-order guarantee: nets come back in case order, so the
            # i-th result belongs to the i-th unique request.
            for request, net_result in zip(unique, population.nets):
                payload = response_payload(request, net_result)
                for waiter in group.waiters[request.digest]:
                    if not waiter.future.done():
                        waiter.future.set_result(payload)
