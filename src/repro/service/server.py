"""The ``rip serve`` daemon: a stdlib asyncio HTTP/1.1 design service.

One process, one engine-lifetime :class:`~repro.engine.design.DesignEngine`
(and therefore one worker pool, one protocol store, one set of per-tenant
window caches), many concurrent clients.  The HTTP layer is deliberately
minimal — :mod:`asyncio` streams, no framework — because the protocol is
three routes:

``GET /healthz``
    Liveness: ``200 {"status": "ok"}`` once the batcher is draining.

``GET /metrics``
    Engine statistics (cumulative across sweeps), protocol-store and
    sanitizer counters, queue depth, batching/dedup counters, and
    per-tenant disk usage of the partitioned window caches.

``POST /design``
    A single request object → one JSON response (``200`` with records,
    ``400`` malformed, ``429`` queue full / tenant capacity, ``500``
    sweep infrastructure failure, ``504`` per-request timeout).  A
    ``{"requests": [...]}`` envelope → a chunked ``application/x-ndjson``
    stream: one line per request, written as each result finishes (not in
    submission order — lines carry ``index`` and the request digest).
    Malformed entries and per-net failures become per-line statuses; they
    never abort the other entries, mirroring the engine's per-net fault
    isolation.

Admission control is layered: the batcher's bounded queue rejects bursts
(``429``), the tenant registry rejects tenants beyond capacity (``429``),
``asyncio.wait_for`` bounds each request's residence time (``504`` /
a ``timeout`` line), and while the engine's supervised worker pool is
rebuilding after a collapse new design requests degrade to ``503`` +
``Retry-After`` (the recovery counters appear in ``/metrics`` under
``recovery``).  Timing uses the event loop's monotonic clock only —
wall-clock time never feeds results (determinism rule R4).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import sanitize
from repro.engine.design import DesignEngine
from repro.service.batcher import MicroBatcher
from repro.service.schema import RequestError, parse_request
from repro.service.tenants import TenantBudgets, TenantLimitError, TenantRegistry

__all__ = ["DesignService", "run_service", "serve_in_background"]

#: Request bodies above this are rejected with 413 before being read.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: At most this many entries in one ``{"requests": [...]}`` envelope.
MAX_ENVELOPE = 256

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: ``Retry-After`` (seconds) sent with 503 while the pool is rebuilding —
#: rebuilds re-run the worker initializer and finish well within this.
RETRY_AFTER_SECONDS = 1


class DesignService:
    """The daemon: owns the engine adapter stack and the listening socket."""

    def __init__(
        self,
        engine: DesignEngine,
        *,
        budgets: Optional[TenantBudgets] = None,
        max_queue: int = 256,
        max_batch: int = 64,
        request_timeout_seconds: float = 60.0,
    ) -> None:
        self._engine = engine
        self._registry = TenantRegistry(budgets=budgets or TenantBudgets())
        self._batcher = MicroBatcher(
            engine,
            self._registry,
            max_queue=max_queue,
            max_batch=max_batch,
        )
        self._request_timeout = request_timeout_seconds
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at: Optional[float] = None

    @property
    def engine(self) -> DesignEngine:
        """The engine every request is served by."""
        return self._engine

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batcher (exposed for tests and metrics)."""
        return self._batcher

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------ #
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the socket and start the batcher's drain loop."""
        self._batcher.start()
        self._started_at = asyncio.get_running_loop().time()
        self._server = await asyncio.start_server(self._handle, host, port)

    async def stop(self) -> None:
        """Close the socket, drain the batcher, release the engine."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._batcher.stop()
        self._engine.close()

    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` payload."""
        loop = asyncio.get_running_loop()
        batcher = self._batcher
        store_stats = self._engine.store_statistics
        payload: Dict[str, Any] = {
            "uptime_seconds": (
                loop.time() - self._started_at if self._started_at is not None else 0.0
            ),
            "queue_depth": batcher.queue_depth,
            "requests_served": batcher.requests_served,
            "requests_deduplicated": batcher.requests_deduplicated,
            "batches_drained": batcher.batches_drained,
            "nets_failed": batcher.nets_failed,
            "engine": {
                "workers": self._engine.workers,
                "states_generated": batcher.states_generated,
                "designs_completed": batcher.designs_completed,
                "wall_clock_seconds": batcher.engine_wall_seconds,
            },
            "store": asdict(store_stats),
            "sanitizer": (
                asdict(sanitize.statistics()) if sanitize.enabled() else None
            ),
            "tenants": self._registry.usage(self._engine),
            # Breaker section: the supervised pool's recovery counters
            # (rebuilds/retries/quarantined/timeouts + the live rebuilding
            # flag driving the 503 degradation).
            "recovery": self._engine.recovery.snapshot(),
        }
        return payload

    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, path, _version = request_line.decode("ascii").split()
            except ValueError:
                await _respond(writer, 400, {"error": "malformed request line"})
                return
            headers = await _read_headers(reader)
            if headers is None:
                await _respond(writer, 400, {"error": "malformed headers"})
                return

            if method == "GET" and path == "/healthz":
                await _respond(writer, 200, {"status": "ok"})
            elif method == "GET" and path == "/metrics":
                await _respond(writer, 200, self.metrics())
            elif path == "/design" and method != "POST":
                await _respond(writer, 405, {"error": "POST /design"})
            elif method == "POST" and path == "/design":
                await self._handle_design(reader, writer, headers)
            else:
                await _respond(writer, 404, {"error": f"no route {path}"})
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to report to it
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_design(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Dict[str, str],
    ) -> None:
        if self._engine.recovery.rebuilding:
            # The supervised pool is mid-rebuild after a worker collapse:
            # shed new work with an explicit retry hint instead of queueing
            # behind an engine that is busy recovering.
            await _respond(
                writer,
                503,
                {"error": "worker pool is rebuilding; retry shortly"},
                extra_headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        length_text = headers.get("content-length")
        if length_text is None:
            await _respond(writer, 411, {"error": "Content-Length required"})
            return
        try:
            length = int(length_text)
        except ValueError:
            await _respond(writer, 400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            await _respond(writer, 413, {"error": f"body over {MAX_BODY_BYTES} bytes"})
            return
        if headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length)
        try:
            data = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            await _respond(writer, 400, {"error": "body is not valid JSON"})
            return

        if isinstance(data, dict) and isinstance(data.get("requests"), list):
            await self._handle_envelope(writer, data["requests"])
        else:
            await self._handle_single(writer, data)

    async def _handle_single(
        self, writer: asyncio.StreamWriter, data: Any
    ) -> None:
        try:
            request = parse_request(data)
            self._registry.admit(request.tenant)
            future = self._batcher.submit(request)
        except RequestError as invalid:
            await _respond(writer, 400, {"error": str(invalid)})
            return
        except TenantLimitError as full:
            await _respond(writer, 429, {"error": str(full)})
            return
        except asyncio.QueueFull:
            await _respond(writer, 429, {"error": "design queue is full; retry later"})
            return
        try:
            payload = await asyncio.wait_for(future, timeout=self._request_timeout)
        except asyncio.TimeoutError:
            await _respond(
                writer,
                504,
                {"error": f"request timed out after {self._request_timeout:g}s"},
            )
            return
        except Exception as sweep_failure:
            await _respond(writer, 500, {"error": str(sweep_failure)})
            return
        await _respond(writer, 200, payload)

    async def _handle_envelope(
        self, writer: asyncio.StreamWriter, entries: List[Any]
    ) -> None:
        if len(entries) > MAX_ENVELOPE:
            await _respond(
                writer, 413, {"error": f"at most {MAX_ENVELOPE} requests per envelope"}
            )
            return

        # Everything from here on streams: per-entry problems become lines,
        # not status codes, so one bad entry cannot abort its siblings.
        immediate: List[Dict[str, Any]] = []
        pending: List["asyncio.Task[Dict[str, Any]]"] = []
        for index, entry in enumerate(entries):
            try:
                request = parse_request(entry)
                self._registry.admit(request.tenant)
                future = self._batcher.submit(request)
            except RequestError as invalid:
                immediate.append(
                    {"index": index, "status": "rejected", "error": str(invalid)}
                )
                continue
            except (TenantLimitError, asyncio.QueueFull) as refused:
                immediate.append(
                    {"index": index, "status": "rejected", "error": str(refused)}
                )
                continue
            pending.append(
                asyncio.get_running_loop().create_task(
                    self._settle(index, request.digest, future)
                )
            )

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        for line in immediate:
            await _write_chunk(writer, line)
        for task in asyncio.as_completed(pending):
            await _write_chunk(writer, await task)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _settle(
        self, index: int, digest: str, future: "asyncio.Future[dict]"
    ) -> Dict[str, Any]:
        """One streamed line: the result, a timeout, or a sweep failure."""
        try:
            payload = dict(
                await asyncio.wait_for(future, timeout=self._request_timeout)
            )
            payload["index"] = index
            return payload
        except asyncio.TimeoutError:
            return {
                "index": index,
                "request": digest,
                "status": "timeout",
                "error": f"request timed out after {self._request_timeout:g}s",
            }
        except Exception as sweep_failure:
            return {
                "index": index,
                "request": digest,
                "status": "error",
                "error": str(sweep_failure),
            }


# --------------------------------------------------------------------------- #
# plumbing
# --------------------------------------------------------------------------- #
async def _read_headers(reader: asyncio.StreamReader) -> Optional[Dict[str, str]]:
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            return None
        if not _:
            return None
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            return None


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, Any],
    *,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    extras = ""
    if extra_headers:
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in extra_headers.items()
        )
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extras}"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()


async def _write_chunk(writer: asyncio.StreamWriter, line: Dict[str, Any]) -> None:
    data = json.dumps(line).encode("utf-8") + b"\n"
    writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
    await writer.drain()


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #
async def _serve_until(service: DesignService, host: str, port: int, stop: asyncio.Event) -> None:
    await service.start(host, port)
    # The parseable readiness line CI and the smoke harness wait for.
    print(f"rip serve: listening on http://{host}:{service.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await service.stop()


def run_service(
    engine: DesignEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    budgets: Optional[TenantBudgets] = None,
    max_queue: int = 256,
    max_batch: int = 64,
    request_timeout_seconds: float = 60.0,
) -> None:
    """Run the daemon in the foreground until SIGINT/SIGTERM."""
    service = DesignService(
        engine,
        budgets=budgets,
        max_queue=max_queue,
        max_batch=max_batch,
        request_timeout_seconds=request_timeout_seconds,
    )

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await _serve_until(service, host, port, stop)

    asyncio.run(main())


class BackgroundService:
    """A service running on its own thread/event loop (test harnesses)."""

    def __init__(self, service: DesignService, host: str) -> None:
        self._service = service
        self._host = host
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self.port: Optional[int] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def service(self) -> DesignService:
        return self._service

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self._service.start(self._host, 0)
            self.port = self._service.port
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await self._service.stop()

        try:
            asyncio.run(main())
        except BaseException:  # pragma: no cover - surfaced via join timeout
            self._ready.set()
            raise

    def start(self) -> "BackgroundService":
        self._thread.start()
        if not self._ready.wait(timeout=30.0) or self.port is None:
            raise RuntimeError("background design service failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)


def serve_in_background(
    engine: DesignEngine, *, host: str = "127.0.0.1", **service_kwargs: Any
) -> BackgroundService:
    """Start a :class:`DesignService` on a daemon thread and wait for it.

    Returns the running :class:`BackgroundService`; call ``.stop()`` to
    shut it down (which also closes the engine).
    """
    service = DesignService(engine, **service_kwargs)
    return BackgroundService(service, host).start()
