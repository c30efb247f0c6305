"""Self-healing sweep execution: a supervised worker pool and a sweep journal.

A fleet-scale population sweep (thousands of nets, hours of wall clock)
must survive everything short of losing the disk.  The plain
``ProcessPoolExecutor.map`` path cannot: one hard worker death (SIGKILL,
OOM, native segfault) raises ``BrokenProcessPool``, aborts the whole call
and discards every completed-but-unreturned result, and a hung worker
stalls the sweep forever.  This module supplies the two missing layers:

:class:`SupervisedExecutor`
    Wraps a ``ProcessPoolExecutor`` with per-task submission tracking.  On
    pool collapse it rebuilds the pool (re-running the same initializer, so
    workers re-attach the shared window cache) and resubmits the in-flight
    tasks under a bounded :class:`RetryPolicy` with exponential backoff.
    Because a collapse with several tasks in flight cannot be attributed to
    one of them, suspects are re-driven through a **serial isolation
    drain** (one task in flight at a time) until the pool proves healthy
    again — a second collapse in the drain is attributable by construction,
    and a task that collapses the pool on its final attempt is
    **quarantined** as a per-task ``poisoned`` failure (attempt count and
    worker signal/exit info recorded) while its siblings complete.  With a
    ``task_timeout_s`` deadline, a hung worker is reaped (the pool's
    processes are killed and the pool rebuilt), the task is terminal with
    kind ``timeout``, and innocent tasks killed alongside are resubmitted
    without being charged an attempt.  All recovery activity is counted on
    a shared :class:`RecoveryMonitor` so the CLI, the benchmarks and the
    service's ``/metrics`` breaker section can observe it.

:class:`SweepJournal`
    A versioned, self-keyed, append-only checkpoint of completed per-task
    results under the cache directory.  The journal file name embeds a
    digest of the full sweep identity (population fingerprints, methods,
    targets, DP context), the header repeats it, and every entry line
    carries its own payload digest — the same evict-on-corruption
    discipline as the protocol store and the window cache's disk tiers: a
    stale or corrupt header evicts the whole file, a torn tail line is
    dropped, and replayed entries are byte-for-byte what was recorded.  A
    killed driver (Ctrl-C, OOM, preemption) therefore loses at most the
    in-flight tasks; ``rip sweep --resume`` replays journal hits and
    executes only the remainder.

Both layers are deterministic in their *results*: tasks are pure functions
of their payloads, so any schedule of retries and rebuilds yields records
bit-identical to an all-healthy serial sweep — asserted by the
fault-injection suites (``REPRO_FAULTS``, :mod:`repro.analysis.faults`).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.utils.canonical import stable_digest
from repro.utils.validation import require

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "RecoveryMonitor",
    "RetryPolicy",
    "SupervisedExecutor",
    "SweepJournal",
    "TaskFailure",
    "TaskOutcome",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for pool-collapse suspects.

    ``max_attempts`` counts *submissions* of one task: a task whose final
    allowed attempt still collapses the pool is quarantined.  The backoff
    before re-submission is ``backoff_s * backoff_factor**(attempt - 1)``.
    """

    max_attempts: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.backoff_s >= 0.0, "backoff_s must be >= 0")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before submitting attempt ``attempt + 1``."""
        return self.backoff_s * self.backoff_factor ** max(0, attempt - 1)


class RecoveryMonitor:
    """Shared recovery counters of one engine (thread-safe, service-visible).

    ``rebuilding`` is True for the duration of a pool rebuild — the design
    service degrades new requests to 503 + ``Retry-After`` while it is set.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.rebuilds = 0
        self.retries = 0
        self.quarantined = 0
        self.timeouts = 0
        self.rebuilding = False

    def count(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def set_rebuilding(self, value: bool) -> None:
        with self._lock:
            self.rebuilding = value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "rebuilds": self.rebuilds,
                "retries": self.retries,
                "quarantined": self.quarantined,
                "timeouts": self.timeouts,
                "rebuilding": self.rebuilding,
            }


@dataclass(frozen=True)
class TaskFailure:
    """Terminal supervisor-level failure of one task.

    ``kind`` is ``"poisoned"`` (the task collapsed the pool on its final
    attempt) or ``"timeout"`` (the task exceeded its deadline and its
    worker was reaped); ``detail`` records the worker signal/exit info or
    the deadline.
    """

    kind: str
    attempts: int
    detail: str


@dataclass(frozen=True)
class TaskOutcome:
    """What became of one submitted task: a value or a terminal failure."""

    value: Any = None
    failure: Optional[TaskFailure] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


class SupervisedExecutor:
    """A ``ProcessPoolExecutor`` that survives worker death and hangs.

    ``initializer``/``initargs`` are re-run on every rebuilt pool, so
    worker processes re-attach whatever shared state the original pool had
    (the window cache spec).
    """

    def __init__(
        self,
        *,
        max_workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        retry: Optional[RetryPolicy] = None,
        task_timeout_s: Optional[float] = None,
        monitor: Optional[RecoveryMonitor] = None,
    ) -> None:
        require(max_workers >= 1, "max_workers must be >= 1")
        if task_timeout_s is not None:
            require(task_timeout_s > 0.0, "task_timeout_s must be > 0")
        self._max_workers = max_workers
        self._initializer = initializer
        self._initargs = initargs
        self._retry = retry if retry is not None else RetryPolicy()
        self._task_timeout_s = task_timeout_s
        self._monitor = monitor if monitor is not None else RecoveryMonitor()
        self._pool: Optional[ProcessPoolExecutor] = None
        # Rolling snapshot of the current pool's worker processes — kept so
        # exit codes/signals are still readable after the executor reaps a
        # dead worker out of its internal bookkeeping.
        self._worker_procs: List[Any] = []

    @property
    def monitor(self) -> RecoveryMonitor:
        return self._monitor

    # ------------------------------------------------------------------ #
    def run(
        self,
        fn: Callable[..., Any],
        payloads: Sequence[Any],
        *,
        keys: Optional[Sequence[str]] = None,
        on_result: Optional[Callable[[int, TaskOutcome], None]] = None,
    ) -> List[TaskOutcome]:
        """Execute ``fn(payload, attempt)`` for every payload, supervised.

        Returns one :class:`TaskOutcome` per payload, in input order.
        ``on_result`` is called with ``(index, outcome)`` as each task
        becomes terminal (success, quarantine or timeout) — the engine
        streams journal entries from it.  Ordinary task exceptions (the
        pool-safe infrastructure errors) propagate unchanged; only pool
        collapse and deadline expiry are handled here.
        """
        total = len(payloads)
        if keys is not None:
            task_keys = list(keys)
        else:
            task_keys = ["task-" + format(i, "d") for i in range(total)]
        require(len(task_keys) == total, "keys must match payloads")
        outcomes: List[Optional[TaskOutcome]] = [None] * total
        attempts = [0] * total
        pending: deque = deque(range(total))
        isolation: deque = deque()
        in_flight: Dict[Any, int] = {}
        started_at: Dict[int, float] = {}
        remaining = total
        self._pool = self._make_pool()

        def settle(index: int, outcome: TaskOutcome) -> None:
            outcomes[index] = outcome
            if on_result is not None:
                on_result(index, outcome)

        try:
            while remaining:
                broken_at_submit = self._fill(
                    fn, payloads, attempts, pending, isolation, in_flight, started_at
                )
                if broken_at_submit:
                    remaining -= self._recover(
                        [], in_flight, started_at, isolation, attempts, task_keys, settle
                    )
                    continue
                finished = self._wait(in_flight, started_at)
                broken: List[int] = []
                for future in finished:
                    index = in_flight.pop(future)
                    started_at.pop(index, None)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken.append(index)
                    else:
                        remaining -= 1
                        settle(index, TaskOutcome(value=value, attempts=attempts[index]))
                if broken:
                    remaining -= self._recover(
                        broken, in_flight, started_at, isolation, attempts, task_keys, settle
                    )
                elif self._task_timeout_s is not None:
                    remaining -= self._reap_expired(
                        in_flight, started_at, pending, attempts, task_keys, settle
                    )
        finally:
            self.shutdown()
        return outcomes  # type: ignore[return-value]  # remaining == 0: all settled

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Tear the current pool down (idempotent; waits for clean pools)."""
        pool = self._pool
        self._pool = None
        self._worker_procs = []
        if pool is None:
            return
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    # ------------------------------------------------------------------ #
    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self._max_workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    def _fill(
        self,
        fn: Callable[..., Any],
        payloads: Sequence[Any],
        attempts: List[int],
        pending: deque,
        isolation: deque,
        in_flight: Dict[Any, int],
        started_at: Dict[int, float],
    ) -> bool:
        """Submit work up to the current width; True when the pool is broken.

        While the isolation queue holds collapse suspects the width is 1
        (one suspect in flight at a time — a further collapse is then
        attributable to it); otherwise the full worker count.
        """
        while True:
            if isolation:
                if in_flight:
                    return False
                queue = isolation
            elif pending:
                if len(in_flight) >= self._max_workers:
                    return False
                queue = pending
            else:
                return False
            index = queue.popleft()
            attempts[index] += 1
            try:
                future = self._pool.submit(fn, payloads[index], attempts[index])
            except BrokenProcessPool:
                attempts[index] -= 1
                queue.appendleft(index)
                return True
            in_flight[future] = index
            started_at[index] = time.monotonic()
            if queue is isolation:
                return False

    def _wait(self, in_flight: Dict[Any, int], started_at: Dict[int, float]):
        timeout = None
        if self._task_timeout_s is not None and started_at:
            now = time.monotonic()
            slack = min(
                self._task_timeout_s - (now - begun) for begun in started_at.values()
            )
            timeout = max(0.01, slack)
        procs = getattr(self._pool, "_processes", None)
        if procs:
            self._worker_procs = list(procs.values())
        done, _ = wait(list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
        return done

    def _recover(
        self,
        broken: List[int],
        in_flight: Dict[Any, int],
        started_at: Dict[int, float],
        isolation: deque,
        attempts: List[int],
        task_keys: List[str],
        settle: Callable[[int, TaskOutcome], None],
    ) -> int:
        """Handle a pool collapse; returns how many tasks became terminal."""
        detail = self._dead_worker_detail()
        terminal = 0
        suspects = list(broken)
        # Harvest stragglers: a task may have finished right before the
        # collapse; everything else in flight is a suspect.
        for future, index in list(in_flight.items()):
            del in_flight[future]
            started_at.pop(index, None)
            value = None
            harvested = False
            if not future.cancel():
                try:
                    value = future.result(timeout=60.0)
                    harvested = True
                except BrokenProcessPool:
                    pass
                except FutureTimeoutError:
                    future.cancel()
            if harvested:
                terminal += 1
                settle(index, TaskOutcome(value=value, attempts=attempts[index]))
            else:
                suspects.append(index)
        attributable = len(suspects) == 1
        resubmitted: List[int] = []
        for index in sorted(suspects):
            if attributable and attempts[index] >= self._retry.max_attempts:
                self._monitor.count("quarantined")
                terminal += 1
                settle(
                    index,
                    TaskOutcome(
                        failure=TaskFailure(
                            kind="poisoned",
                            attempts=attempts[index],
                            detail=(
                                f"task {task_keys[index]} collapsed the worker pool "
                                f"on attempt {attempts[index]}/{self._retry.max_attempts}"
                                f" ({detail})"
                            ),
                        ),
                        attempts=attempts[index],
                    ),
                )
            else:
                self._monitor.count("retries")
                isolation.append(index)
                resubmitted.append(index)
        if resubmitted:
            time.sleep(self._retry.backoff_for(max(attempts[i] for i in resubmitted)))
        self._rebuild_pool(kill=False)
        return terminal

    def _reap_expired(
        self,
        in_flight: Dict[Any, int],
        started_at: Dict[int, float],
        pending: deque,
        attempts: List[int],
        task_keys: List[str],
        settle: Callable[[int, TaskOutcome], None],
    ) -> int:
        """Kill workers past the task deadline; returns terminal task count."""
        now = time.monotonic()
        expired = {
            index
            for index, begun in started_at.items()
            if now - begun >= self._task_timeout_s
        }
        if not expired:
            return 0
        terminal = 0
        for future, index in list(in_flight.items()):
            del in_flight[future]
            started_at.pop(index, None)
            if future.done():
                try:
                    value = future.result()
                except Exception:
                    value = None
                else:
                    terminal += 1
                    settle(index, TaskOutcome(value=value, attempts=attempts[index]))
                    continue
            if index in expired:
                self._monitor.count("timeouts")
                terminal += 1
                settle(
                    index,
                    TaskOutcome(
                        failure=TaskFailure(
                            kind="timeout",
                            attempts=attempts[index],
                            detail=(
                                f"task {task_keys[index]} exceeded the "
                                f"{self._task_timeout_s:g}s deadline on attempt "
                                f"{attempts[index]}; worker reaped"
                            ),
                        ),
                        attempts=attempts[index],
                    ),
                )
            else:
                # Innocent collateral of our own reap: resubmit without
                # charging the attempt.
                attempts[index] -= 1
                pending.appendleft(index)
        self._rebuild_pool(kill=True)
        return terminal

    def _rebuild_pool(self, *, kill: bool) -> None:
        monitor = self._monitor
        monitor.set_rebuilding(True)
        try:
            self._teardown_pool(kill=kill)
            self._pool = self._make_pool()
            monitor.count("rebuilds")
        finally:
            monitor.set_rebuilding(False)

    def _teardown_pool(self, *, kill: bool) -> None:
        pool = self._pool
        self._pool = None
        self._worker_procs = []
        if pool is None:
            return
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.kill()
                except Exception:  # pragma: no cover - already-dead worker
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    def _dead_worker_detail(self) -> str:
        codes = []
        for proc in self._worker_procs:
            code = getattr(proc, "exitcode", None)
            if code not in (0, None):
                codes.append(code)
        if not codes:
            return "worker pool collapsed"
        parts = []
        for code in codes:
            if code < 0:
                try:
                    name = signal.Signals(-code).name
                except ValueError:  # pragma: no cover - unknown signal number
                    name = f"signal {-code}"
                parts.append(f"worker killed by {name}")
            else:
                parts.append(f"worker exit code {code}")
        return "; ".join(parts)


# --------------------------------------------------------------------------- #
# sweep journal (checkpoint/resume)
# --------------------------------------------------------------------------- #
JOURNAL_FORMAT_VERSION = 1


class SweepJournal:
    """Versioned, self-keyed, append-only checkpoint of one sweep's results.

    The journal file lives under the engine's cache directory as
    ``sweep-<digest>.journal`` where the digest covers the full sweep
    identity (``components``: population fingerprints, methods, targets,
    DP context).  Line 1 is a header repeating ``format_version`` and the
    digest; each further line is one completed task's payload with its own
    content digest.  Loading follows the repo's evict-on-corruption
    discipline: a missing/stale/corrupt header evicts the file outright, a
    line whose digest does not match its payload (a torn write from a
    killed driver) is dropped, and later entries for the same task key win.
    """

    def __init__(self, directory: "str | Path", components: Dict[str, Any]) -> None:
        self._directory = Path(directory)
        self._components = components
        self.sweep_key = stable_digest(
            {"format_version": JOURNAL_FORMAT_VERSION, "components": components}
        )
        self.path = self._directory / f"sweep-{self.sweep_key}.journal"
        self._handle = None

    # ------------------------------------------------------------------ #
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Validated journal entries by task key (``{}`` after eviction)."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {}
        except OSError:
            self._evict()
            return {}
        lines = text.splitlines()
        if not lines or not self._header_valid(lines[0]):
            self._evict()
            return {}
        entries: Dict[str, Dict[str, Any]] = {}
        for line in lines[1:]:
            entry = self._parse_entry(line)
            if entry is not None:
                entries[entry[0]] = entry[1]
        return entries

    def begin(self, *, resume: bool) -> Dict[str, Dict[str, Any]]:
        """Open the journal for this sweep; returns replayable entries.

        ``resume=False`` starts fresh (any previous journal of the same
        sweep identity is truncated); ``resume=True`` loads and keeps the
        validated entries, appending the remainder behind them.
        """
        entries = self.load() if resume else {}
        self._directory.mkdir(parents=True, exist_ok=True)
        if entries:
            self._handle = self.path.open("a", encoding="utf-8")
        else:
            self._handle = self.path.open("w", encoding="utf-8")
            self._handle.write(self._header_line())
            self._handle.flush()
        return entries

    def record(self, task_key: str, payload: Dict[str, Any]) -> None:
        """Append one completed task's payload (flushed so a killed driver
        loses at most the entry being written)."""
        if self._handle is None:
            self.begin(resume=True)
        entry = {
            "task": task_key,
            "digest": stable_digest(payload),
            "result": payload,
        }
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _header_line(self) -> str:
        header = {
            "format_version": JOURNAL_FORMAT_VERSION,
            "sweep": self.sweep_key,
        }
        return json.dumps(header, sort_keys=True) + "\n"

    def _header_valid(self, line: str) -> bool:
        try:
            header = json.loads(line)
        except ValueError:
            return False
        return (
            isinstance(header, dict)
            and header.get("format_version") == JOURNAL_FORMAT_VERSION
            and header.get("sweep") == self.sweep_key
        )

    @staticmethod
    def _parse_entry(line: str) -> Optional[Tuple[str, Dict[str, Any]]]:
        try:
            entry = json.loads(line)
        except ValueError:
            return None
        if not isinstance(entry, dict):
            return None
        task = entry.get("task")
        payload = entry.get("result")
        if not isinstance(task, str) or not isinstance(payload, dict):
            return None
        try:
            if stable_digest(payload) != entry.get("digest"):
                return None
        except Exception:
            return None
        return task, payload

    def _evict(self) -> None:
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass
