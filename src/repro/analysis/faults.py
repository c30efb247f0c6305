"""Deterministic fault injection: ``REPRO_FAULTS`` specs over named sites.

Robustness code is only trustworthy when its failure paths are *first-class
test inputs*: a supervised worker pool that claims to survive SIGKILL, hung
tasks and corrupted cache files must be exercised by injecting exactly those
faults, reproducibly, without hand-rolled monkeypatches that cannot cross a
``ProcessPoolExecutor`` fork/spawn boundary.  This module provides that
framework as an environment-variable-driven switchboard:

``REPRO_FAULTS`` is a comma-separated list of fault specs, each

    ``site[@key]:mode:count[:seed]``

* ``site`` — a named injection point declared in :data:`SITES` (lint rule
  R7 ``fault-site-registered`` keeps the registry and the
  :func:`maybe_inject`/:func:`maybe_corrupt` call sites in lockstep);
* ``key`` — optional exact task-key match (e.g. ``design.case@cmos180/net2``
  fires only for that net's task; without ``@key`` every call of the site
  matches).  Task keys are established by the surrounding driver via
  :func:`task_context`;
* ``mode`` — one of :data:`MODES`:
  ``crash`` (hard ``os._exit`` — a worker death without a signal, e.g. a
  native abort), ``sigkill`` (the process SIGKILLs itself — the OOM-killer
  shape), ``hang`` (sleep far past any deadline), ``corrupt-cache-read``
  (the payload passed through :func:`maybe_corrupt` is replaced by
  deterministically corrupted bytes) and ``exception`` (raise
  :class:`InjectedFaultError` — exercises the per-net isolation path);
* ``count`` — the firing budget.  At attempt-aware sites (the per-net
  design task, which runs under :func:`task_context`) the fault fires on
  attempts ``1..count`` of a matching task — byte-deterministic regardless
  of pool scheduling, and the natural way to express "kill attempt 1 only"
  (retry succeeds) versus "kill every allowed attempt" (quarantined as
  poisoned).  At sites without an attempt (cache reads, batcher drains) the
  budget is counted per (process, task key): inside a design task the
  task's first ``count`` matching calls fire, so a ``wincache.disk-read``
  spec corrupts each net's first ``count`` reads, and outside any task the
  process's first ``count`` calls fire;
* ``seed`` — optional integer folded into the corruption payload and the
  injected-exception message so distinct chaos runs are distinguishable in
  logs; defaults to 0.

Because the spec travels through the environment, worker processes inherit
it at fork/spawn time with no extra plumbing, and the whole CLI surface
(``rip sweep``, the service daemon, the benchmarks, CI chaos steps) can be
fault-injected without code changes.  With ``REPRO_FAULTS`` unset every
hook is a near-free no-op.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "FaultSpecError",
    "HANG_SECONDS",
    "InjectedFaultError",
    "MODES",
    "SITES",
    "FaultSpec",
    "enabled",
    "maybe_corrupt",
    "maybe_inject",
    "parse_specs",
    "reset",
    "task_context",
]

ENV_VAR = "REPRO_FAULTS"

#: How long a ``hang`` fault sleeps — far past any plausible task deadline,
#: so a hung worker is only ever released by the supervisor reaping it.
HANG_SECONDS = 3600.0

#: The central registry of injection sites.  Every ``maybe_inject``/
#: ``maybe_corrupt`` call in ``src/repro`` must name a site declared here
#: and every declared site must have a call site — enforced statically by
#: lint rule R7 (``fault-site-registered``).
SITES: Dict[str, str] = {
    "design.case": (
        "body of a per-net/per-tree design task (worker side, inside the "
        "per-net isolation; attempt-aware via the sweep task context)"
    ),
    "kernels.fused-level": (
        "entry of the fused per-level DP kernel — the hot compiled-engine "
        "boundary every two-pin DP method crosses"
    ),
    "wincache.disk-read": (
        "persistent frontier tier of the window cache, between reading a "
        "cache file and validating it (corrupt-cache-read exercises the "
        "evict-on-corruption discipline)"
    ),
    "service.batch": (
        "micro-batcher batch execution, before the engine sweep of one "
        "drained batch"
    ),
}

MODES = ("crash", "sigkill", "hang", "corrupt-cache-read", "exception")


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec does not follow ``site[@key]:mode:count[:seed]``."""


class InjectedFaultError(RuntimeError):
    """The exception raised by an ``exception``-mode fault.

    Carries ``__reduce__`` so it crosses a worker pool's pickle channel
    intact (lint rule R6).
    """

    def __init__(self, site: str, key: Optional[str] = None, seed: int = 0) -> None:
        detail = f"injected fault at {site}"
        if key is not None:
            detail += f" (task {key})"
        if seed:
            detail += f" [seed {seed}]"
        super().__init__(detail)
        self.site = site
        self.key = key
        self.seed = seed

    def __reduce__(self):
        return (InjectedFaultError, (self.site, self.key, self.seed))


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``site[@key]:mode:count[:seed]`` clause."""

    site: str
    mode: str
    count: int
    key: Optional[str] = None
    seed: int = 0


def parse_specs(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a full ``REPRO_FAULTS`` value (comma-separated clauses)."""
    specs = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) not in (3, 4):
            raise FaultSpecError(
                f"fault spec {clause!r} is not site[@key]:mode:count[:seed]"
            )
        site_part, mode, count_text = parts[0], parts[1], parts[2]
        site, _, key = site_part.partition("@")
        if site not in SITES:
            known = ", ".join(sorted(SITES))
            raise FaultSpecError(
                f"fault spec {clause!r} names unknown site {site!r} (known: {known})"
            )
        if mode not in MODES:
            raise FaultSpecError(
                f"fault spec {clause!r} names unknown mode {mode!r} "
                f"(known: {', '.join(MODES)})"
            )
        try:
            count = int(count_text)
            seed = int(parts[3]) if len(parts) == 4 else 0
        except ValueError as bad:
            raise FaultSpecError(
                f"fault spec {clause!r} has a non-integer count/seed"
            ) from bad
        if count < 1:
            raise FaultSpecError(f"fault spec {clause!r} needs count >= 1")
        specs.append(
            FaultSpec(site=site, mode=mode, count=count, key=key or None, seed=seed)
        )
    return tuple(specs)


class _FaultState:
    """Parsed specs plus per-process firing counters for one env value."""

    __slots__ = ("text", "specs", "fired")

    def __init__(self, text: str) -> None:
        self.text = text
        self.specs = parse_specs(text) if text else ()
        self.fired: Dict[Tuple[int, Optional[str]], int] = {}


_STATE: Optional[_FaultState] = None

#: Ambient identity of the task the current thread is executing — a
#: ``(key, attempt)`` pair set by :func:`task_context` so deep call sites
#: (kernels, cache reads) inherit the task key without threading it through
#: every signature.
_CONTEXT: Tuple[Optional[str], Optional[int]] = (None, None)


def _active() -> _FaultState:
    global _STATE
    text = os.environ.get(ENV_VAR, "")
    state = _STATE
    if state is None or state.text != text:
        state = _FaultState(text)
        _STATE = state
    return state


def enabled() -> bool:
    """True when ``REPRO_FAULTS`` declares at least one fault."""
    return bool(_active().specs)


def reset() -> None:
    """Drop parsed state and firing counters (test isolation)."""
    global _STATE
    _STATE = None


@contextmanager
def task_context(key: str, attempt: int = 1) -> Iterator[None]:
    """Establish the ambient (task key, attempt) for injection sites.

    The sweep drivers wrap each per-net task in this context; re-entrant
    (the previous context is restored on exit).
    """
    global _CONTEXT
    previous = _CONTEXT
    _CONTEXT = (key, attempt)
    try:
        yield
    finally:
        _CONTEXT = previous


def _matches(spec: FaultSpec, site: str, key: Optional[str]) -> bool:
    return spec.site == site and (spec.key is None or spec.key == key)


def _should_fire(
    state: _FaultState,
    index: int,
    spec: FaultSpec,
    key: Optional[str],
    attempt: Optional[int],
) -> bool:
    if attempt is not None:
        # Attempt-aware budget: byte-deterministic under any pool schedule.
        return attempt <= spec.count
    counter_key = (index, key)
    used = state.fired.get(counter_key, 0)
    if used >= spec.count:
        return False
    state.fired[counter_key] = used + 1
    return True


def _fire(spec: FaultSpec, site: str, key: Optional[str]) -> None:
    if spec.mode == "exception":
        raise InjectedFaultError(site, key, spec.seed)
    if spec.mode == "crash":
        os._exit(70)
    if spec.mode == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if spec.mode == "hang":
        time.sleep(HANG_SECONDS)


def maybe_inject(
    site: str, key: Optional[str] = None, attempt: Optional[int] = None
) -> None:
    """Fire any matching ``crash``/``sigkill``/``hang``/``exception`` fault.

    ``key``/``attempt`` default to the ambient :func:`task_context`.  A
    near-free no-op when ``REPRO_FAULTS`` is unset, so the call is safe on
    hot paths.
    """
    state = _active()
    if not state.specs:
        return
    if key is None:
        key = _CONTEXT[0]
    if attempt is None:
        attempt = _CONTEXT[1]
    for index, spec in enumerate(state.specs):
        if spec.mode == "corrupt-cache-read" or not _matches(spec, site, key):
            continue
        if _should_fire(state, index, spec, key, attempt):
            _fire(spec, site, key)


def maybe_corrupt(site: str, payload: str, key: Optional[str] = None) -> str:
    """Pass ``payload`` through the fault switchboard at a read site.

    Non-corruption modes targeting the site fire exactly as
    :func:`maybe_inject`; a matching ``corrupt-cache-read`` spec replaces
    the payload with deterministically invalid bytes.  Attempt budgets do
    not apply: the budget is a call counter per (process, task key), so
    one spec corrupts the first ``count`` reads of every task (ambient
    :func:`task_context` key or ``key=``) and the first ``count`` reads
    made outside any task.
    """
    maybe_inject(site, key=key)
    state = _active()
    if not state.specs:
        return payload
    if key is None:
        key = _CONTEXT[0]
    for index, spec in enumerate(state.specs):
        if spec.mode != "corrupt-cache-read" or not _matches(spec, site, key):
            continue
        if _should_fire(state, index, spec, key, attempt=None):
            return f'{{"repro-injected-corruption":{spec.seed}'
    return payload
