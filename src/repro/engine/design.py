"""The batch design engine: one harness for every population sweep.

Every experiment of the paper boils down to the same shape of work: take a
population of nets, design each net for a sweep of timing targets with a set
of *methods* (the hybrid RIP flow, baseline DPs with various libraries, the
tree DP for H-tree entries), and tabulate per-(net, target, method)
outcomes.  The seed harness hand-rolled that loop in three different files;
:class:`DesignEngine` turns it into one reusable, parallel, cache-backed
primitive:

* populations come from the shared :class:`repro.engine.cache.ProtocolStore`
  (``tau_min`` computed exactly once per ``(seed, net_config, technology)``,
  optionally persisted to disk);
* each entry (a two-pin :class:`~repro.engine.cache.NetCase` or a
  :class:`~repro.engine.cache.TreeCase`) is designed for **all** methods
  and targets in one task, :func:`_design_case`; each method kind is one
  function for one population class (``rip``/``dp`` nets, ``tree`` trees).
  The baseline DP runs once per (net, library) and its frontier answers
  every target, RIP shares its coarse pass across targets and draws its DP
  passes from the engine-/process-shared
  :class:`~repro.engine.wincache.WindowCompilationCache`, all DP methods
  share one :class:`~repro.engine.compiled.CompiledNet` compilation, and
  one tree DP run answers every target of a tree;
* a sweep can batch **multiple technologies** at once
  (``design_population(methods=..., technologies=[...], protocol=...)``):
  every (net, technology) pair is one task in the same worker pool, with
  side-by-side per-technology protocol stores (sub-directories of the
  engine's disk cache);
* tasks fan out over a ``ProcessPoolExecutor`` when ``workers > 1``
  (results are deterministic and identical to the serial path — the golden
  tests check this); an entry whose DP passes are infeasible, or whose
  design raises, is reported per entry (``NetDesignResult.error``) instead
  of aborting the sweep;
* the result is a flat, structured set of :class:`DesignRecord` rows that
  Table 1/2, Figure 7 and any future sweep can aggregate without re-running
  anything.

Shared design state
-------------------
The engine owns **one** window-compilation cache, not one per net task: the
serial path reuses an engine-lifetime
:class:`~repro.engine.wincache.WindowCompilationCache` across every task
and every ``design_population`` call, and the parallel path attaches each
worker process to a per-process cache via a pool initializer
(:func:`_attach_window_cache`).  Each cache owns REFINE's exact-hit
:class:`~repro.core.refine.RefineMemo`, so a repeated net answers REFINE
from the records of earlier tasks although every task builds its own
:class:`~repro.core.rip.Rip`.  With a disk-backed engine (``store`` has a ``cache_dir``, or an explicit
``window_cache_dir``) all of them share one on-disk DP-memo/refine-record
directory, so repeated sweeps — including across process restarts — skip
REFINE, RIP's DPs and the ``dp-g*`` baselines outright.  Each task snapshots its cache-counter
delta (REFINE memo hits and cold runs included) onto
``NetDesignResult.cache_statistics`` and the engine merges the deltas into
``EngineStatistics.window_cache``, so cache behaviour is observable per
sweep.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from dataclasses import asdict, dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import faults, sanitize
from repro.analysis.sanitize import SanitizerStatistics
from repro.core.rip import InfeasibleNetError, Rip, RipConfig
from repro.dp.powerdp import PowerAwareDp
from repro.engine.cache import (
    NetCase,
    ProtocolConfig,
    ProtocolStore,
    StoreStatistics,
    TreeCase,
    default_store,
    technology_fingerprint,
    timing_targets,
)
from repro.engine.compiled import CompiledNet
from repro.engine.supervisor import (
    RecoveryMonitor,
    RetryPolicy,
    SupervisedExecutor,
    SweepJournal,
    TaskOutcome,
)
from repro.engine.wincache import (
    BaselineAnswers,
    CacheStatistics,
    WindowCompilationCache,
    dp_context_fingerprint,
    net_fingerprint,
    tree_fingerprint,
)
from repro.tech.library import RepeaterLibrary
from repro.tech.technology import Technology
from repro.tree.buffering import TreePowerDp, TreeSolution
from repro.tree.generator import htree
from repro.utils.canonical import stable_digest
from repro.utils.counters import Snapshot
from repro.utils.validation import require, require_positive

__all__ = [
    "DesignEngine",
    "DesignRecord",
    "EngineStatistics",
    "MethodSpec",
    "NetDesignResult",
    "PopulationDesignResult",
    "TargetSpec",
    "WindowCacheSpec",
    "WorkerTaskError",
    "build_htree_cases",
    "ensure_pool_safe",
]


class WorkerTaskError(RuntimeError):
    """Pool-safe wrapper for an exception a worker task could not ship home.

    Exceptions cross the ``ProcessPoolExecutor`` boundary by pickling.  The
    repo's own exceptions carry ``__reduce__`` (lint rule R6), but a task can
    also die on a *third-party* exception whose class is unpicklable or whose
    default reduction replays ``type(exc)(*args)`` into an incompatible
    ``__init__`` — either way the parent would see an opaque pickling error
    (``BrokenProcessPool``-adjacent) instead of the real failure.
    :func:`ensure_pool_safe` converts any such exception into this wrapper,
    which preserves the original type name, message and a formatted traceback
    as plain strings.
    """

    def __init__(self, kind: str, message: str, details: str = "") -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.details = details

    def __reduce__(self):
        return (WorkerTaskError, (self.kind, self.message, self.details))


def ensure_pool_safe(error: BaseException) -> BaseException:
    """Return ``error`` if it survives pickling, else a :class:`WorkerTaskError`.

    The round-trip check covers both failure modes: classes that cannot be
    pickled at all (e.g. defined in a local scope) fail at ``dumps``, and
    exceptions whose ``args`` do not replay through ``__init__`` fail at
    ``loads``.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        details = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        return WorkerTaskError(type(error).__qualname__, str(error), details)


def _describe_failure(error: BaseException) -> str:
    """One-line ``Type: message`` form recorded on ``NetDesignResult.error``."""
    message = str(error)
    name = type(error).__qualname__
    return f"{name}: {message}" if message else name


@dataclass(frozen=True)
class TargetSpec:
    """A per-net sweep of timing targets as multiples of ``tau_min``."""

    count: int = 20
    min_factor: float = 1.05
    max_factor: float = 2.05

    def targets_for(self, tau_min: float) -> Tuple[float, ...]:
        """Resolve the sweep against one net's minimum delay."""
        return timing_targets(
            tau_min,
            count=self.count,
            min_factor=self.min_factor,
            max_factor=self.max_factor,
        )


@dataclass(frozen=True)
class MethodSpec:
    """One insertion method a population is designed with.

    Attributes
    ----------
    name:
        Unique label of the method in the result records (e.g. ``"rip"``,
        ``"dp-g10"``).
    kind:
        ``"rip"`` (the hybrid flow), ``"dp"`` (baseline frontier DP) or
        ``"tree"`` (the multi-sink tree DP; applies to tree population
        entries only).
    library:
        The repeater library of a ``"dp"``/``"tree"`` method (ignored for
        RIP).
    rip:
        Optional per-method override of the engine's RIP configuration.

    Every method runs the production cores (fused DPs, compiled REFINE).
    Their oracles are reached through the class constructors only.
    """

    name: str
    kind: str
    library: Optional[RepeaterLibrary] = None
    rip: Optional[RipConfig] = None

    def __post_init__(self) -> None:
        require(
            self.kind in ("rip", "dp", "tree"),
            f"unknown method kind {self.kind!r}",
        )
        if self.kind in ("dp", "tree"):
            require(
                self.library is not None,
                f"{self.kind} method {self.name!r} needs a library",
            )

    @staticmethod
    def rip_method(name: str = "rip", config: Optional[RipConfig] = None) -> "MethodSpec":
        """The hybrid RIP flow."""
        return MethodSpec(name=name, kind="rip", rip=config)

    @staticmethod
    def dp_baseline(name: str, library: RepeaterLibrary) -> "MethodSpec":
        """A baseline power-aware DP with a fixed library."""
        return MethodSpec(name=name, kind="dp", library=library)

    @staticmethod
    def tree_method(name: str, library: RepeaterLibrary) -> "MethodSpec":
        """The multi-sink tree DP (applies to tree population entries)."""
        return MethodSpec(name=name, kind="tree", library=library)


@dataclass(frozen=True)
class DesignRecord:
    """Outcome of designing one net for one timing target with one method.

    ``total_width`` and ``delay`` are ``None`` when the method found no
    solution meeting the target (a timing violation).  For ``"dp"`` methods
    ``runtime_seconds`` is the net's one
    :meth:`~repro.dp.powerdp.PowerAwareDp.run_many` call, shared by all of
    the net's targets as in the seed harness: the sub-library incumbent
    pass, the width-bounded pass and any fallback plain run, plus the
    net's candidate compilation.  When the window cache's baseline memo
    answers the net, the record replays the runtime of the run that
    computed the answers, as a sweep-journal replay does, so a memo hit
    equals its cold record field for field.  For RIP it is the full
    per-design flow including the shared coarse pass, as measured in this
    call: on a warm cache that is mostly memo lookups.
    """

    net_name: str
    method: str
    target: float
    target_factor: float
    feasible: bool
    total_width: Optional[float]
    delay: Optional[float]
    runtime_seconds: float
    num_repeaters: int = 0
    fallback_used: bool = False
    technology: str = ""


@dataclass(frozen=True)
class NetDesignResult:
    """All records of one net, plus per-method instrumentation.

    ``states_generated`` sums the DP states of every method of the entry.
    A ``dp`` method counts the states of all passes of its
    :meth:`~repro.dp.powerdp.PowerAwareDp.run_many` call: the incumbent
    and the bounded pass, plus any fallback plain run.  Every method reads
    its states off the DP results it used, so a memo hit counts the states
    of the run that computed the entry.  A ``dp`` method's
    ``method_runtimes`` entry replays that run's runtime on a hit too;
    ``rip`` and ``tree`` runtimes are measured in this call.

    ``error`` is set when the net's design raised — the sweep carries on
    and reports the failure per-net instead of aborting.  ``failure_kind``
    classifies the failure: ``"infeasible"`` for the expected
    :class:`~repro.core.rip.InfeasibleNetError` (the net genuinely has no
    solution at some DP stage), ``"crashed"`` for any other exception (a
    numpy error, a corrupt cache payload, a ``SanitizeError`` ...), whose
    type and message are recorded in ``error``; the supervised parallel
    path adds ``"poisoned"`` (the task collapsed the worker pool on its
    final allowed attempt — SIGKILL/OOM/segfault) and ``"timeout"`` (the
    task exceeded the engine's per-task deadline and its worker was
    reaped).  A failed net carries no records (rows completed before the
    failure are dropped), so flat record counts always agree with the
    table aggregations, which skip failed nets.
    """

    net_name: str
    tau_min: float
    targets: Tuple[float, ...]
    records: Tuple[DesignRecord, ...]
    method_runtimes: Dict[str, float]
    states_generated: int
    technology: str = ""
    #: Which population class produced this result: ``"twopin"`` for
    #: :class:`NetCase` entries, ``"tree"`` for :class:`TreeCase` entries.
    #: ``rip sweep`` aggregates engine statistics per class from this tag.
    population_class: str = "twopin"
    error: Optional[str] = None
    #: ``"infeasible"`` | ``"crashed"`` | ``"poisoned"`` | ``"timeout"``
    #: when ``error`` is set, else ``None``.
    failure_kind: Optional[str] = None
    #: How many times the supervised pool submitted this net's task (1 for
    #: serial sweeps and untroubled parallel tasks; 2 when the first
    #: attempt collapsed the pool and the isolation retry succeeded).
    attempts: int = 1
    #: Shared-window-cache counter delta attributable to this net's task
    #: (``None`` when the cache is disabled).
    cache_statistics: Optional[CacheStatistics] = None
    #: Sanitizer counter delta of this net's task (``None`` unless
    #: ``REPRO_SANITIZE=1``); survives the pool like the cache delta.
    sanitizer_statistics: Optional[SanitizerStatistics] = None

    @property
    def failed(self) -> bool:
        """True when this net's design aborted with an infeasibility error."""
        return self.error is not None

    def records_for(self, method: str) -> Tuple[DesignRecord, ...]:
        """This net's records of one method, in target order."""
        return tuple(record for record in self.records if record.method == method)


@dataclass(frozen=True)
class EngineStatistics:
    """Aggregate instrumentation of one population sweep.

    ``window_cache`` merges the per-task counter deltas of the shared
    window-compilation cache(s) — one per process; ``None`` when caching is
    disabled.  Its counters equal a serial sweep's whatever the worker
    count; its ``entries`` gauge is per process (see
    :class:`~repro.engine.wincache.CacheStatistics`).  ``store`` is the
    protocol-store counter delta of this sweep (builds happen inside the
    sweep only for ``technologies=`` calls; the cumulative engine-lifetime
    view is ``DesignEngine.store_statistics``).
    """

    wall_clock_seconds: float
    states_generated: int
    num_designs: int
    workers: int
    window_cache: Optional[CacheStatistics] = None
    store: Optional[StoreStatistics] = None
    #: Merged per-task sanitizer counter deltas (``None`` unless the sweep
    #: ran with ``REPRO_SANITIZE=1``).
    sanitizer: Optional[SanitizerStatistics] = None

    @property
    def states_per_second(self) -> float:
        """DP states generated per second of wall-clock time."""
        if self.wall_clock_seconds <= 0.0:
            return 0.0
        return self.states_generated / self.wall_clock_seconds


@dataclass(frozen=True)
class PopulationDesignResult:
    """Structured outcome of one ``design_population`` call.

    Multi-technology sweeps interleave one :class:`NetDesignResult` per
    (technology, net) pair — technology-major, then net-major in population
    order; ``technologies`` lists the swept node names and
    :meth:`for_technology` slices the per-node results back out.
    """

    nets: Tuple[NetDesignResult, ...]
    methods: Tuple[str, ...]
    statistics: EngineStatistics
    technologies: Tuple[str, ...] = ()

    def records(self) -> Tuple[DesignRecord, ...]:
        """All records, flattened (technology- then net-major)."""
        return tuple(record for net in self.nets for record in net.records)

    def net(self, net_name: str, technology: Optional[str] = None) -> NetDesignResult:
        """The result of one net by name (and technology, when swept)."""
        for entry in self.nets:
            if entry.net_name == net_name and technology in (None, entry.technology):
                return entry
        raise KeyError(f"no net called {net_name!r} in this result")

    def for_technology(self, technology: str) -> Tuple[NetDesignResult, ...]:
        """The per-net results of one swept technology node."""
        if technology not in self.technologies:
            known = ", ".join(self.technologies)
            raise KeyError(f"no technology {technology!r} in this result (swept: {known})")
        return tuple(net for net in self.nets if net.technology == technology)

    def failures(self, kind: Optional[str] = None) -> Tuple[NetDesignResult, ...]:
        """Nets whose design aborted with a per-net error.

        ``kind`` filters by failure class: ``"infeasible"`` (the net has no
        solution at some DP stage), ``"crashed"`` (any other exception,
        isolated to the net), ``"poisoned"`` (the net's task collapsed the
        supervised worker pool on its final attempt) or ``"timeout"`` (the
        task exceeded the per-task deadline).  ``None`` returns all.
        """
        return tuple(
            net
            for net in self.nets
            if net.failed and kind in (None, net.failure_kind)
        )


# --------------------------------------------------------------------------- #
# shared per-process window cache (workers attach via the pool initializer)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WindowCacheSpec:
    """Picklable description of the shared window cache a task attaches to.

    ``max_files``/``max_bytes`` bound the persistent frontier tier on disk
    (LRU by mtime — see :class:`WindowCompilationCache`).  ``partition``
    names whose cache this is: specs of different partitions never share a
    cache, even when their budgets match and neither has a directory (the
    design service gives each tenant its own partition).
    """

    enabled: bool = True
    cache_dir: Optional[str] = None
    max_entries: int = 512
    max_files: Optional[int] = WindowCompilationCache.DEFAULT_MAX_FRONTIER_FILES
    max_bytes: Optional[int] = None
    partition: str = ""


#: The process-wide shared cache of worker processes and the spec it was
#: built for (one per process, all attached to the same on-disk tier when
#: the spec is disk-backed).
_PROCESS_WINDOW_CACHE: Optional[Tuple[WindowCacheSpec, WindowCompilationCache]] = None


def _attach_window_cache(spec: WindowCacheSpec) -> Optional[WindowCompilationCache]:
    """Create-or-reuse this process's shared cache for ``spec``.

    Used as the ``ProcessPoolExecutor`` initializer (and again by each task,
    idempotently) so every net task of a worker shares one cache instead of
    building a private one; correctness does not depend on the sharing
    because cache keys fully determine cached values.
    """
    global _PROCESS_WINDOW_CACHE
    if not spec.enabled:
        return None
    if _PROCESS_WINDOW_CACHE is None or _PROCESS_WINDOW_CACHE[0] != spec:
        cache = WindowCompilationCache(
            max_entries=spec.max_entries,
            cache_dir=spec.cache_dir,
            max_files=spec.max_files,
            max_bytes=spec.max_bytes,
        )
        _PROCESS_WINDOW_CACHE = (spec, cache)
    return _PROCESS_WINDOW_CACHE[1]


# --------------------------------------------------------------------------- #
# per-entry task (top level so ProcessPoolExecutor can pickle it)
# --------------------------------------------------------------------------- #
@dataclass
class _Task:
    """What every method of one population entry shares.  The entry's first
    ``dp`` method that misses the baseline memo builds ``compiled`` (taking
    ``compile_seconds``) for the later ones."""

    case: "NetCase | TreeCase"
    targets: Tuple[float, ...]
    technology: Technology
    rip_config: RipConfig
    window_cache: Optional[WindowCompilationCache]
    compiled: Optional[CompiledNet] = None
    compile_seconds: float = 0.0


def _design_rip(spec: MethodSpec, task: _Task) -> Tuple[float, int, List[Dict[str, Any]]]:
    """The hybrid RIP flow: one coarse pass serves every target.  Each row
    carries its target's flow runtime; the method runtime is their mean."""
    rip = Rip(
        task.technology,
        spec.rip or task.rip_config,
        window_cache=task.window_cache if task.window_cache is not None else False,
    )
    prepared = rip.prepare(task.case.net)
    states = prepared.coarse_result.statistics.states_generated
    rows = []
    for outcome in rip.run_prepared_batch(prepared, task.targets):
        states += outcome.states_generated
        rows.append(
            dict(
                feasible=outcome.feasible,
                total_width=outcome.total_width if outcome.feasible else None,
                delay=outcome.delay if outcome.feasible else None,
                runtime_seconds=outcome.runtime_seconds,
                num_repeaters=outcome.solution.num_repeaters,
                fallback_used=outcome.fallback_used,
            )
        )
    runtime = sum(row["runtime_seconds"] for row in rows) / len(rows) if rows else 0.0
    return runtime, states, rows


def _design_dp(spec: MethodSpec, task: _Task) -> Tuple[float, int, List[Dict[str, Any]]]:
    """A baseline power DP: one width-bounded frontier answers every target
    (:meth:`~repro.dp.powerdp.PowerAwareDp.run_many`), drawn from the window
    cache's memoized baseline answers when caching is on.  A memo hit
    replays the runtime and states of the run that computed the answers."""
    case = task.case
    # The fused core draws its scratch arena from the per-worker process
    # singleton (``kernels.shared_scratch``): within one worker every dp
    # method, net task and RIP pass reuses the same buffers; worker
    # processes each grow their own.
    dp = PowerAwareDp(task.technology)

    def run() -> BaselineAnswers:
        if task.compiled is None:
            # One compilation serves every dp method of this net that misses.
            compile_started = time.perf_counter()
            task.compiled = (
                task.window_cache.compiled(case.net, case.candidates)
                if task.window_cache is not None
                else CompiledNet(case.net, case.candidates)
            )
            task.compile_seconds = time.perf_counter() - compile_started
        run_started = time.perf_counter()
        points, statistics = dp.run_many(
            case.net, spec.library, task.targets, compiled=task.compiled
        )
        # Each method is charged the (shared) compilation, mirroring the
        # legacy harness where every dp run legalised its own candidates
        # — keeps reported DP runtimes comparable across PRs.
        runtime = (time.perf_counter() - run_started) + task.compile_seconds
        return BaselineAnswers(tuple(points), statistics, runtime)

    if task.window_cache is not None:
        answers = task.window_cache.baseline_answers(
            case.net,
            dp_context_fingerprint(dp.technology, dp.pruning),
            spec.library.widths,
            case.candidates,
            task.targets,
            run,
        )
    else:
        answers = run()
    rows = [
        dict(
            feasible=point is not None,
            total_width=None if point is None else point.total_width,
            delay=None if point is None else point.delay,
            runtime_seconds=answers.runtime_seconds,
            num_repeaters=0 if point is None else point.solution.num_repeaters,
        )
        for point in answers.points
    ]
    return answers.runtime_seconds, answers.statistics.states_generated, rows


def _tree_dp_context(technology: Technology, spec: MethodSpec, case: TreeCase) -> str:
    """Cache context of one tree method: everything besides (tree, targets).

    Exactly what :class:`~repro.tree.buffering.TreePowerDp` reads: the
    technology constants, the method's library and the case's site pitch
    and state cap.  The tree DP never reads the two-pin
    :class:`~repro.dp.pruning.PruningConfig`, so the key leaves it out.
    """
    return stable_digest(
        {
            "technology": technology_fingerprint(technology),
            "library": list(spec.library.widths),
            "site_pitch": case.site_pitch,
            "max_states_per_node": case.max_states_per_node,
        }
    )


def _design_tree(spec: MethodSpec, task: _Task) -> Tuple[float, int, List[Dict[str, Any]]]:
    """The multi-sink tree DP: one run answers every target (the root front
    is shared), drawn from the window cache's memoized tree-solution tier
    when caching is on."""
    case, targets = task.case, task.targets
    dp = TreePowerDp(
        task.technology,
        site_pitch=case.site_pitch,
        max_states_per_node=case.max_states_per_node,
    )

    def run() -> List[TreeSolution]:
        return dp.run_many(case.tree, spec.library, targets)

    run_started = time.perf_counter()
    if task.window_cache is not None:
        context = _tree_dp_context(task.technology, spec, case)
        solutions = task.window_cache.tree_solutions(case.tree, context, targets, run)
    else:
        solutions = run()
    runtime = time.perf_counter() - run_started
    states = 0
    if solutions and solutions[0].statistics is not None:
        # One DP run answers every target; the run-wide statistics are
        # attached to each solution, so count them once per method.
        states = solutions[0].statistics.states_generated
    rows = [
        dict(
            feasible=solution.feasible,
            total_width=solution.total_width if solution.feasible else None,
            delay=solution.worst_delay if solution.feasible else None,
            runtime_seconds=runtime,
            num_repeaters=len(solution.assignments),
        )
        for solution in solutions
    ]
    return runtime, states, rows


#: Each method kind's population class and design function.  A method
#: designs the entries of exactly one class; its function returns the
#: method's runtime, its DP states and one row per target (the
#: :class:`DesignRecord` fields that differ by method).
_METHOD_KINDS = {
    "rip": (NetCase, _design_rip),
    "dp": (NetCase, _design_dp),
    "tree": (TreeCase, _design_tree),
}


def _case_name(case: "NetCase | TreeCase") -> str:
    return case.tree.name if isinstance(case, TreeCase) else case.net.name


def _case_targets(
    case: "NetCase | TreeCase", targets: Optional[TargetSpec]
) -> Tuple[float, ...]:
    """The entry's own targets, or the sweep's target grid resolved on it."""
    return tuple(case.targets if targets is None else targets.targets_for(case.tau_min))


def _case_result(
    case: "NetCase | TreeCase",
    targets: Tuple[float, ...],
    technology: Technology,
    **outcome: Any,
) -> NetDesignResult:
    """The one assembly of an entry's :class:`NetDesignResult`, designed by
    :func:`_design_case` or failed by the supervised pool."""
    return NetDesignResult(
        net_name=_case_name(case),
        tau_min=case.tau_min,
        targets=targets,
        technology=technology.name,
        population_class="tree" if isinstance(case, TreeCase) else "twopin",
        **outcome,
    )


def _design_case(
    case: "NetCase | TreeCase",
    methods: Tuple[MethodSpec, ...],
    targets: Optional[TargetSpec],
    technology: Technology,
    rip_config: RipConfig,
    window_cache: Optional[WindowCompilationCache],
) -> NetDesignResult:
    """Design one population entry with every method of its class.

    The one task of every sweep, serial or pooled, for nets and trees
    alike.  It owns target resolution, the ``design.case`` fault site,
    per-entry isolation, the counter deltas and the result assembly, and
    hands each method to its kind's function in :data:`_METHOD_KINDS`.
    """
    resolved = _case_targets(case, targets)
    task = _Task(case, resolved, technology, rip_config, window_cache)
    name = _case_name(case)
    records: List[DesignRecord] = []
    method_runtimes: Dict[str, float] = {}
    states = 0
    error: Optional[str] = None
    failure_kind: Optional[str] = None
    # The engine-/process-shared window cache serves every method and
    # target of this task (keys cover the net/tree fingerprint, the dp
    # context and the method's configuration, so neither other entries
    # nor differently-configured methods can collide).  Snapshot the
    # counters so the task's delta can be merged back by the engine.
    stats_before = window_cache.statistics if window_cache is not None else None
    sanitize_before = sanitize.statistics() if sanitize.enabled() else None

    try:
        # Deterministic fault injection (REPRO_FAULTS): crash/sigkill/hang
        # escape to the supervised pool; exception-mode lands in the
        # per-entry isolation below as a "crashed" failure.
        faults.maybe_inject("design.case")
        for spec in methods:
            case_type, design = _METHOD_KINDS[spec.kind]
            if not isinstance(case, case_type):
                continue
            runtime, method_states, rows = design(spec, task)
            method_runtimes[spec.name] = runtime
            states += method_states
            records.extend(
                DesignRecord(
                    net_name=name,
                    method=spec.name,
                    target=target,
                    target_factor=target / case.tau_min,
                    technology=technology.name,
                    **row,
                )
                for target, row in zip(resolved, rows)
            )
    except InfeasibleNetError as infeasible:
        # Report per-entry instead of aborting the whole population sweep.
        # Records completed before the failure are dropped so that a failed
        # entry never contributes rows: ``PopulationDesignResult.records()``,
        # ``EngineStatistics.num_designs`` and the table aggregations (which
        # skip failed nets) stay consistent with each other.
        error = str(infeasible)
        failure_kind = "infeasible"
        records.clear()
        method_runtimes.clear()
    except Exception as crashed:
        # Any *other* exception — a numpy error, a corrupt cache payload, a
        # SanitizeError — gets the same per-entry isolation, with the type
        # recorded so crashes stay distinguishable from infeasibility.
        error = _describe_failure(crashed)
        failure_kind = "crashed"
        records.clear()
        method_runtimes.clear()

    return _case_result(
        case,
        resolved,
        technology,
        records=tuple(records),
        method_runtimes=method_runtimes,
        states_generated=states,
        error=error,
        failure_kind=failure_kind,
        cache_statistics=(
            window_cache.statistics.since(stats_before)
            if stats_before is not None
            else None
        ),
        sanitizer_statistics=(
            sanitize.statistics().since(sanitize_before)
            if sanitize_before is not None
            else None
        ),
    )


def build_htree_cases(
    technology: Technology,
    *,
    count: int = 4,
    levels: int = 3,
    base_span: float = 2.0e-3,
    span_step: float = 1.0e-3,
    targets: Optional[TargetSpec] = None,
    tau_min_library: Optional[RepeaterLibrary] = None,
    site_pitch: float = 200.0e-6,
    max_states_per_node: int = 4000,
    driver_width: float = 120.0,
    receiver_width: float = 40.0,
) -> List[TreeCase]:
    """The H-tree clock population: ``count`` H-trees of growing span.

    Each case is a deterministic :func:`repro.tree.generator.htree` of
    ``levels`` levels whose span grows by ``span_step`` per case.  The
    tree's ``tau_min`` — the minimum achievable *worst-sink* delay — is
    probed with the tree DP itself under an unreachably tight target (the
    infeasible selection rule returns the delay-minimal root state), and
    the shared per-sink timing targets are the standard ``tau_min``
    multiples.  All sinks of an H-tree are equidistant from the driver, so
    one shared target bounds the skew-critical slowest sink directly.
    """
    require(count >= 1, "count must be >= 1")
    require_positive(base_span, "base_span")
    require(span_step >= 0.0, "span_step must be >= 0")
    target_spec = targets or TargetSpec()
    library = tau_min_library or RepeaterLibrary.uniform(20.0, 400.0, 20.0)
    probe_dp = TreePowerDp(
        technology, site_pitch=site_pitch, max_states_per_node=max_states_per_node
    )
    cases: List[TreeCase] = []
    for index in range(count):
        span = base_span + index * span_step
        tree = htree(
            technology,
            levels,
            span,
            driver_width=driver_width,
            receiver_width=receiver_width,
            name=f"htree{levels}-{index}",
        )
        # An unreachably tight target makes every root state infeasible, and
        # the infeasible pick minimizes (worst delay, width) — i.e. tau_min.
        probe = probe_dp.run(tree, library, 1.0e-18)
        cases.append(
            TreeCase(
                tree=tree,
                tau_min=probe.worst_delay,
                targets=target_spec.targets_for(probe.worst_delay),
                site_pitch=site_pitch,
                max_states_per_node=max_states_per_node,
            )
        )
    return cases


#: How often a pool worker checks that the process that forked it lives.
_PARENT_POLL_SECONDS = 1.0


def _exit_with_parent(parent_pid: int) -> None:
    """Exit this worker once its parent is gone (it was reparented).

    A SIGKILLed driver cannot shut its pool down, and an orphaned worker
    otherwise blocks forever on its call queue (or in a hung task), and
    keeps the multiprocessing resource tracker alive with it.
    ``PR_SET_PDEATHSIG`` is no substitute: it fires when the forking
    *thread* exits, not the process.
    """
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _init_worker(spec: WindowCacheSpec) -> None:
    """Pool initializer: exit with the driver, attach the shared window
    cache."""
    threading.Thread(
        target=_exit_with_parent,
        args=(os.getppid(),),
        name="rip-parent-watch",
        daemon=True,
    ).start()
    _attach_window_cache(spec)


def _design_case_payload(payload, attempt: int = 1) -> NetDesignResult:
    (
        case,
        methods,
        targets,
        technology,
        rip_config,
        cache_spec,
        task_key,
    ) = payload
    try:
        # The ambient (task key, attempt) lets every fault-injection site
        # below this frame (the design task, the kernels boundary, the
        # wincache disk tier) match `site@key` specs and apply the
        # attempt-aware firing budget.
        with faults.task_context(task_key, attempt):
            return _design_case(
                case,
                methods,
                targets,
                technology,
                rip_config,
                _attach_window_cache(cache_spec),
            )
    except Exception as infrastructure_error:
        # Per-entry failures are already isolated inside _design_case; an
        # exception escaping to here is infrastructure-level (cache attach,
        # result assembly) and legitimately aborts the sweep — but it must
        # cross the pool as itself or as a picklable wrapper, never as an
        # opaque pickling failure.
        raise ensure_pool_safe(infrastructure_error) from None


# --------------------------------------------------------------------------- #
# sweep journal glue: task keys, sweep identity, result (de)serialization
# --------------------------------------------------------------------------- #
def _job_task_key(technology: Technology, case: "NetCase | TreeCase") -> str:
    """Stable per-task identifier of one (technology, case) job.

    Doubles as the ``REPRO_FAULTS`` task key (``site@cmos180/net3``) and the
    sweep journal's entry key, so fault specs and journal replays address
    tasks the same way the CLI reports them.
    """
    return technology.name + "/" + _case_name(case)


def _sweep_components(
    jobs: Sequence[Tuple[Technology, "NetCase | TreeCase"]],
    methods: Sequence[MethodSpec],
    targets: Optional[TargetSpec],
    rip_config: RipConfig,
) -> Dict[str, Any]:
    """The full sweep identity a :class:`SweepJournal` is keyed by.

    Covers everything a sweep's records are a function of — population
    fingerprints (net/tree geometry, tau_min, per-case targets), the swept
    technologies' constants, the method list (libraries, per-method RIP
    overrides) and the engine's RIP configuration — so a journal
    can never replay results into a differently-configured sweep.
    """
    technologies: Dict[str, Any] = {}
    population: List[Dict[str, Any]] = []
    for technology, case in jobs:
        if technology.name not in technologies:
            technologies[technology.name] = technology_fingerprint(technology)
        if isinstance(case, TreeCase):
            entry: Dict[str, Any] = {
                "class": "tree",
                "fingerprint": tree_fingerprint(case.tree),
                "site_pitch": case.site_pitch,
                "max_states_per_node": case.max_states_per_node,
            }
        else:
            entry = {
                "class": "twopin",
                "fingerprint": net_fingerprint(case.net),
                "candidates": list(case.candidates),
            }
        entry["technology"] = technology.name
        entry["tau_min"] = case.tau_min
        entry["targets"] = list(case.targets)
        population.append(entry)
    return {
        "population": population,
        "technologies": technologies,
        "methods": [
            {
                "name": spec.name,
                "kind": spec.kind,
                "library": (
                    list(spec.library.widths) if spec.library is not None else None
                ),
                "rip": asdict(spec.rip) if spec.rip is not None else None,
            }
            for spec in methods
        ],
        "targets": asdict(targets) if targets is not None else None,
        "rip_config": asdict(rip_config),
    }


def _net_result_from_payload(payload: Dict[str, Any]) -> NetDesignResult:
    """Rebuild a :class:`NetDesignResult` from its journal payload.

    The payload is the result's ``asdict``.  Floats survive JSON bit-for-bit
    (shortest-round-trip repr), so a replayed result compares equal to the
    recorded one — the property the ``--resume`` bit-identity tests assert.
    """
    return NetDesignResult(
        net_name=payload["net_name"],
        tau_min=payload["tau_min"],
        targets=tuple(payload["targets"]),
        records=tuple(
            DesignRecord(**record) for record in payload["records"]
        ),
        method_runtimes=dict(payload["method_runtimes"]),
        states_generated=payload["states_generated"],
        technology=payload["technology"],
        population_class=payload["population_class"],
        error=payload["error"],
        failure_kind=payload["failure_kind"],
        attempts=payload["attempts"],
        cache_statistics=(
            CacheStatistics(**payload["cache_statistics"])
            if payload["cache_statistics"] is not None
            else None
        ),
        sanitizer_statistics=(
            SanitizerStatistics(**payload["sanitizer_statistics"])
            if payload["sanitizer_statistics"] is not None
            else None
        ),
    )


def _merged_deltas(
    deltas: Sequence[Optional[Snapshot]], empty: Snapshot
) -> Optional[Snapshot]:
    """The sweep's merged per-task counter deltas (``None`` when no task
    reported any, i.e. the counters were off)."""
    reported = [delta for delta in deltas if delta is not None]
    return reduce(type(empty).merged, reported, empty) if reported else None


class DesignEngine:
    """Batch designer for net populations: methods x targets x technologies."""

    def __init__(
        self,
        technology: Technology,
        *,
        rip_config: Optional[RipConfig] = None,
        workers: int = 0,
        store: Optional[ProtocolStore] = None,
        window_cache: bool = True,
        window_cache_dir: "Optional[str]" = None,
        window_cache_entries: int = 512,
        task_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        require(workers >= 0, "workers must be >= 0")
        if task_timeout_s is not None:
            require_positive(task_timeout_s, "task_timeout_s")
        self._technology = technology
        self._rip_config = rip_config or RipConfig()
        self._workers = workers
        self._task_timeout_s = task_timeout_s
        self._retry = retry if retry is not None else RetryPolicy()
        self._recovery = RecoveryMonitor()
        self._store = store if store is not None else default_store()
        self._tech_stores: Dict[str, ProtocolStore] = {technology.name: self._store}
        # The shared design-state directory: an explicit window_cache_dir
        # wins; otherwise a disk-backed protocol store donates a `wincache`
        # sub-directory, so `--cache-dir` / REPRO_CACHE_DIR persist the
        # whole layer (population + tau_min + frontiers + refine records).
        if window_cache_dir is None and self._store.cache_dir is not None:
            window_cache_dir = str(self._store.cache_dir / "wincache")
        self._window_cache_spec = WindowCacheSpec(
            enabled=window_cache,
            # Normalized so equal directories give equal specs (caches
            # are keyed by spec in the engine and in its workers).
            cache_dir=str(Path(window_cache_dir)) if window_cache_dir is not None else None,
            max_entries=window_cache_entries,
        )
        # Engine-lifetime shared caches of the serial path (and of any
        # in-process consumers), one per attached spec: the engine's own
        # default plus, for the design service, one per tenant partition
        # (``design_population(cache_spec=...)``).  Workers build
        # per-process equivalents.
        self._shared_window_caches: Dict[WindowCacheSpec, WindowCompilationCache] = {}

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release engine-owned shared state (idempotent).

        Applies the window cache's disk budgets (``gc()``) so a crashed
        sweep cannot leave the design-state directory over budget.  Safe to
        call multiple times and from ``__exit__`` regardless of how the
        sweep ended.
        """
        for cache in self._shared_window_caches.values():
            if cache.cache_dir is not None:
                try:
                    cache.gc()
                except Exception:  # pragma: no cover - best-effort teardown
                    pass

    def __enter__(self) -> "DesignEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def technology(self) -> Technology:
        """Primary technology the engine designs for."""
        return self._technology

    @property
    def store(self) -> ProtocolStore:
        """The protocol store populations of the primary technology use."""
        return self._store

    @property
    def workers(self) -> int:
        """Worker processes used by :meth:`design_population` (0/1 = serial)."""
        return self._workers

    @property
    def task_timeout_s(self) -> Optional[float]:
        """Per-task deadline of the supervised pool (``None`` = no deadline)."""
        return self._task_timeout_s

    @property
    def recovery(self) -> RecoveryMonitor:
        """Recovery counters of the supervised pool (rebuilds, retries, ...).

        Shared across all of this engine's sweeps; the design service
        degrades new requests to 503 + ``Retry-After`` while
        ``recovery.rebuilding`` is set and surfaces the counters in its
        ``/metrics`` breaker section.
        """
        return self._recovery

    @property
    def window_cache_spec(self) -> WindowCacheSpec:
        """The shared-cache configuration tasks attach to."""
        return self._window_cache_spec

    @property
    def window_cache(self) -> Optional[WindowCompilationCache]:
        """The engine-lifetime shared cache (serial path; ``None`` = disabled)."""
        return self.shared_cache_for(self._window_cache_spec)

    def shared_cache_for(
        self, spec: WindowCacheSpec
    ) -> Optional[WindowCompilationCache]:
        """Create-or-reuse the engine-lifetime shared cache of one spec.

        The engine's default spec backs every plain sweep; the design
        service passes per-tenant specs (partitioned directories and
        budgets) so tenants never share cache files or evict each other's
        entries, while still reusing one engine.
        """
        if not spec.enabled:
            return None
        cache = self._shared_window_caches.get(spec)
        if cache is None:
            cache = WindowCompilationCache(
                max_entries=spec.max_entries,
                cache_dir=spec.cache_dir,
                max_files=spec.max_files,
                max_bytes=spec.max_bytes,
            )
            self._shared_window_caches[spec] = cache
        return cache

    @property
    def store_statistics(self) -> StoreStatistics:
        """Cumulative protocol-store counters over all of this engine's stores."""
        return reduce(
            StoreStatistics.merged,
            (tech_store.statistics for tech_store in self._tech_stores.values()),
            StoreStatistics(),
        )

    # ------------------------------------------------------------------ #
    def store_for(self, technology: Technology) -> ProtocolStore:
        """The side-by-side protocol store of one swept technology.

        The primary technology uses the engine's own store; every other node
        gets a dedicated store whose disk cache (when the engine is
        disk-backed) lives in a per-technology sub-directory, so multi-node
        populations sit side by side and can be inspected/evicted per node.
        """
        store = self._tech_stores.get(technology.name)
        if store is None:
            root = self._store.cache_dir
            store = ProtocolStore(
                cache_dir=root / technology.name if root is not None else None
            )
            self._tech_stores[technology.name] = store
        return store

    @staticmethod
    def protocol_for(protocol: ProtocolConfig, technology: Technology) -> ProtocolConfig:
        """Re-anchor a protocol on another technology node.

        Besides swapping the technology, the net-generation recipe is kept
        viable: when the configured routing layers do not exist on the
        target node (e.g. the paper's metal4/metal5 on a 65 nm stack), they
        are replaced by the node's global (lowest-resistance) layers — the
        same construction the paper's recipe encodes for 0.18 µm.
        """
        net_config = protocol.net_config
        if any(layer not in technology.layers for layer in net_config.layers):
            net_config = replace(
                net_config,
                layers=technology.global_routing_layers(len(net_config.layers)),
            )
        return replace(protocol, technology=technology, net_config=net_config)

    def build_cases(
        self, protocol: ProtocolConfig, technology: Optional[Technology] = None
    ) -> List[NetCase]:
        """The net population for ``protocol``, via the shared store.

        With an explicit ``technology`` the protocol is re-anchored on that
        node (see :meth:`protocol_for`) and served from its side-by-side
        store.
        """
        if technology is None:
            return self._store.cases(protocol)
        return self.store_for(technology).cases(self.protocol_for(protocol, technology))

    def _run_supervised(
        self,
        jobs: Sequence[Tuple[Technology, "NetCase | TreeCase"]],
        todo: Sequence[int],
        results: "List[Optional[NetDesignResult]]",
        job_keys: Sequence[str],
        method_tuple: Tuple[MethodSpec, ...],
        targets: Optional[TargetSpec],
        spec: WindowCacheSpec,
        journal: Optional[SweepJournal],
    ) -> None:
        """Run the ``todo`` jobs through the supervised worker pool.

        Each task's payload carries its own case and technology, and the
        worker designs it exactly as the serial path does, through the
        per-process shared window cache its pool initializer attached (all
        workers backed by the same disk tier when one is set).

        Worker death and hangs never abort the sweep: the
        :class:`SupervisedExecutor` rebuilds the pool, retries collapse
        suspects through its serial isolation drain, and converts terminal
        supervisor failures into per-net ``poisoned``/``timeout`` results.
        """
        payloads = [
            (
                jobs[index][1],
                method_tuple,
                targets,
                jobs[index][0],
                self._rip_config,
                spec,
                job_keys[index],
            )
            for index in todo
        ]

        def settle(run_index: int, outcome: TaskOutcome) -> None:
            global_index = todo[run_index]
            if outcome.ok:
                result = outcome.value
                if outcome.attempts != result.attempts:
                    result = replace(result, attempts=outcome.attempts)
                if journal is not None:
                    journal.record(job_keys[global_index], asdict(result))
            else:
                # Supervisor-terminal failure: settle the per-entry result
                # parent-side (the worker never returned one).  Deliberately
                # not journaled — poisoned/timeout describe the environment,
                # not the net, so a resumed sweep retries these tasks.
                job_technology, case = jobs[global_index]
                failure = outcome.failure
                result = _case_result(
                    case,
                    _case_targets(case, targets),
                    job_technology,
                    records=(),
                    method_runtimes={},
                    states_generated=0,
                    error=failure.detail,
                    failure_kind=failure.kind,
                    attempts=failure.attempts,
                )
            results[global_index] = result

        executor = SupervisedExecutor(
            max_workers=self._workers,
            initializer=_init_worker,
            initargs=(spec,),
            retry=self._retry,
            task_timeout_s=self._task_timeout_s,
            monitor=self._recovery,
        )
        executor.run(
            _design_case_payload,
            payloads,
            keys=[job_keys[index] for index in todo],
            on_result=settle,
        )

    def design_population(
        self,
        cases: Optional[Sequence[NetCase]] = None,
        methods: Sequence[MethodSpec] = (),
        targets: Optional[TargetSpec] = None,
        *,
        technologies: Optional[Sequence[Technology]] = None,
        protocol: Optional[ProtocolConfig] = None,
        technology: Optional[Technology] = None,
        cache_spec: Optional[WindowCacheSpec] = None,
        checkpoint: bool = False,
        resume: bool = False,
        journal_dir: "Optional[str | Path]" = None,
    ) -> PopulationDesignResult:
        """Design every net of a population with every method.

        Two calling shapes:

        * ``design_population(cases, methods, targets)`` — the classic
          single-technology sweep over prebuilt cases (the engine's own
          technology, or ``technology=`` to design the cases on another
          node — the design service routes per-request nodes through one
          engine this way);
        * ``design_population(methods=..., technologies=[...],
          protocol=...)`` — a multi-technology sweep: each node's population
          is built from ``protocol`` (re-anchored per node, via the
          side-by-side stores) and every (net, technology) pair becomes one
          task in the same worker pool.

        ``targets=None`` uses each case's own protocol targets; passing a
        :class:`TargetSpec` re-sweeps every net with a custom target grid
        (Figure 7 uses a denser one).  ``cache_spec`` overrides the
        engine's shared window-cache spec for this sweep only (per-tenant
        cache partitioning); results are bit-identical either way because
        the cache is bit-transparent.  Records come back technology- then
        net-major in input order regardless of worker count.

        ``checkpoint=True`` streams every completed per-net result into a
        :class:`SweepJournal` under the store's cache directory (or
        ``journal_dir=``), keyed by the full sweep identity;
        ``resume=True`` replays validated journal entries bit-for-bit and
        executes only the remainder, so a killed driver loses at most the
        in-flight tasks.  Supervisor-terminal failures (``poisoned``/
        ``timeout``) are environment-shaped, not properties of the net, so
        they are never journaled — a resumed sweep retries those nets.
        """
        require(len(methods) > 0, "need at least one method")
        names = [spec.name for spec in methods]
        require(len(set(names)) == len(names), "method names must be unique")
        store_stats_before = {
            name: tech_store.statistics
            for name, tech_store in self._tech_stores.items()
        }

        if technologies is None:
            require(
                cases is not None,
                "design_population needs prebuilt cases (or technologies= and protocol=)",
            )
            case_technology = technology if technology is not None else self._technology
            jobs = [(case_technology, case) for case in cases]
            tech_names = (case_technology.name,)
        else:
            require(
                cases is None,
                "pass either prebuilt cases or technologies=, not both",
            )
            require(
                technology is None,
                "technology= applies to prebuilt cases only, not technologies=",
            )
            require(
                protocol is not None,
                "a multi-technology sweep needs protocol= to build each population",
            )
            require(len(technologies) > 0, "need at least one technology")
            tech_names = tuple(technology.name for technology in technologies)
            require(
                len(set(tech_names)) == len(tech_names),
                "technology names must be unique",
            )
            jobs = [
                (technology, case)
                for technology in technologies
                for case in self.build_cases(protocol, technology)
            ]

        started = time.perf_counter()
        method_tuple = tuple(methods)
        spec = cache_spec if cache_spec is not None else self._window_cache_spec
        job_keys = [_job_task_key(job_technology, case) for job_technology, case in jobs]

        journal: Optional[SweepJournal] = None
        results: List[Optional[NetDesignResult]] = [None] * len(jobs)
        if checkpoint or resume:
            directory = journal_dir
            if directory is None and self._store.cache_dir is not None:
                directory = self._store.cache_dir / "journal"
            require(
                directory is not None,
                "checkpoint/resume needs a disk-backed store or journal_dir=",
            )
            require(
                len(set(job_keys)) == len(job_keys),
                "checkpoint/resume needs unique (technology, net) names",
            )
            journal = SweepJournal(
                directory,
                _sweep_components(jobs, method_tuple, targets, self._rip_config),
            )
            entries = journal.begin(resume=resume)
            for index, task_key in enumerate(job_keys):
                payload = entries.get(task_key)
                if payload is not None:
                    results[index] = _net_result_from_payload(payload)
        todo = [index for index in range(len(jobs)) if results[index] is None]

        try:
            if self._workers > 1 and len(todo) > 1:
                self._run_supervised(
                    jobs, todo, results, job_keys, method_tuple, targets, spec, journal
                )
            else:
                # Serial path: every task reuses the engine-lifetime cache of
                # the effective spec.
                shared = self.shared_cache_for(spec)
                for index in todo:
                    job_technology, case = jobs[index]
                    with faults.task_context(job_keys[index]):
                        result = _design_case(
                            case,
                            method_tuple,
                            targets,
                            job_technology,
                            self._rip_config,
                            shared,
                        )
                    if journal is not None:
                        journal.record(job_keys[index], asdict(result))
                    results[index] = result
        finally:
            if journal is not None:
                journal.close()
        wall_clock = time.perf_counter() - started
        states = sum(result.states_generated for result in results)
        num_designs = sum(len(result.records) for result in results)

        store_stats = reduce(
            StoreStatistics.merged,
            (
                tech_store.statistics.since(
                    store_stats_before.get(name, StoreStatistics())
                )
                for name, tech_store in self._tech_stores.items()
            ),
            StoreStatistics(),
        )
        return PopulationDesignResult(
            nets=tuple(results),
            methods=tuple(names),
            statistics=EngineStatistics(
                wall_clock_seconds=wall_clock,
                states_generated=states,
                num_designs=num_designs,
                workers=self._workers,
                window_cache=_merged_deltas(
                    [result.cache_statistics for result in results], CacheStatistics()
                ),
                store=store_stats,
                sanitizer=_merged_deltas(
                    [result.sanitizer_statistics for result in results],
                    SanitizerStatistics(),
                ),
            ),
            technologies=tech_names,
        )
