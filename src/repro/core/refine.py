"""Algorithm REFINE (Fig. 5 of the paper).

REFINE takes an initial repeater assignment and a timing target and produces
a *continuous* low-power assignment: repeater widths are real numbers and
positions move freely along the net (outside forbidden zones).  Each
iteration

1. solves the KKT system of Section 4.2 for the optimal continuous widths and
   the Lagrange multiplier ``lambda`` at the current positions,
2. evaluates the one-sided location derivatives of Eq. (17)/(18) and moves
   every repeater a preselected step in the direction that the optimality
   conditions (Eq. 22/23) say will reduce the total width,
3. re-lumps the stage RC and repeats until the relative improvement of the
   total width falls below ``improvement_threshold`` (the paper's ``eps_0``).

Moves that would land a repeater inside a forbidden zone, cross a
neighbouring repeater, or leave the net are suppressed.

Repeated queries
----------------
Every inner width solve starts from the previous iterate's widths (the
positions moved by one step, so the widths barely change).  Repeated
traffic on the same net is answered by the exact-hit memo: a
:class:`RefineMemo` keeps one :class:`RefineContinuation` per (REFINE
context, net) that returns the recorded :class:`RefineResult` of a
byte-identical ``(net, timing target, initial solution)`` query verbatim,
and :class:`RefineRecordStore` persists those records next to the window
cache's frontier tier so restarts replay them.  The memo belongs to the
window cache (:attr:`~repro.engine.wincache.WindowCompilationCache.refine_memo`),
so it lives as long as the engine, tenant partition or worker process
that owns the cache, not just one design task.

Most of a computed run's cost is the solver's Elmore evaluations, which
the default width solver runs on the compiled per-(net, positions)
evaluator of :mod:`repro.delay.compiled`.  The walked oracle is injected
as ``Refine(technology, DualBisectionWidthSolver(technology,
evaluator="walked"))`` and is bit-for-bit equal.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analytical.derivatives import location_derivative_arrays
from repro.analytical.width_solver import DualBisectionWidthSolver, WidthSolution
from repro.core.solution import InsertionSolution
from repro.net.twopin import TwoPinNet
from repro.tech.technology import Technology
from repro.utils.disklru import DiskLruBudget
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class RefineConfig:
    """Tuning knobs of algorithm REFINE.

    Attributes
    ----------
    movement_step:
        The "preselected distance" (meters) a repeater moves per iteration.
    improvement_threshold:
        Stop when the relative reduction of the total width over one
        iteration drops below this value (the paper's ``eps_0``).
    max_iterations:
        Hard cap on the number of move/solve iterations.
    min_separation:
        Minimum distance kept between adjacent repeaters and between a
        repeater and either terminal, meters.
    keep_best:
        Return the best (lowest total width) iterate seen rather than the
        last one; a pure robustness improvement over the paper's pseudocode.
    allow_zone_crossing:
        The paper's REFINE suppresses any move that lands inside a forbidden
        zone and names "allowing repeaters to move across small-size
        forbidden zones" as future work.  With this flag (on by default) a
        suppressed move is retried as a hop to the far edge of the zone,
        which implements exactly that improvement; set to ``False`` for the
        literal paper behaviour (the ablation benchmark compares the two).
    max_zone_crossing_length:
        Only hop across zones shorter than this (meters); ``None`` means any
        zone may be crossed.
    """

    movement_step: float = 50.0e-6
    improvement_threshold: float = 1.0e-3
    max_iterations: int = 50
    min_separation: float = 1.0e-6
    keep_best: bool = True
    allow_zone_crossing: bool = True
    max_zone_crossing_length: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.movement_step, "movement_step")
        require_positive(self.improvement_threshold, "improvement_threshold")
        require_positive(self.max_iterations, "max_iterations")
        require_positive(self.min_separation, "min_separation")


@dataclass(frozen=True)
class RefineResult:
    """Outcome of one REFINE run.

    Attributes
    ----------
    solution:
        The refined (continuous-width) repeater assignment.
    lagrange_multiplier:
        Multiplier of the timing constraint at the final width solve.
    delay:
        Elmore delay of the refined assignment, seconds.
    total_width:
        Total repeater width of the refined assignment.
    feasible:
        ``False`` when the timing target cannot be met with the initial
        number/positions of repeaters even at maximum widths.
    iterations:
        Number of move/solve iterations performed.
    moves_applied:
        Total number of individual repeater moves accepted.
    width_history:
        Total width after every width solve (starting with the initial one).
    """

    solution: InsertionSolution
    lagrange_multiplier: float
    delay: float
    total_width: float
    feasible: bool
    iterations: int
    moves_applied: int
    width_history: Tuple[float, ...]


class RefineContinuation:
    """Bounded per-net memo of converged REFINE runs.

    :meth:`exact` returns the recorded :class:`RefineResult` of a previously
    designed ``(timing target, initial solution)`` pair verbatim, so
    repeated identical queries are idempotent and free.  Entries are
    LRU-bounded; infeasible runs are recorded too, so their exact repeats
    stay idempotent.
    """

    def __init__(self, max_entries: int = 128) -> None:
        require(max_entries >= 1, "max_entries must be >= 1")
        self._max_entries = max_entries
        self._results: "OrderedDict[tuple, RefineResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._results)

    @staticmethod
    def _key(timing_target: float, initial: InsertionSolution) -> tuple:
        return (float(timing_target), initial.positions, initial.widths)

    def exact(
        self, timing_target: float, initial: InsertionSolution
    ) -> Optional[RefineResult]:
        """The recorded result of a byte-identical earlier run, if any."""
        key = self._key(timing_target, initial)
        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
        return cached

    def record(
        self, timing_target: float, initial: InsertionSolution, result: RefineResult
    ) -> None:
        """Record a converged run for later exact reuse."""
        self._results[self._key(timing_target, initial)] = result
        while len(self._results) > self._max_entries:
            self._results.popitem(last=False)

    def export_records(self) -> List[dict]:
        """JSON-ready dump of all recorded runs (for :class:`RefineRecordStore`)."""
        return [
            {
                "target": target,
                "initial_positions": list(positions),
                "initial_widths": list(widths),
                "result": refine_result_to_payload(result),
            }
            for (target, positions, widths), result in self._results.items()
        ]


#: Bump when the on-disk refine-record payload layout changes.
REFINE_RECORD_FORMAT_VERSION = 1


def refine_result_to_payload(result: RefineResult) -> dict:
    """JSON-ready payload of a REFINE result (exact float round-trip).

    Scalars are coerced to plain Python types — ``feasible`` and ``delay``
    may arrive as numpy scalars, which the stock JSON encoder rejects.
    """
    return {
        "positions": [float(p) for p in result.solution.positions],
        "widths": [float(w) for w in result.solution.widths],
        "lagrange_multiplier": float(result.lagrange_multiplier),
        "delay": float(result.delay),
        "total_width": float(result.total_width),
        "feasible": bool(result.feasible),
        "iterations": int(result.iterations),
        "moves_applied": int(result.moves_applied),
        "width_history": [float(w) for w in result.width_history],
    }


def refine_result_from_payload(payload: dict) -> RefineResult:
    """Rebuild a :class:`RefineResult` from :func:`refine_result_to_payload`."""
    return RefineResult(
        solution=InsertionSolution.from_lists(
            [float(p) for p in payload["positions"]],
            [float(w) for w in payload["widths"]],
        ),
        lagrange_multiplier=float(payload["lagrange_multiplier"]),
        delay=float(payload["delay"]),
        total_width=float(payload["total_width"]),
        feasible=bool(payload["feasible"]),
        iterations=int(payload["iterations"]),
        moves_applied=int(payload["moves_applied"]),
        width_history=tuple(float(w) for w in payload["width_history"]),
    )


class RefineRecordStore:
    """Disk tier for :class:`RefineContinuation` records (one file per net).

    Mirrors the eviction discipline of the other design-state stores
    (:class:`~repro.engine.cache.ProtocolStore` v2, the frontier tier of
    :class:`~repro.engine.wincache.WindowCompilationCache`): files are
    versioned, embed their own key, are written atomically, and any file
    that fails to parse or whose version/key does not match is deleted and
    rebuilt — never trusted and never fatal.

    ``context`` must fingerprint everything a REFINE result depends on
    besides ``(net, timing target, initial solution)`` — the technology
    constants and the full :class:`RefineConfig` (RIP builds it via
    :func:`repro.core.rip.refine_context_fingerprint`).

    Disk budget
    -----------
    The store shares its directory with the frontier tier, and long-lived
    services touch unboundedly many nets — so the per-net record files are
    LRU-bounded on disk: after every save, the oldest-used ``refine-*.json``
    files beyond ``max_files`` (and, when set, beyond ``max_bytes`` of
    total size) are evicted.  Recency is tracked via file mtimes (every
    successful :meth:`load` touches its file), eviction removes whole
    files, and the newest record always survives — surviving records are
    never rewritten by eviction, so they stay bit-for-bit intact.
    ``max_files=None`` disables the count budget (and ``max_bytes=None``,
    the default, the size budget) for callers that manage the directory
    themselves.
    """

    def __init__(
        self,
        cache_dir: os.PathLike,
        context: str,
        *,
        max_files: Optional[int] = 256,
        max_bytes: Optional[int] = None,
    ) -> None:
        self._cache_dir = Path(cache_dir)
        self._context = str(context)
        self.evictions = 0
        # The shared LRU disk-budget discipline (mtime recency, just-saved
        # survives, tracked-name fast path, periodic full re-scans for
        # concurrent writers) lives in DiskLruBudget.
        self._budget = DiskLruBudget(
            self._cache_dir, "refine-*.json", max_files=max_files, max_bytes=max_bytes
        )

    @property
    def cache_dir(self) -> Path:
        """Directory holding the per-net record files."""
        return self._cache_dir

    @property
    def max_files(self) -> Optional[int]:
        """Count budget of the LRU disk tier (``None`` = unbounded)."""
        return self._budget.max_files

    @property
    def max_bytes(self) -> Optional[int]:
        """Size budget (bytes) of the LRU disk tier (``None`` = unbounded)."""
        return self._budget.max_bytes

    def _path(self, net_fingerprint: str) -> Path:
        from repro.utils.canonical import stable_digest  # tiny leaf module

        digest = stable_digest({"net": net_fingerprint, "context": self._context})
        return self._cache_dir / f"refine-{digest}.json"

    def _evict(self, path: Path) -> None:
        self.evictions += 1
        self._budget.forget(path.name)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing eviction is harmless
            pass

    def gc(self) -> int:
        """Apply the disk budgets on demand; returns files evicted."""
        before = self.evictions
        self._budget.gc(self._evict)
        return self.evictions - before

    def load(self, net_fingerprint: str, continuation: "RefineContinuation") -> int:
        """Import the net's recorded runs into ``continuation``.

        Returns the number of records imported (0 when there is no usable
        file).
        """
        path = self._path(net_fingerprint)
        if not path.is_file():
            return 0
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._evict(path)
            return 0
        if (
            not isinstance(data, dict)
            or data.get("format_version") != REFINE_RECORD_FORMAT_VERSION
            or data.get("net") != net_fingerprint
            or data.get("context") != self._context
        ):
            self._evict(path)
            return 0
        try:
            imported = 0
            for entry in data["records"]:
                initial = InsertionSolution.from_lists(
                    [float(p) for p in entry["initial_positions"]],
                    [float(w) for w in entry["initial_widths"]],
                )
                continuation.record(
                    float(entry["target"]),
                    initial,
                    refine_result_from_payload(entry["result"]),
                )
                imported += 1
        except (KeyError, TypeError, ValueError):
            self._evict(path)
            return 0
        try:
            # Mark the file as recently used for the LRU disk budget.
            os.utime(path)
        except OSError:  # pragma: no cover - recency tracking is best-effort
            pass
        return imported

    def save(self, net_fingerprint: str, continuation: "RefineContinuation") -> None:
        """Persist the net's recorded runs (best-effort, atomic replace)."""
        path = self._path(net_fingerprint)
        payload = {
            "format_version": REFINE_RECORD_FORMAT_VERSION,
            "net": net_fingerprint,
            "context": self._context,
            "records": continuation.export_records(),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(path)
        except OSError:  # pragma: no cover - disk persistence is best-effort
            return
        self._budget.note_save(path, self._evict)


@dataclass(frozen=True)
class ContinuationStatistics:
    """Counters of one :class:`RefineMemo` (``nets`` is a gauge)."""

    exact_hits: int
    cold_runs: int
    nets: int

    @property
    def runs(self) -> int:
        """Total REFINE queries answered (memoized or computed)."""
        return self.exact_hits + self.cold_runs


class RefineMemo:
    """Exact-hit REFINE records of many nets, LRU-bounded by net.

    One :class:`RefineContinuation` per ``(context, net fingerprint)``,
    where ``context`` fingerprints the technology and the full
    :class:`RefineConfig` (:func:`repro.core.rip.refine_context_fingerprint`),
    so differently configured inserters sharing one memo never serve each
    other's runs.  At most ``max_nets`` continuations stay in memory.

    With ``cache_dir`` set, a continuation first seen in this memo imports
    the net's :class:`RefineRecordStore` file, and every computed run
    rewrites that file, so restarts replay the records.

    Not thread-safe, like the window cache that owns it.
    """

    #: Disk budget (record-file count) of the persistent refine-record tier;
    #: deliberately larger than the window cache's default entry bound so a
    #: service cycling through more nets than the memo holds still finds
    #: its records on disk.
    MAX_RECORD_FILES = 1024

    def __init__(
        self, max_nets: int = 512, *, cache_dir: Optional[os.PathLike] = None
    ) -> None:
        require(max_nets >= 1, "max_nets must be >= 1")
        self._max_nets = max_nets
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._continuations: "OrderedDict[Tuple[str, str], RefineContinuation]" = (
            OrderedDict()
        )
        self._stores: Dict[str, RefineRecordStore] = {}
        self._exact_hits = 0
        self._cold_runs = 0

    @property
    def statistics(self) -> ContinuationStatistics:
        """Monotone hit/cold-run counters (kept across LRU evictions)."""
        return ContinuationStatistics(
            exact_hits=self._exact_hits,
            cold_runs=self._cold_runs,
            nets=len(self._continuations),
        )

    def clear(self) -> None:
        """Drop every in-memory record and zero the counters (disk files stay)."""
        self._continuations.clear()
        self._exact_hits = 0
        self._cold_runs = 0

    def result(
        self,
        context: str,
        net_fingerprint: str,
        timing_target: float,
        initial: InsertionSolution,
        compute: Callable[[], RefineResult],
    ) -> RefineResult:
        """The recorded result of a byte-identical earlier query, else
        ``compute()`` — recorded (and persisted) for the next repeat."""
        continuation = self._continuation(context, net_fingerprint)
        cached = continuation.exact(timing_target, initial)
        if cached is not None:
            self._exact_hits += 1
            return cached
        self._cold_runs += 1
        refined = compute()
        continuation.record(timing_target, initial, refined)
        store = self._stores.get(context)
        if store is not None:
            # Rewrites the net's (small) record file per computed run —
            # quadratic in targets but ~1ms per save against ~10ms per
            # avoided REFINE run, and crash-safe at every point.
            store.save(net_fingerprint, continuation)
        return refined

    def _continuation(self, context: str, net_fingerprint: str) -> RefineContinuation:
        key = (context, net_fingerprint)
        continuation = self._continuations.get(key)
        if continuation is not None:
            self._continuations.move_to_end(key)
            return continuation
        continuation = RefineContinuation()
        if self._cache_dir is not None:
            store = self._stores.get(context)
            if store is None:
                store = RefineRecordStore(
                    self._cache_dir, context, max_files=self.MAX_RECORD_FILES
                )
                self._stores[context] = store
            store.load(net_fingerprint, continuation)
        self._continuations[key] = continuation
        while len(self._continuations) > self._max_nets:
            self._continuations.popitem(last=False)
        return continuation


class Refine:
    """Iterative analytical improvement of a repeater-insertion solution.

    ``width_solver`` defaults to the compiled
    :class:`~repro.analytical.width_solver.DualBisectionWidthSolver`; any
    object with its ``solve`` signature may be injected (the walked oracle,
    or :class:`~repro.analytical.width_solver.NewtonKktWidthSolver`).
    """

    def __init__(
        self,
        technology: Technology,
        width_solver: Optional[object] = None,
        config: Optional[RefineConfig] = None,
    ) -> None:
        self._technology = technology
        self._config = config or RefineConfig()
        self._solver = width_solver or DualBisectionWidthSolver(technology)

    @property
    def config(self) -> RefineConfig:
        """The REFINE configuration in use."""
        return self._config

    # ------------------------------------------------------------------ #
    def run(
        self,
        net: TwoPinNet,
        initial: InsertionSolution,
        timing_target: float,
    ) -> RefineResult:
        """Refine ``initial`` towards minimum total width under ``timing_target``."""
        require_positive(timing_target, "timing_target")
        config = self._config

        positions: List[float] = [net.legalize(p) for p in initial.positions]
        if not positions:
            width_solution = self._solver.solve(net, [], timing_target)
            return self._result(
                positions=[],
                width_solution=width_solution,
                iterations=0,
                moves=0,
                history=[0.0],
            )

        width_solution = self._solver.solve(
            net, positions, timing_target, initial_widths=initial.widths
        )
        history: List[float] = [width_solution.total_width]
        if not width_solution.feasible:
            return self._result(positions, width_solution, 0, 0, history)

        best_positions = list(positions)
        best_solution = width_solution

        moves_applied = 0
        iterations = 0
        for iterations in range(1, config.max_iterations + 1):
            moved, moves = self._move_repeaters(net, positions, width_solution)
            if not moved:
                break
            moves_applied += moves

            candidate = self._solver.solve(
                net, positions, timing_target, initial_widths=width_solution.widths
            )
            if not candidate.feasible:
                # Undo the move batch: position movement made the target
                # unreachable (can happen when clamping piles repeaters up).
                positions = list(best_positions)
                width_solution = best_solution
                break

            previous_width = width_solution.total_width
            width_solution = candidate
            history.append(width_solution.total_width)

            if width_solution.total_width < best_solution.total_width:
                best_positions = list(positions)
                best_solution = width_solution

            improvement = (previous_width - width_solution.total_width) / max(
                previous_width, 1e-30
            )
            if improvement < config.improvement_threshold:
                break

        if config.keep_best:
            positions = best_positions
            width_solution = best_solution
        return self._result(positions, width_solution, iterations, moves_applied, history)

    # ------------------------------------------------------------------ #
    def _move_repeaters(
        self,
        net: TwoPinNet,
        positions: List[float],
        width_solution: WidthSolution,
    ) -> Tuple[bool, int]:
        """Move repeaters per Eq. (22)/(23); mutates ``positions`` in place."""
        config = self._config
        widths = list(width_solution.widths)
        lam = width_solution.lagrange_multiplier
        left_derivatives, right_derivatives = location_derivative_arrays(
            net, self._technology, positions, widths
        )

        moved_any = False
        moves = 0
        count = len(positions)
        for index in range(count):
            right_violated = lam * right_derivatives[index] < 0.0
            left_violated = lam * left_derivatives[index] > 0.0
            if not right_violated and not left_violated:
                continue

            if right_violated and left_violated:
                # Both moves reduce width; pick the direction with the larger
                # predicted reduction (Eq. 13: reduction ~ lambda * |d tau/dx| * step).
                go_downstream = abs(right_derivatives[index]) >= abs(left_derivatives[index])
            else:
                go_downstream = right_violated

            step = config.movement_step if go_downstream else -config.movement_step
            candidate = positions[index] + step

            lower = (
                positions[index - 1] + config.min_separation
                if index > 0
                else config.min_separation
            )
            upper = (
                positions[index + 1] - config.min_separation
                if index < count - 1
                else net.total_length - config.min_separation
            )
            if lower > upper:
                continue
            candidate = min(max(candidate, lower), upper)

            zone = net.zone_containing(candidate)
            if zone is not None:
                candidate = self._hop_across_zone(zone, go_downstream, lower, upper)
                if candidate is None:
                    continue
            if abs(candidate - positions[index]) <= 1e-12:
                continue
            positions[index] = candidate
            moved_any = True
            moves += 1
        return moved_any, moves

    def _hop_across_zone(
        self,
        zone,
        go_downstream: bool,
        lower: float,
        upper: float,
    ) -> Optional[float]:
        """Relocate a move that landed inside a forbidden zone.

        Returns the far edge of the zone (the paper's future-work
        improvement) when zone crossing is enabled and the edge stays within
        the neighbour bounds; otherwise ``None`` to suppress the move, which
        is the literal behaviour of the paper's REFINE.
        """
        config = self._config
        if not config.allow_zone_crossing:
            return None
        if (
            config.max_zone_crossing_length is not None
            and zone.length > config.max_zone_crossing_length
        ):
            return None
        candidate = zone.end if go_downstream else zone.start
        if candidate < lower or candidate > upper:
            return None
        return candidate

    def _result(
        self,
        positions: Sequence[float],
        width_solution: WidthSolution,
        iterations: int,
        moves: int,
        history: Sequence[float],
    ) -> RefineResult:
        solution = InsertionSolution.from_lists(positions, width_solution.widths)
        return RefineResult(
            solution=solution,
            lagrange_multiplier=width_solution.lagrange_multiplier,
            delay=width_solution.delay,
            total_width=width_solution.total_width,
            feasible=width_solution.feasible,
            iterations=iterations,
            moves_applied=moves,
            width_history=tuple(history),
        )
