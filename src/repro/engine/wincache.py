"""Shared window-compilation cache for RIP's DP passes and the DP methods.

With the DP frontier kernels vectorized (PR 1), the residual per-design
Python cost of the hybrid RIP flow is *window compilation*: for every
``(net, timing target)`` pair the final DP pass rebuilds its design-specific
candidate set (:func:`repro.dp.candidates.window_candidates` — one
``is_legal_position`` check per ``center x offset``) and recompiles the net
against it (:class:`repro.engine.compiled.CompiledNet` — one
``pieces_between`` walk per interval).

Across a multi-target sweep those structures repeat heavily: REFINE
converges to the *same* refined locations for many adjacent timing targets
(loose targets all land on the unconstrained power optimum), the fallback
pass re-merges the same coarse grid, and re-runs of the same design hit
identical inputs.  :class:`WindowCompilationCache` memoizes two compilation
layers and one **DP memo** (plus REFINE's exact-hit memo, see below):

* ``window_candidates`` keyed by ``(net fingerprint, refined locations,
  window, pitch)``;
* ``CompiledNet`` slices keyed by ``(net fingerprint, candidate grid)`` —
  shared across every library run on the same window;
* the DP memo: one keyed-memo path with three entry kinds.  RIP's coarse
  and final **frontiers** (:meth:`~WindowCompilationCache.final_dp_result`)
  are keyed by ``(net fingerprint, dp context, library widths, candidate
  grid)``, where the *dp context* fingerprints the technology constants
  and the DP's pruning tolerances; adjacent targets that refine to the same
  library and window share one final DP.  **Tree solutions**
  (:meth:`~WindowCompilationCache.tree_solutions`) are keyed by ``(tree
  fingerprint, tree-DP context, targets)``, and a ``dp-g*`` method's
  **baseline answers** (:meth:`~WindowCompilationCache.baseline_answers`)
  by ``(net fingerprint, dp context, library widths, candidate grid,
  targets)``.  Each entry is a deterministic pure function of its key, so
  a hit skips the DP run outright.

The cache also owns REFINE's exact-hit records
(:attr:`WindowCompilationCache.refine_memo`, bounded by the same
``max_entries``): every :class:`~repro.core.rip.Rip` built on the cache
answers repeated REFINE queries from them, so they live as long as the
cache, not as long as one inserter.

Keys use **exact** float equality (no quantization), so a cache hit returns
a structure built from byte-identical inputs — DP results with the cache on
are bit-for-bit identical to the cache-off path (tested).  All layers are
bounded LRU maps; the in-memory tiers are per-process state and not
thread-safe.

The net fingerprint is a :func:`repro.utils.canonical.stable_digest` over
the net's canonical serialization (:func:`repro.net.io.net_to_dict`), so it
is stable across processes — two workers given equal nets compute equal
keys.

Persistent DP-memo tier
-----------------------
Because every key component is a process-stable digest or an exact float
tuple, the DP memo additionally supports a disk tier (``cache_dir``): each
entry is written as a versioned, self-keyed ``frontier-<digest>.json`` file
(atomic write-and-replace, safe for concurrent workers sharing one
directory); tree and baseline files carry a ``"kind"`` tag.  Floats
round-trip exactly through JSON, so a reloaded entry is bit-for-bit equal
to the computed one — repeated sweeps survive process restarts with the
DPs skipped outright.
The eviction discipline matches :class:`~repro.engine.cache.ProtocolStore`
v2: a file that fails to parse, carries a stale ``format_version``, or
whose embedded key/components do not match its name is deleted and
rebuilt, never trusted and never fatal.
"""

from __future__ import annotations

import dataclasses
import json
import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple, TypeVar

from repro.analysis import faults
from repro.dp.candidates import window_candidates
from repro.dp.frontier import DelayWidthFrontier, FrontierPoint
from repro.dp.powerdp import DpStatistics, PowerDpResult
from repro.dp.state import DpSolution
from repro.engine.compiled import CompiledNet
from repro.net.io import net_to_dict
from repro.net.twopin import TwoPinNet
from repro.tree.buffering import TreeBufferAssignment, TreeDpStatistics, TreeSolution
from repro.tree.io import tree_to_dict
from repro.tree.rctree import RoutingTree
from repro.utils.canonical import stable_digest
from repro.utils.counters import Counters, gauge
from repro.utils.disklru import DiskLruBudget
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.refine import RefineMemo

__all__ = [
    "BaselineAnswers",
    "CacheStatistics",
    "FRONTIER_FORMAT_VERSION",
    "WindowCompilationCache",
    "dp_context_fingerprint",
    "dp_result_from_payload",
    "dp_result_to_payload",
    "net_fingerprint",
    "resolve_window_cache",
    "tree_fingerprint",
    "tree_solutions_from_payload",
    "tree_solutions_to_payload",
]

#: Bump when the on-disk frontier payload layout changes.
FRONTIER_FORMAT_VERSION = 1

_ResultT = TypeVar("_ResultT")


#: Memoized per-net fingerprints.  Keyed by the (hashable, frozen) net value,
#: so equal nets share one entry; weak references keep the map from pinning
#: populations in memory.
_FINGERPRINTS: "weakref.WeakKeyDictionary[TwoPinNet, str]" = weakref.WeakKeyDictionary()


def net_fingerprint(net: TwoPinNet) -> str:
    """Process-stable hex fingerprint of a net's canonical serialization."""
    cached = _FINGERPRINTS.get(net)
    if cached is None:
        cached = stable_digest(net_to_dict(net))
        _FINGERPRINTS[net] = cached
    return cached


#: Memoized per-tree fingerprints.  Trees are mutable, so the memo is keyed
#: by identity (default object hash) — the engine never mutates a tree after
#: first solving it, which is the same point the fingerprint is first taken.
_TREE_FINGERPRINTS: "weakref.WeakKeyDictionary[RoutingTree, str]" = (
    weakref.WeakKeyDictionary()
)


def tree_fingerprint(tree: RoutingTree) -> str:
    """Process-stable hex fingerprint of a tree's canonical serialization.

    Built over :func:`repro.tree.io.tree_to_dict`, which preserves edge
    insertion order — order is semantic for the tree DP (sibling merge
    order steers the low bits of merged capacitances), so order-distinct
    trees deliberately get distinct fingerprints.
    """
    cached = _TREE_FINGERPRINTS.get(tree)
    if cached is None:
        cached = stable_digest(tree_to_dict(tree))
        _TREE_FINGERPRINTS[tree] = cached
    return cached


def dp_context_fingerprint(technology, pruning) -> str:
    """Fingerprint of everything *besides* (net, library, candidates) a
    power-aware DP result depends on: the technology constants and the
    pruning tolerances of the DP that computes it (its
    :attr:`~repro.dp.powerdp.PowerAwareDp.pruning`).  Every pruning field
    joins the key, because the tolerances change which states survive.
    Oracle cores and evaluators are bit-identical to production and are not
    product settings, so they do not join it; oracle runs bypass the
    cache."""
    from repro.engine.cache import technology_fingerprint  # heavy module; defer

    return stable_digest(
        {
            "technology": technology_fingerprint(technology),
            "pruning": {
                field.name: getattr(pruning, field.name)
                for field in dataclasses.fields(pruning)
            },
        }
    )


# --------------------------------------------------------------------------- #
# DP-memo values and their (de)serialization for the disk tier
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BaselineAnswers:
    """One ``dp-g*`` method's answers on one net, as the DP memo stores them.

    ``points`` holds :meth:`~repro.dp.powerdp.PowerAwareDp.run_many`'s
    answer per target (``None`` where nothing meets the target) and
    ``statistics`` its summed :class:`DpStatistics`.  ``runtime_seconds``
    is the method runtime charged when the answers were computed (the
    passes plus the net's candidate compilation); a memo hit replays it,
    as a sweep-journal replay does.
    """

    points: Tuple[Optional[FrontierPoint], ...]
    statistics: DpStatistics
    runtime_seconds: float


def _fields_payload(record) -> dict:
    fields = dataclasses.fields(record)
    return {field.name: getattr(record, field.name) for field in fields}


def _point_to_payload(point: FrontierPoint) -> dict:
    return {
        "delay": point.delay,
        "total_width": point.total_width,
        "positions": list(point.solution.positions),
        "widths": list(point.solution.widths),
    }


def _point_from_payload(entry: dict) -> FrontierPoint:
    delay, total_width = float(entry["delay"]), float(entry["total_width"])
    return FrontierPoint(
        delay=delay,
        total_width=total_width,
        solution=DpSolution.from_lists(
            positions=[float(p) for p in entry["positions"]],
            widths=[float(w) for w in entry["widths"]],
            delay=delay,
            total_width=total_width,
        ),
    )


def _dp_statistics_from_payload(raw: dict) -> DpStatistics:
    return DpStatistics(
        num_candidates=int(raw["num_candidates"]),
        library_size=int(raw["library_size"]),
        states_generated=int(raw["states_generated"]),
        max_front_size=int(raw["max_front_size"]),
        runtime_seconds=float(raw["runtime_seconds"]),
    )


def dp_result_to_payload(result: PowerDpResult) -> dict:
    """JSON-ready payload of a final-pass DP result (exact float round-trip)."""
    return {
        "statistics": _fields_payload(result.statistics),
        "points": [_point_to_payload(point) for point in result.frontier.points],
    }


def dp_result_from_payload(payload: dict) -> PowerDpResult:
    """Rebuild a :class:`PowerDpResult` from :func:`dp_result_to_payload`.

    The reconstruction is bit-for-bit faithful: JSON floats round-trip
    exactly, and :class:`DelayWidthFrontier`'s construction-time pruning is
    the identity on an already-pruned frontier.
    """
    points = [_point_from_payload(entry) for entry in payload["points"]]
    statistics = _dp_statistics_from_payload(payload["statistics"])
    return PowerDpResult(frontier=DelayWidthFrontier(points), statistics=statistics)


def _baseline_to_payload(answers: BaselineAnswers) -> dict:
    return {
        "points": [None if p is None else _point_to_payload(p) for p in answers.points],
        "statistics": _fields_payload(answers.statistics),
        "runtime_seconds": answers.runtime_seconds,
    }


def _baseline_from_payload(payload: dict) -> BaselineAnswers:
    return BaselineAnswers(
        points=tuple(
            None if entry is None else _point_from_payload(entry)
            for entry in payload["points"]
        ),
        statistics=_dp_statistics_from_payload(payload["statistics"]),
        runtime_seconds=float(payload["runtime_seconds"]),
    )


def tree_solutions_to_payload(solutions: Sequence[TreeSolution]) -> list:
    """JSON-ready payload of per-target tree DP solutions (exact floats)."""
    return [
        {
            "assignments": [_fields_payload(item) for item in solution.assignments],
            "worst_delay": solution.worst_delay,
            "total_width": solution.total_width,
            "feasible": solution.feasible,
            "statistics": None
            if solution.statistics is None
            else _fields_payload(solution.statistics),
        }
        for solution in solutions
    ]


def tree_solutions_from_payload(payload: Sequence[dict]) -> "list[TreeSolution]":
    """Rebuild tree solutions from :func:`tree_solutions_to_payload`.

    Bit-for-bit faithful for the same reason as the net frontier payloads:
    JSON floats round-trip exactly and the structures are plain records.
    """
    solutions = []
    for entry in payload:
        raw = entry.get("statistics")
        statistics = (
            None
            if raw is None
            else TreeDpStatistics(
                num_edges=int(raw["num_edges"]),
                num_sites=int(raw["num_sites"]),
                library_size=int(raw["library_size"]),
                states_generated=int(raw["states_generated"]),
                max_front_size=int(raw["max_front_size"]),
                runtime_seconds=float(raw["runtime_seconds"]),
            )
        )
        solutions.append(
            TreeSolution(
                assignments=tuple(
                    TreeBufferAssignment(
                        parent=str(item["parent"]),
                        child=str(item["child"]),
                        distance_from_child=float(item["distance_from_child"]),
                        width=float(item["width"]),
                    )
                    for item in entry["assignments"]
                ),
                worst_delay=float(entry["worst_delay"]),
                total_width=float(entry["total_width"]),
                feasible=bool(entry["feasible"]),
                statistics=statistics,
            )
        )
    return solutions


@dataclass(frozen=True)
class CacheStatistics(Counters):
    """Hit/miss instrumentation of one :class:`WindowCompilationCache`.

    ``frontier_hits``/``frontier_misses`` count in-memory lookups of the
    DP memo, whatever the entry kind (RIP frontiers, tree solutions,
    baseline answers); the ``disk_*`` counters instrument the persistent
    tier beneath it (a disk hit is still an in-memory miss).
    ``refine_hits``/``refine_cold_runs`` count REFINE queries the cache's
    :class:`~repro.core.refine.RefineMemo` answered from a record /
    computed; they are not window-cache lookups, so ``hits``, ``misses``
    and ``hit_rate`` leave them out.  ``entries`` is a gauge (current entry
    count of the two compilation layers and the DP memo), every other
    field a monotone counter.

    Each process has its own cache, so ``entries`` cannot be compared
    between a serial and a pooled sweep, nor between two pooled runs: a
    serial sweep reports the size of the engine's cache, a pooled sweep the
    largest worker-cache size seen when a task ended, which depends on
    scheduling.  Every counter can be compared.
    """

    candidate_hits: int = 0
    candidate_misses: int = 0
    compiled_hits: int = 0
    compiled_misses: int = 0
    frontier_hits: int = 0
    frontier_misses: int = 0
    entries: int = gauge()
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_evictions: int = 0
    refine_hits: int = 0
    refine_cold_runs: int = 0

    @property
    def hits(self) -> int:
        """Total in-memory hits over all cache layers."""
        return self.candidate_hits + self.compiled_hits + self.frontier_hits

    @property
    def misses(self) -> int:
        """Total in-memory misses over all cache layers."""
        return self.candidate_misses + self.compiled_misses + self.frontier_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class WindowCompilationCache:
    """Bounded LRU memo of window candidate grids, compiled-net slices and
    DP results.

    With ``cache_dir`` set, the DP memo is additionally persisted to
    versioned, self-keyed JSON files in that directory (shared safely by
    concurrent worker processes) — see the module docstring.

    Disk budget
    -----------
    Long-lived services touch unboundedly many (net, window) pairs, so the
    persistent DP-memo files are LRU-bounded on disk exactly like the
    refine-record tier (:class:`~repro.core.refine.RefineRecordStore`):
    after a save, the least-recently-used ``frontier-*.json`` files beyond
    ``max_files`` (and, when set, beyond ``max_bytes`` total) are evicted.
    Recency is tracked via file mtimes (disk-tier hits touch their file),
    eviction removes whole files, the file just saved always survives, and
    survivors are never rewritten.  ``max_files=None`` / ``max_bytes=None``
    disable the respective budget; :meth:`gc` applies the budgets on
    demand (the ``rip cache --gc`` subcommand).
    """

    #: Default count budget of the persistent DP-memo tier.
    DEFAULT_MAX_FRONTIER_FILES = 4096

    def __init__(
        self,
        max_entries: int = 512,
        *,
        cache_dir: Optional[os.PathLike] = None,
        max_files: Optional[int] = DEFAULT_MAX_FRONTIER_FILES,
        max_bytes: Optional[int] = None,
    ) -> None:
        # repro.core imports this module; importing it here keeps the
        # import graph acyclic.
        from repro.core.refine import RefineMemo

        require(max_entries >= 1, "max_entries must be >= 1")
        self._max_entries = max_entries
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._refine_memo = RefineMemo(max_entries, cache_dir=self._cache_dir)
        # The shared LRU disk-budget discipline (mtime recency, just-saved
        # survives, tracked-name fast path, periodic full re-scans for
        # concurrent writers) lives in DiskLruBudget.
        self._budget = DiskLruBudget(
            self._cache_dir if self._cache_dir is not None else Path("."),
            "frontier-*.json",
            max_files=max_files,
            max_bytes=max_bytes,
        )
        self._candidates: "OrderedDict[tuple, Tuple[float, ...]]" = OrderedDict()
        self._compiled: "OrderedDict[tuple, CompiledNet]" = OrderedDict()
        self._frontiers: "OrderedDict[tuple, object]" = OrderedDict()
        self._candidate_hits = 0
        self._candidate_misses = 0
        self._compiled_hits = 0
        self._compiled_misses = 0
        self._frontier_hits = 0
        self._frontier_misses = 0
        self._evictions = 0
        self._disk_hits = 0
        self._disk_misses = 0
        self._disk_evictions = 0

    @property
    def max_entries(self) -> int:
        """LRU capacity of each cache layer."""
        return self._max_entries

    @property
    def cache_dir(self) -> Optional[Path]:
        """Directory of the persistent DP-memo tier (``None`` = memory only)."""
        return self._cache_dir

    @property
    def refine_memo(self) -> RefineMemo:
        """REFINE's exact-hit :class:`~repro.core.refine.RefineMemo`, with
        its record files in :attr:`cache_dir` when that is set."""
        return self._refine_memo

    @property
    def max_files(self) -> Optional[int]:
        """Count budget of the DP-memo disk tier (``None`` = unbounded)."""
        return self._budget.max_files

    @property
    def max_bytes(self) -> Optional[int]:
        """Size budget (bytes) of the DP-memo disk tier (``None`` = unbounded)."""
        return self._budget.max_bytes

    @property
    def statistics(self) -> CacheStatistics:
        """Current hit/miss/eviction counters."""
        refine = self._refine_memo.statistics
        return CacheStatistics(
            candidate_hits=self._candidate_hits,
            candidate_misses=self._candidate_misses,
            compiled_hits=self._compiled_hits,
            compiled_misses=self._compiled_misses,
            frontier_hits=self._frontier_hits,
            frontier_misses=self._frontier_misses,
            entries=len(self._candidates) + len(self._compiled) + len(self._frontiers),
            evictions=self._evictions,
            disk_hits=self._disk_hits,
            disk_misses=self._disk_misses,
            disk_evictions=self._disk_evictions,
            refine_hits=refine.exact_hits,
            refine_cold_runs=refine.cold_runs,
        )

    def clear(self) -> None:
        """Drop the compilation and DP-memo entries (counters, the REFINE
        memo and disk files are kept)."""
        self._candidates.clear()
        self._compiled.clear()
        self._frontiers.clear()

    # ------------------------------------------------------------------ #
    def _evict_to_capacity(self, table: "OrderedDict") -> None:
        while len(table) > self._max_entries:
            table.popitem(last=False)
            self._evictions += 1

    def window_candidates(
        self,
        net: TwoPinNet,
        centers: Sequence[float],
        *,
        window: int,
        pitch: float,
        include_centers: bool = True,
    ) -> Tuple[float, ...]:
        """Memoized :func:`repro.dp.candidates.window_candidates`.

        The key uses the exact center values (REFINE's refined locations),
        so a hit returns the grid of a byte-identical earlier query.
        """
        key = (
            net_fingerprint(net),
            tuple(float(center) for center in centers),
            int(window),
            float(pitch),
            bool(include_centers),
        )
        cached = self._candidates.get(key)
        if cached is not None:
            self._candidate_hits += 1
            self._candidates.move_to_end(key)
            return cached
        self._candidate_misses += 1
        grid = tuple(
            window_candidates(
                net, key[1], window=window, pitch=pitch, include_centers=include_centers
            )
        )
        self._candidates[key] = grid
        self._evict_to_capacity(self._candidates)
        return grid

    def compiled(
        self, net: TwoPinNet, candidate_positions: Sequence[float]
    ) -> CompiledNet:
        """Memoized :class:`CompiledNet` for ``(net, candidate_positions)``.

        ``candidate_positions`` may contain illegal/duplicate positions (the
        constructor legalises and merges exactly like the uncached path).
        """
        key = (
            net_fingerprint(net),
            tuple(float(position) for position in candidate_positions),
        )
        cached = self._compiled.get(key)
        if cached is not None:
            self._compiled_hits += 1
            self._compiled.move_to_end(key)
            return cached
        self._compiled_misses += 1
        compiled = CompiledNet(net, key[1])
        self._compiled[key] = compiled
        self._evict_to_capacity(self._compiled)
        return compiled

    def final_dp_result(
        self,
        net: TwoPinNet,
        context: str,
        library_widths: Sequence[float],
        candidate_positions: Sequence[float],
        factory: Callable[[], _ResultT],
    ) -> _ResultT:
        """Memoized RIP DP frontier (the coarse and the final pass).

        ``context`` must fingerprint every DP input besides the key's own
        components — use :func:`dp_context_fingerprint` for the technology
        and the DP's pruning tolerances.  A frontier run is deterministic given
        ``(net, context, library, candidates)``, so a hit returns a result
        bit-for-bit equal to what ``factory()`` would recompute; on a hit
        the factory (and hence the whole DP run) is skipped.  Only
        :class:`PowerDpResult` values reach the disk tier.
        """
        # ``context`` is already a canonical fingerprint string; coercing it
        # through str() would mask a non-canonical caller (lint R3 bans it).
        parts = (
            net_fingerprint(net),
            context,
            tuple(map(float, library_widths)),
            tuple(map(float, candidate_positions)),
        )
        return self._memo(_FRONTIER, parts, factory)

    def tree_solutions(
        self,
        tree: RoutingTree,
        context: str,
        timing_targets: Sequence[float],
        factory: Callable[[], "list[TreeSolution]"],
    ) -> "list[TreeSolution]":
        """Memoized per-target tree DP solutions.

        ``context`` must fingerprint every tree-DP input besides the tree
        and the targets: the technology, the library, the site pitch and
        the state cap (:class:`~repro.engine.design.DesignEngine` folds
        those into one digest).
        """
        parts = (tree_fingerprint(tree), context, tuple(map(float, timing_targets)))
        return self._memo(_TREE, parts, factory)

    def baseline_answers(
        self,
        net: TwoPinNet,
        context: str,
        library_widths: Sequence[float],
        candidate_positions: Sequence[float],
        timing_targets: Sequence[float],
        factory: Callable[[], BaselineAnswers],
    ) -> BaselineAnswers:
        """Memoized answers of one ``dp-g*`` method on one net.

        ``context`` is :func:`dp_context_fingerprint` of the technology and
        pruning.  The whole target tuple joins the key, because
        :meth:`~repro.dp.powerdp.PowerAwareDp.run_many` bounds its run by
        the tightest target and so answers only the targets it was given.
        """
        parts = (
            net_fingerprint(net),
            context,
            tuple(map(float, library_widths)),
            tuple(map(float, candidate_positions)),
            tuple(map(float, timing_targets)),
        )
        return self._memo(_BASELINE, parts, factory)

    # ------------------------------------------------------------------ #
    # the one keyed-memo path of the DP memo and its persistent tier
    # ------------------------------------------------------------------ #
    def _memo(
        self, kind: "_EntryKind", parts: tuple, factory: Callable[[], _ResultT]
    ) -> _ResultT:
        """Memory LRU, then the disk tier, then ``factory()``."""
        key = (kind.tag, *parts)
        cached = self._frontiers.get(key)
        if cached is not None:
            self._frontier_hits += 1
            self._frontiers.move_to_end(key)
            return cached  # type: ignore[return-value]
        self._frontier_misses += 1
        result = None
        if self._cache_dir is not None:
            result = self._load(kind, parts)
            if result is None:
                self._disk_misses += 1
            else:
                self._disk_hits += 1
        if result is None:
            result = factory()
            if self._cache_dir is not None and isinstance(result, kind.value_type):
                self._save(kind, parts, result)
        self._frontiers[key] = result
        self._evict_to_capacity(self._frontiers)
        return result

    @staticmethod
    def _components(kind: "_EntryKind", parts: tuple) -> Tuple[dict, str]:
        """The self-keying fields of an entry's file and their digest.

        The fields are the ``kind`` tag (none for frontiers) and the named
        key parts, sequences as lists; the digest covers all of them.
        """
        components = {} if kind.tag is None else {"kind": kind.tag}
        for name, value in zip(kind.parts, parts):
            components[name] = list(value) if isinstance(value, tuple) else value
        return components, stable_digest(components)

    def _path(self, digest: str) -> Path:
        assert self._cache_dir is not None
        return self._cache_dir / f"frontier-{digest}.json"

    def _evict_file(self, path: Path) -> None:
        """Delete a stale/corrupted/over-budget DP-memo file (best-effort)."""
        self._disk_evictions += 1
        self._budget.forget(path.name)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing eviction is harmless
            pass

    def _load(self, kind: "_EntryKind", parts: tuple) -> Optional[object]:
        components, digest = self._components(kind, parts)
        path = self._path(digest)
        if not path.is_file():
            return None
        try:
            # The fault switchboard sits between reading and validating —
            # a "corrupt-cache-read" spec exercises the eviction below.
            text = faults.maybe_corrupt(
                "wincache.disk-read", path.read_text(encoding="utf-8")
            )
            data = json.loads(text)
        except (OSError, ValueError):  # corrupted cache file
            self._evict_file(path)
            return None
        if (
            not isinstance(data, dict)
            or data.get("format_version") != FRONTIER_FORMAT_VERSION
            or data.get("key") != digest
            or any(data.get(name) != value for name, value in components.items())
        ):
            # Old format, or a file whose content does not belong to its
            # name (digest collision / tampering): evict and rebuild.
            self._evict_file(path)
            return None
        try:
            result = kind.from_payload(data["result"])
        except (KeyError, TypeError, ValueError):  # structurally broken payload
            self._evict_file(path)
            return None
        try:
            # Mark the file as recently used for the LRU disk budget.
            os.utime(path)
        except OSError:  # pragma: no cover - recency tracking is best-effort
            pass
        return result

    def _save(self, kind: "_EntryKind", parts: tuple, result: object) -> None:
        """Persist a computed entry (best-effort, atomic replace): the
        ``kind`` tag, if any, follows ``format_version``, then ``key``."""
        components, digest = self._components(kind, parts)
        path = self._path(digest)
        payload = {"format_version": FRONTIER_FORMAT_VERSION}
        if kind.tag is not None:
            payload["kind"] = components.pop("kind")
        payload["key"] = digest
        payload.update(components)
        payload["result"] = kind.to_payload(result)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Per-process temp name: concurrent workers writing the same
            # (deterministic, identical) entry replace atomically.
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(path)
        except OSError:  # pragma: no cover - disk persistence is best-effort
            return
        self._budget.note_save(path, self._evict_file)

    def gc(self) -> int:
        """Apply the disk budgets on demand; returns files evicted."""
        if self._cache_dir is None:
            return 0
        before = self._disk_evictions
        self._budget.gc(self._evict_file)
        return self._disk_evictions - before

    def disk_usage(self) -> Tuple[int, int]:
        """``(files, bytes)`` of the persistent tiers in ``cache_dir``.

        Counts both the frontier files this cache owns and the REFINE
        continuation records sharing the directory — i.e. the whole
        design-state footprint of the directory.  The design service's
        ``/metrics`` endpoint reports this per tenant partition.
        """
        if self._cache_dir is None or not self._cache_dir.is_dir():
            return (0, 0)
        files = 0
        total = 0
        for pattern in ("frontier-*.json", "refine-*.json"):
            for path in self._cache_dir.glob(pattern):
                try:
                    total += path.stat().st_size
                except OSError:  # pragma: no cover - racing eviction
                    continue
                files += 1
        return (files, total)


@dataclass(frozen=True)
class _EntryKind:
    """One kind of DP-memo entry: its file's ``kind`` tag, the names of its
    key parts, the value type persisted and the payload codec."""

    tag: Optional[str]
    parts: Tuple[str, ...]
    value_type: type
    to_payload: Callable[[object], object]
    from_payload: Callable[[object], object]


_FRONTIER = _EntryKind(
    None,
    ("net", "context", "library", "candidates"),
    PowerDpResult,
    dp_result_to_payload,
    dp_result_from_payload,
)
_TREE = _EntryKind(
    "tree",
    ("tree", "context", "targets"),
    list,
    tree_solutions_to_payload,
    tree_solutions_from_payload,
)
_BASELINE = _EntryKind(
    "baseline",
    ("net", "context", "library", "candidates", "targets"),
    BaselineAnswers,
    _baseline_to_payload,
    _baseline_from_payload,
)


def resolve_window_cache(
    window_cache: "Optional[WindowCompilationCache] | bool",
) -> Optional[WindowCompilationCache]:
    """Normalize the ``window_cache`` argument accepted by :class:`Rip`.

    ``None``/``True`` create a fresh private cache, ``False`` disables
    caching, and an explicit :class:`WindowCompilationCache` is shared as
    given.
    """
    if window_cache is False:
        return None
    if window_cache is None or window_cache is True:
        return WindowCompilationCache()
    return window_cache
