"""Shared window-compilation cache for RIP's final DP pass.

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
identical inputs.  :class:`WindowCompilationCache` memoizes three layers
(plus REFINE's exact-hit memo, see below):

* ``window_candidates`` keyed by ``(net fingerprint, refined locations,
  window, pitch)``;
* ``CompiledNet`` slices keyed by ``(net fingerprint, candidate grid)`` —
  shared across every library run on the same window;
* the final-pass **DP frontier** keyed by ``(net fingerprint, dp context,
  library widths, candidate grid)``, where the *dp context* fingerprints
  the technology constants and pruning configuration.  The frontier is a
  deterministic pure function of that key, so when two timing targets
  produce the same design-specific library and window (the common case for
  adjacent targets), the second one skips the final DP entirely and reads
  its answer off the memoized frontier — this layer is what turns the
  repeated-window structure into wall-clock savings.

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

Persistent frontier tier
------------------------
Because every key component is a process-stable digest or an exact float
tuple, the **frontier layer** additionally supports a disk tier
(``cache_dir``): each memoized final-pass DP frontier is written as a
versioned, self-keyed ``frontier-<digest>.json`` file (atomic
write-and-replace, safe for concurrent workers sharing one directory).
Floats round-trip exactly through JSON, so a reloaded frontier is
bit-for-bit equal to the computed one — repeated sweeps survive process
restarts with the final DP skipped outright.  The eviction discipline
matches :class:`~repro.engine.cache.ProtocolStore` v2: a file that fails to
parse, carries a stale ``format_version``, or whose embedded key/components
do not match its name is deleted and rebuilt, never trusted and never
fatal.
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
    pruning configuration.  Every pruning field joins the key, because
    strategies and tolerances change which states survive.  Oracle cores
    and evaluators are bit-identical to production and are not product
    settings, so they do not join it; oracle runs bypass the cache."""
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
# frontier (de)serialization for the disk tier
# --------------------------------------------------------------------------- #
def dp_result_to_payload(result: PowerDpResult) -> dict:
    """JSON-ready payload of a final-pass DP result (exact float round-trip)."""
    return {
        "statistics": {
            field.name: getattr(result.statistics, field.name)
            for field in dataclasses.fields(result.statistics)
        },
        "points": [
            {
                "delay": point.delay,
                "total_width": point.total_width,
                "positions": list(point.solution.positions),
                "widths": list(point.solution.widths),
            }
            for point in result.frontier.points
        ],
    }


def dp_result_from_payload(payload: dict) -> PowerDpResult:
    """Rebuild a :class:`PowerDpResult` from :func:`dp_result_to_payload`.

    The reconstruction is bit-for-bit faithful: JSON floats round-trip
    exactly, and :class:`DelayWidthFrontier`'s construction-time pruning is
    the identity on an already-pruned frontier.
    """
    points = [
        FrontierPoint(
            delay=float(entry["delay"]),
            total_width=float(entry["total_width"]),
            solution=DpSolution.from_lists(
                positions=[float(p) for p in entry["positions"]],
                widths=[float(w) for w in entry["widths"]],
                delay=float(entry["delay"]),
                total_width=float(entry["total_width"]),
            ),
        )
        for entry in payload["points"]
    ]
    raw = payload["statistics"]
    statistics = DpStatistics(
        num_candidates=int(raw["num_candidates"]),
        library_size=int(raw["library_size"]),
        states_generated=int(raw["states_generated"]),
        max_front_size=int(raw["max_front_size"]),
        runtime_seconds=float(raw["runtime_seconds"]),
    )
    return PowerDpResult(frontier=DelayWidthFrontier(points), statistics=statistics)


def tree_solutions_to_payload(solutions: Sequence[TreeSolution]) -> list:
    """JSON-ready payload of per-target tree DP solutions (exact floats)."""
    payload = []
    for solution in solutions:
        statistics = solution.statistics
        payload.append(
            {
                "assignments": [
                    {
                        "parent": assignment.parent,
                        "child": assignment.child,
                        "distance_from_child": assignment.distance_from_child,
                        "width": assignment.width,
                    }
                    for assignment in solution.assignments
                ],
                "worst_delay": solution.worst_delay,
                "total_width": solution.total_width,
                "feasible": solution.feasible,
                "statistics": None
                if statistics is None
                else {
                    field.name: getattr(statistics, field.name)
                    for field in dataclasses.fields(statistics)
                },
            }
        )
    return payload


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

    ``frontier_misses`` counts in-memory frontier misses; the ``disk_*``
    counters instrument the persistent tier beneath them (a disk hit is
    still an in-memory miss).  ``refine_hits``/``refine_cold_runs`` count
    REFINE queries the cache's :class:`~repro.core.refine.RefineMemo`
    answered from a record / computed; they are not window-cache lookups,
    so ``hits``, ``misses`` and ``hit_rate`` leave them out.  ``entries``
    is a gauge (current entry count of the three window layers), every
    other field a monotone counter.

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
    """Bounded LRU memo of window candidate grids and compiled-net slices.

    With ``cache_dir`` set, the frontier layer is additionally persisted to
    versioned, self-keyed JSON files in that directory (shared safely by
    concurrent worker processes) — see the module docstring.

    Disk budget
    -----------
    Long-lived services touch unboundedly many (net, window) pairs, so the
    persistent frontier files are LRU-bounded on disk exactly like the
    refine-record tier (:class:`~repro.core.refine.RefineRecordStore`):
    after a save, the least-recently-used ``frontier-*.json`` files beyond
    ``max_files`` (and, when set, beyond ``max_bytes`` total) are evicted.
    Recency is tracked via file mtimes (disk-tier hits touch their file),
    eviction removes whole files, the file just saved always survives, and
    survivors are never rewritten.  ``max_files=None`` / ``max_bytes=None``
    disable the respective budget; :meth:`gc` applies the budgets on
    demand (the ``rip cache --gc`` subcommand).
    """

    #: Default count budget of the persistent frontier tier.
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
        """Directory of the persistent frontier tier (``None`` = memory only)."""
        return self._cache_dir

    @property
    def refine_memo(self) -> RefineMemo:
        """REFINE's exact-hit :class:`~repro.core.refine.RefineMemo`, with
        its record files in :attr:`cache_dir` when that is set."""
        return self._refine_memo

    @property
    def max_files(self) -> Optional[int]:
        """Count budget of the frontier disk tier (``None`` = unbounded)."""
        return self._budget.max_files

    @property
    def max_bytes(self) -> Optional[int]:
        """Size budget (bytes) of the frontier disk tier (``None`` = unbounded)."""
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
        """Drop the window-layer entries (counters, the REFINE memo and disk
        files are kept)."""
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
        """Memoized final-pass DP frontier.

        ``context`` must fingerprint every DP input besides the key's own
        components — use :func:`dp_context_fingerprint` for the technology
        and pruning configuration.  A frontier run is deterministic given
        ``(net, context, library, candidates)``, so a hit returns a result
        bit-for-bit equal to what ``factory()`` would recompute; on a hit
        the factory (and hence the whole DP run) is skipped.
        """
        # ``context`` is already a canonical fingerprint string; coercing it
        # through str() would mask a non-canonical caller (lint R3 bans it).
        key = (
            net_fingerprint(net),
            context,
            tuple(float(width) for width in library_widths),
            tuple(float(position) for position in candidate_positions),
        )
        cached = self._frontiers.get(key)
        if cached is not None:
            self._frontier_hits += 1
            self._frontiers.move_to_end(key)
            return cached  # type: ignore[return-value]
        self._frontier_misses += 1
        if self._cache_dir is not None:
            loaded = self._load_frontier(key)
            if loaded is not None:
                self._disk_hits += 1
                self._frontiers[key] = loaded
                self._evict_to_capacity(self._frontiers)
                return loaded  # type: ignore[return-value]
            self._disk_misses += 1
        result = factory()
        self._frontiers[key] = result
        self._evict_to_capacity(self._frontiers)
        if self._cache_dir is not None:
            self._save_frontier(key, result)
        return result

    def tree_solutions(
        self,
        tree: RoutingTree,
        context: str,
        timing_targets: Sequence[float],
        factory: Callable[[], "list[TreeSolution]"],
    ) -> "list[TreeSolution]":
        """Memoized per-target tree DP solutions (the tree analogue of
        :meth:`final_dp_result`).

        ``context`` must fingerprint every tree-DP input besides the tree
        and the targets: the technology, the library, the site pitch and
        the state cap (:class:`~repro.engine.design.DesignEngine` folds
        those into one digest).  Tree entries share the frontier layer's LRU
        table, hit/miss counters and persistent tier — tree files are
        ``frontier-<digest>.json`` with ``"kind": "tree"`` payloads under
        the same disk budget.
        """
        key = (
            "tree",
            tree_fingerprint(tree),
            context,
            tuple(float(target) for target in timing_targets),
        )
        cached = self._frontiers.get(key)
        if cached is not None:
            self._frontier_hits += 1
            self._frontiers.move_to_end(key)
            return cached  # type: ignore[return-value]
        self._frontier_misses += 1
        if self._cache_dir is not None:
            loaded = self._load_tree_solutions(key)
            if loaded is not None:
                self._disk_hits += 1
                self._frontiers[key] = loaded
                self._evict_to_capacity(self._frontiers)
                return loaded
            self._disk_misses += 1
        result = factory()
        self._frontiers[key] = result
        self._evict_to_capacity(self._frontiers)
        if self._cache_dir is not None:
            self._save_tree_solutions(key, result)
        return result

    # ------------------------------------------------------------------ #
    # persistent frontier tier
    # ------------------------------------------------------------------ #
    @staticmethod
    def _frontier_digest(key: tuple) -> str:
        return stable_digest(
            {
                "net": key[0],
                "context": key[1],
                "library": list(key[2]),
                "candidates": list(key[3]),
            }
        )

    def _frontier_path(self, digest: str) -> Path:
        assert self._cache_dir is not None
        return self._cache_dir / f"frontier-{digest}.json"

    def _evict_file(self, path: Path) -> None:
        """Delete a stale/corrupted/over-budget frontier file (best-effort)."""
        self._disk_evictions += 1
        self._budget.forget(path.name)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing eviction is harmless
            pass

    def _load_frontier(self, key: tuple) -> Optional[PowerDpResult]:
        digest = self._frontier_digest(key)
        path = self._frontier_path(digest)
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
            or data.get("net") != key[0]
            or data.get("context") != key[1]
            or data.get("library") != list(key[2])
            or data.get("candidates") != list(key[3])
        ):
            # Old format, or a file whose content does not belong to its
            # name (digest collision / tampering): evict and rebuild.
            self._evict_file(path)
            return None
        try:
            result = dp_result_from_payload(data["result"])
        except (KeyError, TypeError, ValueError):  # structurally broken payload
            self._evict_file(path)
            return None
        try:
            # Mark the file as recently used for the LRU disk budget.
            os.utime(path)
        except OSError:  # pragma: no cover - recency tracking is best-effort
            pass
        return result

    def _save_frontier(self, key: tuple, result: object) -> None:
        """Persist a computed frontier (best-effort, atomic replace).

        Only :class:`PowerDpResult` values are persisted — the layer is
        generic in-memory, but the disk schema is not.
        """
        if not isinstance(result, PowerDpResult):
            return
        digest = self._frontier_digest(key)
        path = self._frontier_path(digest)
        payload = {
            "format_version": FRONTIER_FORMAT_VERSION,
            "key": digest,
            "net": key[0],
            "context": key[1],
            "library": list(key[2]),
            "candidates": list(key[3]),
            "result": dp_result_to_payload(result),
        }
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

    # ------------------------------------------------------------------ #
    # persistent tree-solution tier (shares the frontier file namespace)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _tree_digest(key: tuple) -> str:
        return stable_digest(
            {
                "kind": "tree",
                "tree": key[1],
                "context": key[2],
                "targets": list(key[3]),
            }
        )

    def _load_tree_solutions(self, key: tuple) -> "Optional[list[TreeSolution]]":
        digest = self._tree_digest(key)
        path = self._frontier_path(digest)
        if not path.is_file():
            return None
        try:
            # Same corrupt-cache-read site as the two-pin frontier tier.
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
            or data.get("kind") != "tree"
            or data.get("key") != digest
            or data.get("tree") != key[1]
            or data.get("context") != key[2]
            or data.get("targets") != list(key[3])
        ):
            self._evict_file(path)
            return None
        try:
            result = tree_solutions_from_payload(data["result"])
        except (KeyError, TypeError, ValueError):  # structurally broken payload
            self._evict_file(path)
            return None
        try:
            # Mark the file as recently used for the LRU disk budget.
            os.utime(path)
        except OSError:  # pragma: no cover - recency tracking is best-effort
            pass
        return result

    def _save_tree_solutions(self, key: tuple, result: "list[TreeSolution]") -> None:
        """Persist memoized tree solutions (best-effort, atomic replace)."""
        digest = self._tree_digest(key)
        path = self._frontier_path(digest)
        payload = {
            "format_version": FRONTIER_FORMAT_VERSION,
            "kind": "tree",
            "key": digest,
            "tree": key[1],
            "context": key[2],
            "targets": list(key[3]),
            "result": tree_solutions_to_payload(result),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
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
