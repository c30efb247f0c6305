"""Zero-copy shared-memory transport of net populations to worker pools.

The parallel path of :class:`~repro.engine.design.DesignEngine` used to ship
every task's :class:`~repro.engine.cache.NetCase` through the
``ProcessPoolExecutor`` pickle channel — the net, its timing targets, its
candidate grid, and (rebuilt per worker) the compiled wire intervals.  For
population sweeps the same arrays were serialized once per task and
deserialized once per worker touch.

:class:`SharedPopulationArena` publishes the whole population **once**
through one ``multiprocessing.shared_memory`` block:

* a small pickled *header* (job metadata: the nets themselves, technologies,
  and ``(offset, length)`` descriptors into the float region);
* a single aligned ``float64`` region holding every job's timing targets,
  candidate grid, compiled candidate positions and per-interval piece
  arrays, back to back.

Workers attach by name in the pool initializer and rebuild each job's
:class:`~repro.engine.compiled.CompiledNet` with
:meth:`~repro.engine.compiled.CompiledNet.from_intervals` over **views** of
the shared region — no per-task array pickling, no per-worker recompilation,
no copies.  Task payloads then carry just the job index.

Tree populations (:class:`~repro.engine.cache.TreeCase`) publish the same
way: the job header carries the tree topology, the float region the
per-edge site schedules and compiled wire-interval piece arrays, and
workers rebuild the job's :class:`~repro.engine.compiled.CompiledTree` via
:meth:`~repro.engine.compiled.CompiledTree.from_edges` over views.

Ownership rules
---------------
The publishing process owns the block: it is the only one that calls
``unlink``, either right after the pool completes (the engine's ``finally``) or at
:meth:`DesignEngine.close` for arenas that survived a crashed pool.  Workers
only ever ``close()`` their mapping.  On Python < 3.13 the attaching side
must suppress the segment's ``resource_tracker`` registration (bpo-38119):
otherwise every worker's tracker would unlink the segment on worker exit,
destroying it under the rest of the pool.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitize
from repro.engine.cache import NetCase, TreeCase
from repro.engine.compiled import (
    CompiledNet,
    CompiledTree,
    CompiledTreeEdge,
    WireInterval,
)
from repro.tech.technology import Technology

__all__ = ["ArenaJob", "SharedPopulationArena"]

#: Bytes reserved at the start of the block for the header length.
_LENGTH_PREFIX = 8


@contextmanager
def _untracked_attach():
    """Suppress resource-tracker registration while attaching (bpo-38119).

    On Python < 3.13 attaching registers the segment with the resource
    tracker, and the tracker unlinks everything it knows about when its
    process tree winds down — which would destroy the arena under sibling
    workers (and, with the fork start method's *shared* tracker, racing
    ``unregister`` calls against the owner's ``unlink`` raises KeyErrors
    inside the tracker).  Only the publishing process may track; attachers
    briefly no-op the registration instead.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - resource tracker always ships
        yield
        return
    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class ArenaJob:
    """One population job rebuilt from the arena.

    ``compiled`` wraps zero-copy views of the shared float region (when the
    publisher compiled the job's candidate grid / site schedule); ``case``
    is a regular :class:`NetCase` or :class:`TreeCase` — its targets and
    candidates tuples are tiny and rebuilding them keeps the dataclass
    contract unchanged.  Tree jobs carry a :class:`CompiledTree` whose
    per-edge interval arrays are views of the shared region.
    """

    case: "NetCase | TreeCase"
    technology: Technology
    compiled: "Optional[CompiledNet | CompiledTree]"


class SharedPopulationArena:
    """A population published once, mapped read-only by every worker."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        jobs: List[Dict[str, Any]],
        region: np.ndarray,
        *,
        owner: bool,
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._jobs = jobs
        self._region = region
        self._owner = owner
        self._unlinked = False

    # ------------------------------------------------------------------ #
    @classmethod
    def publish(
        cls,
        jobs: Sequence[Tuple[Technology, NetCase]],
        *,
        compile_nets: bool = True,
    ) -> "SharedPopulationArena":
        """Build the shared block for ``jobs`` (one ``(technology, case)``
        pair per task) in the publishing process.

        With ``compile_nets`` (the default) each case's baseline candidate
        grid is compiled here, once, and the interval piece arrays join the
        shared region — workers rebuild the :class:`CompiledNet` over views
        instead of recompiling per process.
        """
        chunks: List[np.ndarray] = []
        cursor = 0

        def put(values: np.ndarray) -> Tuple[int, int]:
            nonlocal cursor
            chunk = np.ascontiguousarray(values, dtype=np.float64).ravel()
            offset = cursor
            chunks.append(chunk)
            cursor += len(chunk)
            return (offset, len(chunk))

        def put_interval(interval: WireInterval) -> Dict[str, Any]:
            return {
                "upstream": interval.upstream,
                "downstream": interval.downstream,
                "piece_resistance": put(interval.piece_resistance),
                "piece_capacitance": put(interval.piece_capacitance),
                "piece_half_capacitance": put(interval.piece_half_capacitance),
            }

        entries: List[Dict[str, Any]] = []
        for technology, case in jobs:
            if isinstance(case, TreeCase):
                entry = {
                    "kind": "tree",
                    "tree": case.tree,
                    "tau_min": case.tau_min,
                    "technology": technology,
                    "site_pitch": case.site_pitch,
                    "max_states_per_node": case.max_states_per_node,
                    "targets": put(np.asarray(case.targets)),
                }
                if compile_nets:
                    compiled_tree = CompiledTree(case.tree, case.site_pitch)
                    entry["edges"] = [
                        {
                            "parent": edge.parent,
                            "child": edge.child,
                            "length": edge.length,
                            "sites": put(np.asarray(edge.sites)),
                            "intervals": [
                                put_interval(interval)
                                for interval in edge.intervals
                            ],
                        }
                        for edge in compiled_tree.edges.values()
                    ]
                entries.append(entry)
                continue
            entry = {
                "net": case.net,
                "tau_min": case.tau_min,
                "technology": technology,
                "targets": put(np.asarray(case.targets)),
                "candidates": put(np.asarray(case.candidates)),
            }
            if compile_nets:
                compiled = CompiledNet(case.net, case.candidates)
                entry["positions"] = put(np.asarray(compiled.positions))
                entry["intervals"] = [
                    put_interval(interval) for interval in compiled.intervals
                ]
            entries.append(entry)

        header = pickle.dumps(
            {"jobs": entries}, protocol=pickle.HIGHEST_PROTOCOL
        )
        # Round the float region's start up to 8 bytes so the float64 views
        # are aligned.
        data_offset = -(-(_LENGTH_PREFIX + len(header)) // 8) * 8
        shm = shared_memory.SharedMemory(
            create=True, size=max(data_offset + 8 * cursor, 1)
        )
        shm.buf[:_LENGTH_PREFIX] = len(header).to_bytes(_LENGTH_PREFIX, "big")
        shm.buf[_LENGTH_PREFIX : _LENGTH_PREFIX + len(header)] = header
        region = np.frombuffer(
            shm.buf, dtype=np.float64, count=cursor, offset=data_offset
        )
        position = 0
        for chunk in chunks:
            region[position : position + len(chunk)] = chunk
            position += len(chunk)
        region.flags.writeable = False
        sanitize.track_shm_created(shm.name, "SharedPopulationArena.publish")
        return cls(shm, entries, region, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedPopulationArena":
        """Map an existing arena by name (worker side)."""
        with _untracked_attach():
            shm = shared_memory.SharedMemory(name=name)
        header_length = int.from_bytes(bytes(shm.buf[:_LENGTH_PREFIX]), "big")
        entries = pickle.loads(
            bytes(shm.buf[_LENGTH_PREFIX : _LENGTH_PREFIX + header_length])
        )["jobs"]
        data_offset = -(-(_LENGTH_PREFIX + header_length) // 8) * 8
        count = (shm.size - data_offset) // 8
        region = np.frombuffer(
            shm.buf, dtype=np.float64, count=count, offset=data_offset
        )
        region.flags.writeable = False
        return cls(shm, entries, region, owner=False)

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """OS name of the shared block (what workers attach by)."""
        if self._shm is None:
            raise ValueError("arena is closed")
        return self._shm.name

    @property
    def closed(self) -> bool:
        """Whether this process's mapping has been released."""
        return self._shm is None

    def verify_live(self) -> None:
        """Raise unless the OS shared-memory block is still attachable.

        The supervised pool calls this between tearing a collapsed pool
        down and building the fresh one: rebuilt workers re-attach the
        arena by name in their initializer, so a vanished block (an
        over-eager resource tracker, a stray unlink) must fail loudly here
        — in the parent, with a clear message — rather than as an opaque
        initializer crash loop in the new pool.  The probe attaches
        untracked (bpo-38119) and never unlinks, so the publisher's
        ``track_shm_created``/``track_shm_unlinked`` accounting is
        untouched and stays balanced across any number of rebuilds.
        """
        name = self.name  # raises ValueError when this mapping is closed
        try:
            with _untracked_attach():
                probe = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as missing:
            raise RuntimeError(
                f"population arena {name!r} vanished while the worker pool "
                "was being rebuilt; the sweep cannot continue"
            ) from missing
        probe.close()

    def __len__(self) -> int:
        return len(self._jobs)

    def _view(self, descriptor: Tuple[int, int]) -> np.ndarray:
        offset, length = descriptor
        return self._region[offset : offset + length]

    def job(self, index: int) -> ArenaJob:
        """Rebuild job ``index`` over zero-copy views of the shared region."""
        if self._shm is None:
            raise ValueError("arena is closed")
        entry = self._jobs[index]
        if entry.get("kind") == "tree":
            return self._tree_job(entry)
        case = NetCase(
            net=entry["net"],
            tau_min=entry["tau_min"],
            targets=tuple(float(t) for t in self._view(entry["targets"])),
            candidates=tuple(float(c) for c in self._view(entry["candidates"])),
        )
        compiled: Optional[CompiledNet] = None
        if "intervals" in entry:
            intervals = [
                self._interval_view(meta) for meta in entry["intervals"]
            ]
            positions = tuple(
                float(p) for p in self._view(entry["positions"])
            )
            compiled = CompiledNet.from_intervals(
                entry["net"], positions, intervals
            )
        return ArenaJob(
            case=case, technology=entry["technology"], compiled=compiled
        )

    def _interval_view(self, meta: Dict[str, Any]) -> WireInterval:
        return WireInterval(
            upstream=meta["upstream"],
            downstream=meta["downstream"],
            piece_resistance=self._view(meta["piece_resistance"]),
            piece_capacitance=self._view(meta["piece_capacitance"]),
            piece_half_capacitance=self._view(meta["piece_half_capacitance"]),
        )

    def _tree_job(self, entry: Dict[str, Any]) -> ArenaJob:
        """Rebuild a tree job: the compiled per-edge intervals are views."""
        case = TreeCase(
            tree=entry["tree"],
            tau_min=entry["tau_min"],
            targets=tuple(float(t) for t in self._view(entry["targets"])),
            site_pitch=entry["site_pitch"],
            max_states_per_node=entry["max_states_per_node"],
        )
        compiled: Optional[CompiledTree] = None
        if "edges" in entry:
            edges = {
                meta["child"]: CompiledTreeEdge(
                    parent=meta["parent"],
                    child=meta["child"],
                    length=meta["length"],
                    sites=tuple(float(s) for s in self._view(meta["sites"])),
                    intervals=tuple(
                        self._interval_view(interval_meta)
                        for interval_meta in meta["intervals"]
                    ),
                )
                for meta in entry["edges"]
            }
            compiled = CompiledTree.from_edges(
                entry["tree"], entry["site_pitch"], edges
            )
        return ArenaJob(
            case=case, technology=entry["technology"], compiled=compiled
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks.

        Idempotent, and robust to still-exported numpy views (a worker that
        kept a :class:`CompiledNet` alive): the ``mmap`` then stays mapped
        until those views die, but the owner's ``unlink`` still removes the
        name so the segment is freed once every mapping is gone.
        """
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        self._region = np.empty(0)
        self._jobs = []
        try:
            shm.close()
        except BufferError:
            # Live views keep the mapping; the OS reclaims it once they die.
            # Neutralise the SharedMemory destructor's retry, which would
            # otherwise surface the same BufferError as an unraisable
            # exception at GC time.
            shm.close = lambda: None  # type: ignore[method-assign]
        if self._owner and not self._unlinked:
            self._unlinked = True
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            sanitize.track_shm_unlinked(shm.name)

    def __enter__(self) -> "SharedPopulationArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
