"""Shared, disk-cacheable protocol store: net populations and ``tau_min``.

Every experiment of the paper (Table 1, Table 2, Figure 7, the ablations)
uses the same workload: a seeded random net population whose minimum
achievable delay ``tau_min`` anchors each net's timing targets.  Computing
``tau_min`` needs a full delay-optimal DP run per net with a rich library —
by far the most expensive part of building the workload — and the seed
harness recomputed it per experiment.

:class:`ProtocolStore` computes each population exactly once per
:class:`ProtocolConfig`, keyed by a stable fingerprint of
``(seed, net_config, technology, tau_min/targets settings)``:

* in memory, so all experiments of one process share one population build;
* optionally on disk (``cache_dir`` or the ``REPRO_CACHE_DIR`` environment
  variable), so repeated harness invocations — CI runs, benchmark sweeps,
  worker processes — skip the build entirely.

The dataclasses here (:class:`ProtocolConfig`, :class:`NetCase`) are the
canonical definitions; :mod:`repro.experiments.protocol` re-exports them for
backwards compatibility.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.dp.candidates import uniform_candidates
from repro.dp.vanginneken import DelayOptimalDp
from repro.net.generator import NetGenerationConfig, RandomNetGenerator
from repro.net.io import FORMAT_VERSION as NET_FORMAT_VERSION
from repro.net.io import net_from_dict, net_to_dict
from repro.net.twopin import TwoPinNet
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM
from repro.tech.technology import Technology
from repro.tree.rctree import RoutingTree
from repro.utils.canonical import stable_digest
from repro.utils.counters import Counters
from repro.utils.validation import require, require_positive

__all__ = [
    "DesignCase",
    "NetCase",
    "ProtocolConfig",
    "ProtocolStore",
    "StoreStatistics",
    "TreeCase",
    "default_store",
    "protocol_key",
    "technology_fingerprint",
    "timing_targets",
]


@dataclass(frozen=True)
class StoreStatistics(Counters):
    """Hit/miss/eviction counters of one :class:`ProtocolStore`.

    ``builds`` counts full population constructions (the expensive path:
    one delay-optimal DP per net); ``evictions`` counts stale/corrupted
    disk files deleted and rebuilt.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    builds: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Total lookups served without building the population."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total :meth:`ProtocolStore.cases` calls."""
        return self.memory_hits + self.disk_hits + self.builds


def timing_targets(
    tau_min: float,
    *,
    count: int = 20,
    min_factor: float = 1.05,
    max_factor: float = 2.05,
) -> Tuple[float, ...]:
    """The paper's sweep of timing targets: ``count`` factors of ``tau_min``."""
    require_positive(tau_min, "tau_min")
    require(count >= 1, "count must be >= 1")
    require(max_factor >= min_factor > 0.0, "factors must satisfy 0 < min <= max")
    if count == 1:
        return (tau_min * min_factor,)
    step = (max_factor - min_factor) / (count - 1)
    return tuple(tau_min * (min_factor + index * step) for index in range(count))


@dataclass(frozen=True)
class ProtocolConfig:
    """Workload configuration shared by all experiments.

    Attributes
    ----------
    technology:
        Technology node (defaults to the 0.18 µm node of the paper).
    num_nets:
        Number of random nets in the population (the paper uses 20).
    seed:
        Seed of the net generator; experiments are fully deterministic.
    targets_per_net:
        Number of timing targets per net (the paper uses 20).
    min_target_factor / max_target_factor:
        Range of the timing targets as multiples of each net's ``tau_min``.
    candidate_pitch:
        Candidate-location pitch of the baseline DP runs, meters (200 µm in
        the paper).
    tau_min_library:
        Library used when computing each net's minimum delay.
    tau_min_pitch:
        Candidate pitch used when computing the minimum delay; finer than
        the baseline pitch so that ``tau_min`` is a property of the net, not
        of the baseline's discretisation.
    net_config:
        Parameters of the random net generator (defaults follow Section 6).
    """

    technology: Technology = field(default_factory=lambda: NODE_180NM)
    num_nets: int = 20
    seed: int = 2005
    targets_per_net: int = 20
    min_target_factor: float = 1.05
    max_target_factor: float = 2.05
    candidate_pitch: float = 200.0e-6
    tau_min_library: RepeaterLibrary = field(
        default_factory=lambda: RepeaterLibrary.uniform(10.0, 400.0, 10.0)
    )
    tau_min_pitch: float = 50.0e-6
    net_config: NetGenerationConfig = field(default_factory=NetGenerationConfig)

    def __post_init__(self) -> None:
        require(self.num_nets >= 1, "num_nets must be >= 1")
        require(self.targets_per_net >= 1, "targets_per_net must be >= 1")
        require_positive(self.candidate_pitch, "candidate_pitch")
        require_positive(self.tau_min_pitch, "tau_min_pitch")


@dataclass(frozen=True)
class NetCase:
    """One net of the experimental population, with its derived quantities.

    Attributes
    ----------
    net:
        The random net.
    tau_min:
        Minimum achievable Elmore delay of the net (seconds), computed with
        the delay-optimal DP, a 10u-granularity library up to 400u and a
        50 µm candidate pitch.
    targets:
        The timing targets this net is designed for.
    candidates:
        Baseline candidate locations (uniform pitch, outside forbidden zones).
    """

    net: TwoPinNet
    tau_min: float
    targets: Tuple[float, ...]
    candidates: Tuple[float, ...]


#: The batch engine's name for a population entry.
DesignCase = NetCase


@dataclass(frozen=True)
class TreeCase:
    """One routing tree of a tree population, with its derived quantities.

    The multi-sink analogue of :class:`NetCase` — what the batch engine's
    tree population class (:func:`repro.engine.design.build_htree_cases`)
    is made of.

    Attributes
    ----------
    tree:
        The routed multi-sink net.
    tau_min:
        Minimum achievable worst-sink Elmore delay of the tree (seconds),
        computed with the tree DP itself under an unreachably tight target
        (the infeasible selection rule returns the delay-minimal corner of
        the root front).
    targets:
        The shared timing targets every sink of this tree is designed for
        (the DP's worst-sink formulation makes them skew-aware: a solution
        is feasible only when the *slowest* sink meets the target).
    site_pitch:
        Candidate repeater-site pitch along every edge, meters.
    max_states_per_node:
        Hard cap of the DP front at every site/merge (keeps worst-case
        merge cross-products bounded).
    """

    tree: RoutingTree
    tau_min: float
    targets: Tuple[float, ...]
    site_pitch: float = 200.0e-6
    max_states_per_node: int = 4000


def technology_fingerprint(technology: Technology) -> Dict[str, Any]:
    """Canonical payload of every technology constant the DPs consume.

    Used by both the protocol key and the window-compilation cache's DP
    context, so two differently-tuned nodes can never share cache entries.
    """
    repeater = technology.repeater
    power = technology.power
    return {
        "name": technology.name,
        "repeater": {
            "unit_resistance": repeater.unit_resistance,
            "unit_input_capacitance": repeater.unit_input_capacitance,
            "intrinsic_delay": repeater.intrinsic_delay,
        },
        # Explicit field extraction: anything that is not a plain dataclass
        # of numbers has no stable serialization and must fail loudly in
        # canonical_json rather than fall back to repr (unstable keys).
        "power": {
            field.name: getattr(power, field.name)
            for field in dataclasses.fields(power)
        }
        if dataclasses.is_dataclass(power)
        else power,
        "layers": {
            name: {
                "resistance_per_meter": layer.resistance_per_meter,
                "capacitance_per_meter": layer.capacitance_per_meter,
            }
            for name, layer in sorted(technology.layers.items())
        },
        "unit_width_meters": technology.unit_width_meters,
    }


def protocol_key(config: ProtocolConfig) -> str:
    """Stable hex fingerprint of ``(seed, net_config, technology, protocol)``.

    The payload is serialized with the *strict* canonical serializer
    (:func:`repro.utils.canonical.canonical_json`): values without a
    well-defined canonical form raise instead of being ``repr``-ed, so the
    key is byte-identical across interpreter runs and machines (the old
    ``json.dumps(..., default=repr)`` embedded ``0x...`` memory addresses
    for bare objects, making keys process-local).
    """
    net_config = config.net_config
    payload = {
        "seed": config.seed,
        "num_nets": config.num_nets,
        "targets_per_net": config.targets_per_net,
        "min_target_factor": config.min_target_factor,
        "max_target_factor": config.max_target_factor,
        "candidate_pitch": config.candidate_pitch,
        "tau_min_pitch": config.tau_min_pitch,
        "tau_min_library": list(config.tau_min_library.widths),
        "net_config": {
            field_name: getattr(net_config, field_name)
            for field_name in sorted(net_config.__dataclass_fields__)
        },
        "technology": technology_fingerprint(config.technology),
    }
    return stable_digest(payload)


class ProtocolStore:
    """Builds, memoises and (optionally) persists net populations.

    Disk entries are versioned twice: ``format_version`` covers the store's
    own payload layout, ``net_format_version`` the :class:`NetCase` net
    serialization (:mod:`repro.net.io`).  A cache file whose versions or
    embedded key do not match — or that fails to parse or reconstruct — is
    **evicted** (deleted and rebuilt), never trusted and never fatal.
    """

    #: Bump when the shape of the on-disk payload changes.  Version 2:
    #: strict-serializer cache keys, embedded ``key`` verification and the
    #: ``net_format_version`` stamp.
    FORMAT_VERSION = 2

    def __init__(self, cache_dir: Optional[os.PathLike] = None) -> None:
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memory: Dict[str, List[NetCase]] = {}
        self._memory_hits = 0
        self._disk_hits = 0
        self._builds = 0
        self._evictions = 0

    @property
    def cache_dir(self) -> Optional[Path]:
        """Directory of the on-disk cache (``None`` = in-memory only)."""
        return self._cache_dir

    @property
    def statistics(self) -> StoreStatistics:
        """Current hit/build/eviction counters."""
        return StoreStatistics(
            memory_hits=self._memory_hits,
            disk_hits=self._disk_hits,
            builds=self._builds,
            evictions=self._evictions,
        )

    def cases(self, config: ProtocolConfig) -> List[NetCase]:
        """The population for ``config`` — built once, then served from cache."""
        key = protocol_key(config)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory_hits += 1
            return cached
        cases = self._load(key)
        if cases is None:
            self._builds += 1
            cases = self._build(config)
            self._save(key, cases)
        else:
            self._disk_hits += 1
        self._memory[key] = cases
        return cases

    # ------------------------------------------------------------------ #
    @staticmethod
    def _build(config: ProtocolConfig) -> List[NetCase]:
        generator = RandomNetGenerator(
            config.technology, config=config.net_config, seed=config.seed
        )
        delay_dp = DelayOptimalDp(config.technology)
        cases: List[NetCase] = []
        for net in generator.generate_many(config.num_nets):
            fine_candidates = uniform_candidates(net, config.tau_min_pitch)
            tau_min = delay_dp.minimum_delay(net, config.tau_min_library, fine_candidates)
            targets = timing_targets(
                tau_min,
                count=config.targets_per_net,
                min_factor=config.min_target_factor,
                max_factor=config.max_target_factor,
            )
            cases.append(
                NetCase(
                    net=net,
                    tau_min=tau_min,
                    targets=targets,
                    candidates=tuple(uniform_candidates(net, config.candidate_pitch)),
                )
            )
        return cases

    def _path(self, key: str) -> Optional[Path]:
        if self._cache_dir is None:
            return None
        return self._cache_dir / f"protocol-{key}.json"

    def _evict(self, path: Path) -> None:
        """Delete a stale/corrupted cache file (best-effort)."""
        self._evictions += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing eviction is harmless
            pass

    def _load(self, key: str) -> Optional[List[NetCase]]:
        path = self._path(key)
        if path is None or not path.is_file():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # corrupted cache file
            self._evict(path)
            return None
        if (
            not isinstance(data, dict)
            or data.get("format_version") != self.FORMAT_VERSION
            or data.get("net_format_version") != NET_FORMAT_VERSION
            or data.get("key") != key
        ):
            # Old format, changed net serialization, or a file whose content
            # does not belong to its name: evict and rebuild.
            self._evict(path)
            return None
        try:
            return [
                NetCase(
                    net=net_from_dict(entry["net"]),
                    tau_min=float(entry["tau_min"]),
                    targets=tuple(float(t) for t in entry["targets"]),
                    candidates=tuple(float(c) for c in entry["candidates"]),
                )
                for entry in data["cases"]
            ]
        except (KeyError, TypeError, ValueError):  # structurally broken payload
            self._evict(path)
            return None

    def _save(self, key: str, cases: List[NetCase]) -> None:
        path = self._path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": self.FORMAT_VERSION,
            "net_format_version": NET_FORMAT_VERSION,
            "key": key,
            "cases": [
                {
                    "net": net_to_dict(case.net),
                    "tau_min": case.tau_min,
                    "targets": list(case.targets),
                    "candidates": list(case.candidates),
                }
                for case in cases
            ],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)


_default_store: Optional[ProtocolStore] = None


def default_store() -> ProtocolStore:
    """The process-wide shared store.

    Uses the ``REPRO_CACHE_DIR`` environment variable as its disk cache when
    set; otherwise the store is purely in-memory.  The variable is read on
    every call: while its value is unchanged the same store (and in-memory
    memo) is returned, and a changed or cleared value builds a new store.
    """
    global _default_store
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    wanted = Path(cache_dir) if cache_dir is not None else None
    if _default_store is None or _default_store.cache_dir != wanted:
        _default_store = ProtocolStore(cache_dir=cache_dir)
    return _default_store
