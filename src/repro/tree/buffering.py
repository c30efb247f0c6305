"""Power-aware repeater insertion on routing trees (van Ginneken on trees).

The bottom-up DP of :mod:`repro.dp` generalises to trees: states propagate
from the sinks towards the driver, wire edges add their Elmore contribution,
candidate sites along every edge may insert a repeater from the library, and
branches merge at internal nodes by summing capacitance/width and taking the
worst (maximum) downstream delay.  All sinks share one timing target, so the
per-state delay coordinate is simply the worst sink delay below that point.

This engine is the substrate for the paper's stated future work (extending
the hybrid scheme to trees).  Like the two-pin engine it ships a production
core and an oracle behind one knob:

``core="reference"``
    The original plain-Python state lists.  Every state carries its
    assignment tuple; slow but transparent — the oracle the property suites
    compare against.
``core="fused"`` (default)
    Per-edge compiled wire intervals (:class:`repro.engine.compiled.
    CompiledTree`) replayed through the fused scratch kernels of
    :mod:`repro.engine.kernels` (:func:`tree_site_level`,
    :func:`tree_merge_level`, :func:`tree_prune_front`), with back-pointer
    traces instead of per-state assignment tuples.  Bit-for-bit identical
    fronts, solutions and statistics.

On a degenerate tree (a chain) both cores produce exactly the same results
as :class:`repro.dp.PowerAwareDp` — including through the compiled path —
which is checked bitwise in the integration tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitize
from repro.engine.compiled import CompiledTree
from repro.engine.kernels import (
    DpScratch,
    _traverse_in_place,
    shared_scratch,
    tree_merge_level,
    tree_prune_front,
    tree_site_level,
)
from repro.tech.library import RepeaterLibrary
from repro.tech.technology import Technology
from repro.tree.rctree import RoutingTree, TreeEdge
from repro.utils.pareto import prune_pareto_3d
from repro.utils.validation import require, require_positive

TREE_CORES = ("reference", "fused")


@dataclass(frozen=True)
class TreeBufferAssignment:
    """One repeater inserted on a tree edge.

    Attributes
    ----------
    parent / child:
        Endpoints of the edge carrying the repeater (parent = driver side).
    distance_from_child:
        Position of the repeater measured from the ``child`` end of the
        edge, meters.
    width:
        Repeater width in units of ``u``.
    """

    parent: str
    child: str
    distance_from_child: float
    width: float


@dataclass(frozen=True)
class TreeDpStatistics:
    """Instrumentation for one tree-DP solve (identical across cores)."""

    num_edges: int
    num_sites: int
    library_size: int
    states_generated: int
    max_front_size: int
    runtime_seconds: float


@dataclass(frozen=True)
class TreeSolution:
    """A complete repeater assignment for a routing tree.

    Attributes
    ----------
    assignments:
        The inserted repeaters.
    worst_delay:
        Elmore delay from the driver to the slowest sink, seconds.
    total_width:
        Total inserted repeater width.
    feasible:
        Whether ``worst_delay`` meets the timing target the DP was asked for.
    statistics:
        Solve instrumentation (shared by all solutions of one
        :meth:`TreePowerDp.run_many` call; excluded from equality).
    """

    assignments: Tuple[TreeBufferAssignment, ...]
    worst_delay: float
    total_width: float
    feasible: bool
    statistics: Optional[TreeDpStatistics] = field(
        default=None, compare=False, repr=False
    )

    @property
    def num_repeaters(self) -> int:
        """Number of inserted repeaters."""
        return len(self.assignments)


# A DP state: (capacitance, worst downstream delay, total width, assignments).
_State = Tuple[float, float, float, Tuple[TreeBufferAssignment, ...]]


@dataclass(frozen=True)
class _TreeSiteRecord:
    """Back-pointers of one fused site level on one edge.

    ``flat`` are the survivors' flat indices in the full ``count x branches``
    expansion layout (``divmod(flat, count)`` recovers ``(branch, parent)``;
    branch 0 is "no repeater", branch ``b >= 1`` inserts library width
    ``b - 1`` at ``site`` meters from the child).
    """

    site: float
    flat: np.ndarray
    count: int


@dataclass(frozen=True)
class _TreeEdgeTrace:
    """All site-level back-pointers of one edge, child to parent order."""

    parent: str
    child: str
    levels: Tuple[_TreeSiteRecord, ...]


@dataclass(frozen=True)
class _TreeNodeTrace:
    """Back-pointers of one tree node's merge/prune stages.

    ``children`` pairs each child's edge trace with its subtree trace, in
    the tree's child order.  ``merge_flats[k]`` belongs to the merge that
    folded child ``k + 1``'s edge front into the running merged front:
    ``(keep, right_count)`` with ``keep`` the surviving flat cross-product
    indices (``divmod(keep[i], right_count)`` recovers the left/right
    pair).  ``final_keep`` maps the node's pruned front back into the
    merged (pin-cap-adjusted) front; ``None`` at leaves, which are never
    pruned.
    """

    children: Tuple[Tuple[_TreeEdgeTrace, "_TreeNodeTrace"], ...]
    merge_flats: Tuple[Tuple[np.ndarray, int], ...]
    final_keep: Optional[np.ndarray]


class _Counters:
    """states_generated / max_front_size accounting, shared by the cores."""

    __slots__ = ("states_generated", "max_front_size")

    def __init__(self) -> None:
        self.states_generated = 0
        self.max_front_size = 0

    def generated(self, count: int) -> None:
        self.states_generated += count

    def front(self, size: int) -> None:
        if size > self.max_front_size:
            self.max_front_size = size


class TreePowerDp:
    """Power-aware repeater insertion for multi-sink routing trees."""

    def __init__(
        self,
        technology: Technology,
        *,
        site_pitch: float = 200.0e-6,
        max_states_per_node: int = 4000,
        core: str = "fused",
        scratch: Optional[DpScratch] = None,
    ) -> None:
        require_positive(site_pitch, "site_pitch")
        require(max_states_per_node >= 10, "max_states_per_node must be >= 10")
        require(
            core in TREE_CORES,
            f"core must be one of {TREE_CORES!r}, got {core!r}",
        )
        self._technology = technology
        self._site_pitch = site_pitch
        self._max_states = max_states_per_node
        self._core = core
        self._scratch = scratch

    @property
    def technology(self) -> Technology:
        """Technology whose repeater constants the DP uses."""
        return self._technology

    @property
    def core(self) -> str:
        """Which DP core executes the solve."""
        return self._core

    @property
    def site_pitch(self) -> float:
        """Spacing of candidate repeater sites along every edge, meters."""
        return self._site_pitch

    @property
    def max_states_per_node(self) -> int:
        """Hard cap on any pruned front's size."""
        return self._max_states

    # ------------------------------------------------------------------ #
    def run(
        self,
        tree: RoutingTree,
        library: RepeaterLibrary,
        timing_target: float,
        *,
        compiled: Optional[CompiledTree] = None,
    ) -> TreeSolution:
        """Minimise total repeater width subject to every sink meeting the target."""
        return self.run_many(tree, library, (timing_target,), compiled=compiled)[0]

    def run_many(
        self,
        tree: RoutingTree,
        library: RepeaterLibrary,
        timing_targets: Sequence[float],
        *,
        compiled: Optional[CompiledTree] = None,
    ) -> List[TreeSolution]:
        """One DP solve, one solution per timing target.

        The Pareto frontier at the driver does not depend on the target, so
        sweeping targets costs one solve plus per-target selection — the
        tree analogue of :meth:`repro.dp.PowerDpResult.best_for_delay`.
        """
        targets = [float(target) for target in timing_targets]
        require(len(targets) > 0, "timing_targets must not be empty")
        for target in targets:
            require_positive(target, "timing_target")
        tree.validate()

        if compiled is None:
            compiled = CompiledTree(tree, self._site_pitch)
        else:
            require(
                compiled.tree is tree,
                "compiled tree does not belong to this routing tree",
            )
            require(
                compiled.site_pitch == self._site_pitch,
                "compiled site pitch differs from the DP's site pitch",
            )

        started = time.perf_counter()
        counters = _Counters()
        if self._core == "reference":
            solutions = self._solve_reference(tree, library, targets, counters)
        else:
            solutions = self._solve_fused(
                tree, compiled, library, targets, counters
            )
        statistics = TreeDpStatistics(
            num_edges=len(tree.edges),
            num_sites=compiled.num_sites,
            library_size=len(library.widths),
            states_generated=counters.states_generated,
            max_front_size=counters.max_front_size,
            runtime_seconds=time.perf_counter() - started,
        )
        return [replace(solution, statistics=statistics) for solution in solutions]

    # ------------------------------------------------------------------ #
    # reference core (plain Python state lists; the oracle)
    # ------------------------------------------------------------------ #
    def _solve_reference(
        self,
        tree: RoutingTree,
        library: RepeaterLibrary,
        targets: Sequence[float],
        counters: _Counters,
    ) -> List[TreeSolution]:
        repeater = self._technology.repeater
        states = self._states_below(tree, tree.root, library, counters)
        # Driver stage at the root — grouped ``(delay + intrinsic) + R * cap``
        # exactly like the two-pin final stage, so a degenerate chain stays
        # bit-identical to PowerAwareDp.
        resistance = repeater.drive_resistance(tree.driver_width)
        finals: List[_State] = []
        for cap, delay, width, assignments in states:
            total = (delay + repeater.intrinsic_delay) + resistance * cap
            finals.append((cap, total, width, assignments))

        solutions = []
        for target in targets:
            feasible = [state for state in finals if state[1] <= target]
            if feasible:
                best = min(feasible, key=lambda state: (state[2], state[1]))
                solutions.append(
                    TreeSolution(
                        assignments=best[3],
                        worst_delay=best[1],
                        total_width=best[2],
                        feasible=True,
                    )
                )
                continue
            best = min(finals, key=lambda state: (state[1], state[2]))
            solutions.append(
                TreeSolution(
                    assignments=best[3],
                    worst_delay=best[1],
                    total_width=best[2],
                    feasible=False,
                )
            )
        return solutions

    def _states_below(
        self,
        tree: RoutingTree,
        node: str,
        library: RepeaterLibrary,
        counters: _Counters,
    ) -> List[_State]:
        """States describing the subtree hanging below ``node`` (exclusive of its edge)."""
        repeater = self._technology.repeater
        children = tree.children(node)
        sink = tree.sink(node)

        if not children:
            assert sink is not None  # guaranteed by tree.validate()
            counters.generated(1)
            counters.front(1)
            return [(repeater.input_capacitance(sink.receiver_width), 0.0, 0.0, ())]

        merged: Optional[List[_State]] = None
        for child in children:
            child_states = self._states_below(tree, child, library, counters)
            edge_states = self._propagate_edge(
                tree.edge_to(child), child_states, library, counters
            )
            if merged is None:
                merged = edge_states
            else:
                counters.generated(len(merged) * len(edge_states))
                merged = self._merge(merged, edge_states)
                counters.front(len(merged))
        assert merged is not None

        if sink is not None:
            # A tapping point that is itself a sink: add its pin capacitance.
            pin_cap = repeater.input_capacitance(sink.receiver_width)
            merged = [
                (cap + pin_cap, delay, width, assignments)
                for cap, delay, width, assignments in merged
            ]
        merged = self._prune(merged)
        counters.front(len(merged))
        return merged

    def _propagate_edge(
        self,
        edge: TreeEdge,
        states: Sequence[_State],
        library: RepeaterLibrary,
        counters: _Counters,
    ) -> List[_State]:
        """Walk an edge from its child end to its parent end, inserting repeaters."""
        repeater = self._technology.repeater
        current = list(states)

        # Candidate sites measured from the child end of the edge.
        sites = []
        position = self._site_pitch
        while position < edge.length - 1e-12:
            sites.append(position)
            position += self._site_pitch

        walked = 0.0
        for site in sites:
            current = self._walk_wire(edge, current, site - walked)
            walked = site
            counters.generated(len(current) * (len(library.widths) + 1))
            inserted: List[_State] = []
            for cap, delay, width, assignments in current:
                for buffer_width in library.widths:
                    new_delay = (
                        repeater.intrinsic_delay
                        + repeater.drive_resistance(buffer_width) * cap
                        + delay
                    )
                    assignment = TreeBufferAssignment(
                        parent=edge.parent,
                        child=edge.child,
                        distance_from_child=site,
                        width=buffer_width,
                    )
                    inserted.append(
                        (
                            repeater.input_capacitance(buffer_width),
                            new_delay,
                            width + buffer_width,
                            assignments + (assignment,),
                        )
                    )
            current = self._prune(current + inserted)
            counters.front(len(current))
        return self._walk_wire(edge, current, edge.length - walked)

    @staticmethod
    def _walk_wire(edge: TreeEdge, states: Sequence[_State], length: float) -> List[_State]:
        """Add ``length`` meters of this edge's wire upstream of every state."""
        if length <= 0.0:
            return list(states)
        resistance = edge.resistance_per_meter * length
        capacitance = edge.capacitance_per_meter * length
        return [
            (
                cap + capacitance,
                delay + resistance * (0.5 * capacitance + cap),
                width,
                assignments,
            )
            for cap, delay, width, assignments in states
        ]

    def _merge(self, left: Sequence[_State], right: Sequence[_State]) -> List[_State]:
        """Combine the state sets of two sibling branches."""
        merged: List[_State] = []
        for cap_l, delay_l, width_l, assignments_l in left:
            for cap_r, delay_r, width_r, assignments_r in right:
                merged.append(
                    (
                        cap_l + cap_r,
                        max(delay_l, delay_r),
                        width_l + width_r,
                        assignments_l + assignments_r,
                    )
                )
        return self._prune(merged)

    def _prune(self, states: Sequence[_State]) -> List[_State]:
        """(C, D, W) dominance pruning plus a hard cap on the front size."""
        points = [
            (cap, delay, width, assignments) for cap, delay, width, assignments in states
        ]
        front = prune_pareto_3d(points)
        if len(front) > self._max_states:
            # Keep the cheapest states; delay-critical states survive because
            # they have the smallest delays and sort early within equal width.
            front = sorted(front, key=lambda state: (state[2], state[1]))[: self._max_states]
        return [tuple(state) for state in front]  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # fused core (compiled intervals + scratch kernels + backtrack traces)
    # ------------------------------------------------------------------ #
    def _solve_fused(
        self,
        tree: RoutingTree,
        compiled: CompiledTree,
        library: RepeaterLibrary,
        targets: Sequence[float],
        counters: _Counters,
    ) -> List[TreeSolution]:
        repeater = self._technology.repeater
        scratch = self._scratch if self._scratch is not None else shared_scratch()
        library_widths = np.asarray(library.widths, dtype=float)
        cap_lut = repeater.unit_input_capacitance * library_widths
        ratio_lut = repeater.unit_resistance / library_widths
        intrinsic = repeater.intrinsic_delay

        caps, delays, widths, trace = self._fused_below(
            tree,
            tree.root,
            compiled,
            scratch,
            cap_lut,
            ratio_lut,
            library_widths,
            intrinsic,
            counters,
        )
        # Driver stage — ``(delay + intrinsic) + R * cap``, the two-pin
        # final-stage grouping.
        resistance = repeater.drive_resistance(tree.driver_width)
        totals = delays + intrinsic
        totals += resistance * caps
        return _select_solutions(totals, widths, trace, targets, library_widths)

    def _fused_below(
        self,
        tree: RoutingTree,
        node: str,
        compiled: CompiledTree,
        scratch: DpScratch,
        cap_lut: np.ndarray,
        ratio_lut: np.ndarray,
        library_widths: np.ndarray,
        intrinsic: float,
        counters: _Counters,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, _TreeNodeTrace]:
        """Owned front arrays + backtrack trace for the subtree below ``node``."""
        repeater = self._technology.repeater
        children = tree.children(node)
        sink = tree.sink(node)

        if not children:
            assert sink is not None  # guaranteed by tree.validate()
            counters.generated(1)
            counters.front(1)
            caps = np.array([repeater.input_capacitance(sink.receiver_width)])
            return (
                caps,
                np.zeros(1),
                np.zeros(1),
                _TreeNodeTrace(children=(), merge_flats=(), final_keep=None),
            )

        merged_caps: Optional[np.ndarray] = None
        merged_delays: Optional[np.ndarray] = None
        merged_widths: Optional[np.ndarray] = None
        child_traces: List[Tuple[_TreeEdgeTrace, _TreeNodeTrace]] = []
        merge_flats: List[Tuple[np.ndarray, int]] = []
        for child in children:
            child_caps, child_delays, child_widths, child_trace = self._fused_below(
                tree,
                child,
                compiled,
                scratch,
                cap_lut,
                ratio_lut,
                library_widths,
                intrinsic,
                counters,
            )
            edge = tree.edge_to(child)
            edge_caps, edge_delays, edge_widths, edge_trace = self._fused_edge(
                compiled.edge(child),
                scratch,
                child_caps,
                child_delays,
                child_widths,
                cap_lut,
                ratio_lut,
                library_widths,
                intrinsic,
                counters,
            )
            child_traces.append((edge_trace, child_trace))
            if merged_caps is None:
                merged_caps = edge_caps
                merged_delays = edge_delays
                merged_widths = edge_widths
                continue
            counters.generated(len(merged_caps) * len(edge_caps))
            front_caps, front_delays, front_widths, keep, _ = tree_merge_level(
                scratch,
                merged_caps,
                merged_delays,
                merged_widths,
                edge_caps,
                edge_delays,
                edge_widths,
                max_states=self._max_states,
            )
            counters.front(len(keep))
            if sanitize.enabled():
                sanitize.check_tree_level(
                    front_caps,
                    front_delays,
                    front_widths,
                    where=f"tree node {node!r} merge",
                )
            merge_flats.append((keep.copy(), len(edge_caps)))
            merged_caps = front_caps.copy()
            merged_delays = front_delays.copy()
            merged_widths = front_widths.copy()
        assert merged_caps is not None

        if sink is not None:
            pin_cap = repeater.input_capacitance(sink.receiver_width)
            np.add(merged_caps, pin_cap, out=merged_caps)
        front_caps, front_delays, front_widths, keep, _ = tree_prune_front(
            scratch,
            merged_caps,
            merged_delays,
            merged_widths,
            max_states=self._max_states,
        )
        counters.front(len(keep))
        if sanitize.enabled():
            sanitize.check_tree_level(
                front_caps,
                front_delays,
                front_widths,
                where=f"tree node {node!r} prune",
            )
        trace = _TreeNodeTrace(
            children=tuple(child_traces),
            merge_flats=tuple(merge_flats),
            final_keep=keep.copy(),
        )
        return (
            front_caps.copy(),
            front_delays.copy(),
            front_widths.copy(),
            trace,
        )

    def _fused_edge(
        self,
        compiled_edge,
        scratch: DpScratch,
        caps: np.ndarray,
        delays: np.ndarray,
        widths: np.ndarray,
        cap_lut: np.ndarray,
        ratio_lut: np.ndarray,
        library_widths: np.ndarray,
        intrinsic: float,
        counters: _Counters,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, _TreeEdgeTrace]:
        """Walk one compiled edge child-to-parent through the site kernels."""
        records: List[_TreeSiteRecord] = []
        for index, site in enumerate(compiled_edge.sites):
            caps, delays, widths, keep, m, count = tree_site_level(
                scratch,
                compiled_edge.intervals[index],
                caps,
                delays,
                widths,
                cap_lut=cap_lut,
                ratio_lut=ratio_lut,
                width_lut=library_widths,
                intrinsic=intrinsic,
                max_states=self._max_states,
            )
            counters.generated(m)
            counters.front(len(keep))
            if sanitize.enabled():
                sanitize.check_tree_level(
                    caps,
                    delays,
                    widths,
                    where=(
                        f"tree edge {compiled_edge.parent!r}->"
                        f"{compiled_edge.child!r} site {index}"
                    ),
                )
            records.append(_TreeSiteRecord(site=site, flat=keep.copy(), count=count))
        # Final gap up to the parent node (never pruned, like the reference).
        edge_caps = caps.copy()
        edge_delays = delays.copy()
        edge_widths = widths.copy()
        scratch.ensure(len(edge_caps))
        _traverse_in_place(
            scratch,
            compiled_edge.intervals[len(compiled_edge.sites)],
            edge_caps,
            edge_delays,
        )
        trace = _TreeEdgeTrace(
            parent=compiled_edge.parent,
            child=compiled_edge.child,
            levels=tuple(records),
        )
        return edge_caps, edge_delays, edge_widths, trace

    def _fused_assignments(
        self,
        trace: _TreeNodeTrace,
        index: int,
        library_widths: np.ndarray,
    ) -> List[TreeBufferAssignment]:
        """Recover the reference's assignment tuple from the fused traces."""
        return _assignments_from_trace(trace, index, library_widths)


def _select_solutions(
    totals: np.ndarray,
    widths: np.ndarray,
    trace: _TreeNodeTrace,
    targets: Sequence[float],
    library_widths: np.ndarray,
) -> List[TreeSolution]:
    """Per-target selection + backtrack over a driver-stage front.

    Replicates the reference's selection exactly: the cheapest feasible
    state by ``(width, delay)`` when any state meets the target, else the
    fastest state by ``(delay, width)`` — lexsort's last key is primary and
    ties resolve to the earliest front row, like Python's ``min``.
    """
    solutions = []
    for target in targets:
        feasible = np.flatnonzero(totals <= target)
        if len(feasible):
            pick = int(feasible[np.lexsort((totals[feasible], widths[feasible]))[0]])
            is_feasible = True
        else:
            pick = int(np.lexsort((widths, totals))[0])
            is_feasible = False
        solutions.append(
            TreeSolution(
                assignments=tuple(
                    _assignments_from_trace(trace, pick, library_widths)
                ),
                worst_delay=float(totals[pick]),
                total_width=float(widths[pick]),
                feasible=is_feasible,
            )
        )
    return solutions


def _assignments_from_trace(
    trace: _TreeNodeTrace,
    index: int,
    library_widths: np.ndarray,
) -> List[TreeBufferAssignment]:
    """Backtrack one root-front state through the fused traces.

    Reproduces the reference core's assignment tuple exactly: per node,
    each child's subtree assignments followed by that child's edge
    insertions (child-to-parent site order), children concatenated in tree
    child order — the order the reference's tuple concatenation builds.
    """
    if trace.final_keep is None:  # leaf
        return []
    index = int(trace.final_keep[index])
    # Unwind the merges right-to-left into one index per child.
    child_count = len(trace.children)
    child_indices = [0] * child_count
    for position in range(child_count - 1, 0, -1):
        keep, right_count = trace.merge_flats[position - 1]
        index, right_index = divmod(int(keep[index]), right_count)
        child_indices[position] = right_index
    child_indices[0] = index

    assignments: List[TreeBufferAssignment] = []
    for position, (edge_trace, child_trace) in enumerate(trace.children):
        edge_index = child_indices[position]
        edge_assignments: List[TreeBufferAssignment] = []
        for record in reversed(edge_trace.levels):
            branch, parent = divmod(int(record.flat[edge_index]), record.count)
            if branch > 0:
                edge_assignments.append(
                    TreeBufferAssignment(
                        parent=edge_trace.parent,
                        child=edge_trace.child,
                        distance_from_child=record.site,
                        width=float(library_widths[branch - 1]),
                    )
                )
            edge_index = parent
        edge_assignments.reverse()
        assignments.extend(
            _assignments_from_trace(child_trace, edge_index, library_widths)
        )
        assignments.extend(edge_assignments)
    return assignments
