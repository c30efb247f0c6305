"""Power-aware dynamic-programming repeater insertion (the baseline of [14]).

The engine walks the net from the receiver towards the driver.  At every
candidate location it either inserts one repeater from the library or leaves
the location empty; between locations it accumulates the wire's Elmore
contribution.  Each partial solution is summarised by the triple

``(C, D, W)`` = (capacitance seen looking downstream,
                 delay from here to the receiver,
                 total width inserted so far)

and dominated triples are pruned.  At the driver the source stage is added
and the full delay/width frontier is returned, so one run serves every
timing target for this net and library.

All per-state arithmetic is vectorised with numpy: a "level" (the set of
surviving states at one candidate location) is a handful of parallel arrays,
and back-pointers into the previous level allow the winning solution to be
reconstructed at the end.

A caller that wants one answer per target, like the baselines of a sweep,
uses :meth:`PowerAwareDp.run_many`.  It bounds the full-library run by the
width of a sub-library incumbent, so states too wide to answer any of the
targets are dropped as the DP goes, and its answers equal a plain run's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitize
from repro.dp.frontier import DelayWidthFrontier, FrontierPoint
from repro.dp.pruning import PruningConfig, prune_states
from repro.dp.state import DpSolution
from repro.engine.compiled import CompiledNet
from repro.engine.kernels import (
    DpScratch,
    _traverse_in_place,
    fused_level,
    shared_scratch,
    width_quantum,
    within_width_bound,
)
from repro.net.twopin import TwoPinNet
from repro.tech.library import RepeaterLibrary
from repro.tech.technology import Technology
from repro.utils.validation import require


def traverse_wire(
    net: TwoPinNet,
    upstream: float,
    downstream: float,
    caps: np.ndarray,
    delays: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Move DP states upstream across the wire interval ``[upstream, downstream]``.

    Returns updated copies of ``(caps, delays)``: every wire piece adds its
    pi-model Elmore contribution ``R * (C/2 + C_downstream)`` to the delay and
    its capacitance to the load, processed from the downstream end towards
    the upstream end.

    The DP engines no longer call this per level — they traverse a
    :class:`repro.engine.compiled.CompiledNet`, whose precompiled intervals
    reproduce this arithmetic bit-for-bit without re-deriving the wire
    pieces.  The function remains the single-interval reference (and is used
    by the compiled-net equivalence tests).
    """
    if downstream <= upstream:
        return caps, delays
    caps = caps.copy()
    delays = delays.copy()
    for resistance_per_meter, capacitance_per_meter, length in reversed(
        net.pieces_between(upstream, downstream)
    ):
        piece_resistance = resistance_per_meter * length
        piece_capacitance = capacitance_per_meter * length
        delays += piece_resistance * (0.5 * piece_capacitance + caps)
        caps += piece_capacitance
    return caps, delays


def build_frontier(
    final_delays: np.ndarray,
    widths: np.ndarray,
    back: np.ndarray,
    backtrack,
) -> DelayWidthFrontier:
    """Reconstruct the non-dominated final states into full solutions.

    Shared by both DP cores (fused and staged): the frontier sweep and the
    solution reconstruction are identical regardless of how the level
    records were produced.
    """
    order = np.lexsort((widths, final_delays))
    points: List[FrontierPoint] = []
    best_width = np.inf
    for row in order:
        if widths[row] >= best_width - 1e-12:
            continue
        best_width = widths[row]
        positions, repeater_widths = backtrack(int(back[row]))
        solution = DpSolution.from_lists(
            positions=positions,
            widths=repeater_widths,
            delay=float(final_delays[row]),
            total_width=float(widths[row]),
        )
        points.append(
            FrontierPoint(
                delay=float(final_delays[row]),
                total_width=float(widths[row]),
                solution=solution,
            )
        )
    return DelayWidthFrontier(points)


@dataclass
class _Level:
    """Book-keeping for one candidate location: how each survivor was produced."""

    position: float
    parents: np.ndarray
    decisions: np.ndarray


@dataclass
class _FusedLevel:
    """Fused-core level record: the kept flat indices encode everything.

    Row ``r`` of the level came from expanded flat index ``flat[r]`` in the
    ``count x branches`` layout: ``branch, parent = divmod(flat[r], count)``
    (branch 0 = no repeater; branch ``b`` inserts library width ``b - 1``).
    """

    position: float
    flat: np.ndarray
    count: int


class _FusedBacktrack:
    """Back-pointer walker over :class:`_FusedLevel` records."""

    __slots__ = ("levels", "decisions")

    def __init__(self, levels: List[_FusedLevel], decisions: np.ndarray) -> None:
        self.levels = levels
        self.decisions = decisions

    def __call__(self, pointer: int) -> Tuple[List[float], List[float]]:
        positions: List[float] = []
        widths: List[float] = []
        level_index = len(self.levels) - 1
        while level_index >= 0 and pointer >= 0:
            level = self.levels[level_index]
            branch, parent = divmod(int(level.flat[pointer]), level.count)
            if branch > 0:
                positions.append(level.position)
                widths.append(float(self.decisions[branch]))
            # The first processed level descends from the single receiver
            # state, whose back-pointer is the -1 terminator.
            pointer = parent if level_index > 0 else -1
            level_index -= 1
        require(
            pointer < 0 or level_index < 0,
            "inconsistent DP back-pointers; this is a bug in the DP engine",
        )
        return positions, widths


@dataclass(frozen=True)
class DpStatistics:
    """Instrumentation of one DP run (used by the ablation benchmarks)."""

    num_candidates: int
    library_size: int
    states_generated: int
    max_front_size: int
    runtime_seconds: float


@dataclass
class PowerDpResult:
    """Outcome of one power-aware DP run on a net.

    Attributes
    ----------
    frontier:
        The non-dominated delay/width trade-off at the driver.
    statistics:
        Instrumentation (state counts, runtime) of the run.
    """

    frontier: DelayWidthFrontier
    statistics: DpStatistics

    def best_for_delay(self, timing_target: float) -> Optional[FrontierPoint]:
        """Cheapest solution meeting ``timing_target`` (``None`` if infeasible)."""
        return self.frontier.best_for_delay(timing_target)

    def min_delay(self) -> float:
        """Smallest delay achievable with the library/locations of this run."""
        return self.frontier.min_delay()


class PowerAwareDp:
    """Lillis-style power-aware repeater-insertion DP on a two-pin net.

    ``core`` selects the inner-loop implementation: ``"fused"`` (the
    default, the one production core) runs each level as one
    :func:`repro.engine.kernels.fused_level` call on preallocated,
    process-shared scratch buffers, with no per-level array allocations;
    ``"staged"`` keeps the per-level expand/prune passes on the vectorized
    pruning kernels as the fused core's oracle — **bit-for-bit** identical
    frontiers.  Only tests and benchmarks construct the oracle.
    ``pruning`` sets the dominance tolerances (default
    :class:`~repro.dp.pruning.PruningConfig`); it is the one place they can
    be set, and only tests and benchmarks set them.
    ``scratch`` optionally pins a private
    :class:`~repro.engine.kernels.DpScratch` arena; by default the
    per-process shared arena is used (one per worker).
    """

    def __init__(
        self,
        technology: Technology,
        pruning: Optional[PruningConfig] = None,
        *,
        core: str = "fused",
        scratch: Optional[DpScratch] = None,
    ) -> None:
        require(core in ("fused", "staged"), f"unknown DP core {core!r}")
        self._technology = technology
        self._pruning = pruning or PruningConfig()
        self._core = core
        self._scratch = scratch

    @property
    def technology(self) -> Technology:
        """Technology whose repeater constants the DP uses."""
        return self._technology

    @property
    def pruning(self) -> PruningConfig:
        """The pruning tolerances this DP runs with; DP-memo keys use them."""
        return self._pruning

    @property
    def core(self) -> str:
        """The DP core (``"fused"`` or ``"staged"``)."""
        return self._core

    def run(
        self,
        net: TwoPinNet,
        library: RepeaterLibrary,
        candidate_positions: Sequence[float] = (),
        *,
        compiled: Optional[CompiledNet] = None,
        width_bound: Optional[float] = None,
    ) -> PowerDpResult:
        """Run the DP and return the full delay/width frontier.

        ``candidate_positions`` may be unsorted and may contain illegal
        positions (inside forbidden zones or outside the net); those are
        silently dropped, which lets callers pass the raw output of REFINE
        without re-legalising.  Callers running several libraries over the
        same candidate set can pass a precompiled net via ``compiled`` to
        share the interval compilation (the batch engine does this).

        ``width_bound`` drops, at every level, the candidate states whose
        width bucket lies above the bound's
        (:func:`repro.engine.kernels.within_width_bound`).  The frontier
        then answers only what :meth:`run_many` asks of it; it never leaves
        that method.
        """
        started = time.perf_counter()
        if compiled is None:
            compiled = CompiledNet(net, candidate_positions)
        if self._core == "fused":
            run_levels = self._run_fused
        else:
            run_levels = self._run_staged
        final_delays, widths, back, levels, states_generated, max_front = run_levels(
            net, library, compiled, width_bound
        )
        if isinstance(levels, _FusedBacktrack):
            backtrack = levels
        else:
            staged_levels = levels

            def backtrack(pointer: int) -> Tuple[List[float], List[float]]:
                return self._backtrack(pointer, staged_levels)

        frontier = build_frontier(final_delays, widths, back, backtrack)
        statistics = DpStatistics(
            num_candidates=compiled.num_levels,
            library_size=len(library.widths),
            states_generated=states_generated,
            max_front_size=max_front,
            runtime_seconds=time.perf_counter() - started,
        )
        return PowerDpResult(frontier=frontier, statistics=statistics)

    def run_many(
        self,
        net: TwoPinNet,
        library: RepeaterLibrary,
        targets: Sequence[float],
        *,
        compiled: Optional[CompiledNet] = None,
    ) -> Tuple[List[Optional[FrontierPoint]], DpStatistics]:
        """The cheapest solution meeting each target, by branch and bound on width.

        The two-pin twin of :meth:`repro.tree.buffering.TreePowerDp.run_many`.
        It returns one answer per target, equal to ``run(...)
        .best_for_delay(target)`` of a plain run (``None`` where nothing
        meets the target), and the :class:`DpStatistics` of its passes,
        summed.  All passes run :meth:`run` on one compiled net, so they see
        the same candidates:

        1. the *incumbent*: the sub-library ``library.widths[::4]``.  Its
           solutions are solutions of the full library, so the width
           ``W_ub`` of its cheapest point meeting the tightest target bounds
           that target's optimum;
        2. the *bounded* run: the full library with ``width_bound = W_ub +
           (L + 1) * r``, where ``L = compiled.num_levels``, ``q`` is the
           bucket quantum (:func:`~repro.engine.kernels.width_quantum`) and
           ``r = q + width_tolerance``.

        One plain run replaces them when the stride leaves fewer than four
        widths (libraries of at most 12 widths, where the incumbent costs
        what the bound saves), when the incumbent misses the tightest
        target, or, after both passes, when the bounded frontier has no
        point of width ``<= W_ub`` meeting that target.

        Why the answers are exact, at any tolerance: total width only grows
        toward the driver, and a prune compares a state only with states of
        nearby width.  A width bucket spans at most ``q``, the cross prune
        reaches ``width_tolerance`` across buckets, and the branch reduction
        merges states of one bucket only (the fused core equals the staged
        one under a bound).  Every prune compares a state with all earlier
        ones in a sort whose ties follow the flat index, so no verdict
        depends on another.  Hence, if two runs' candidates differ only in
        states wider than ``T``, their prunes give each state of width
        ``<= T - r`` the same verdict and keep the common survivors in the
        same order.  The bounded run's candidates differ from the plain
        run's by the dropped states, all wider than the bound, and by the
        descendants of states the runs already disagree on.  By induction
        the two driver fronts agree on every state of width ``<= bound -
        L * r``, and the frontier sweep, which merges widths within ``1e-12
        <= r``, keeps the same points of width ``<= bound - (L + 1) * r =
        W_ub``.  Tolerance pruning can lose the incumbent's own solution,
        so ``W_ub`` alone does not bound the plain answer; the last fallback
        covers that.  When the bounded answer at the tightest target is at
        most ``W_ub`` wide, it lies where the runs agree, and so does each
        looser target's answer, which is no wider: every answer is the
        plain run's.  The margin is ``r``, not ``q``, per level because a
        state whose bucket verdict changed can then flip cross-prune
        verdicts up to ``width_tolerance`` further down.
        """
        targets = [float(target) for target in targets]
        require(len(targets) > 0, "targets must not be empty")
        started = time.perf_counter()
        if compiled is None:
            compiled = CompiledNet(net, ())
        tightest = min(targets)
        passes: List[DpStatistics] = []
        answers: Optional[List[Optional[FrontierPoint]]] = None
        sub_widths = library.widths[::4]
        if len(sub_widths) >= 4:
            incumbent = self.run(
                net, RepeaterLibrary.from_widths(sub_widths), compiled=compiled
            )
            passes.append(incumbent.statistics)
            point = incumbent.best_for_delay(tightest)
            if point is not None:
                width_tolerance = self._pruning.width_tolerance
                reach = width_quantum(width_tolerance) + width_tolerance
                bounded = self.run(
                    net,
                    library,
                    compiled=compiled,
                    width_bound=point.total_width + (compiled.num_levels + 1) * reach,
                )
                passes.append(bounded.statistics)
                answer = bounded.best_for_delay(tightest)
                if answer is not None and answer.total_width <= point.total_width:
                    answers = [bounded.best_for_delay(target) for target in targets]
        from_bounded = answers is not None
        if answers is None:
            plain = self.run(net, library, compiled=compiled)
            passes.append(plain.statistics)
            answers = [plain.best_for_delay(target) for target in targets]
        statistics = DpStatistics(
            num_candidates=compiled.num_levels,
            library_size=len(library.widths),
            states_generated=sum(stats.states_generated for stats in passes),
            max_front_size=max(stats.max_front_size for stats in passes),
            runtime_seconds=time.perf_counter() - started,
        )
        if from_bounded and sanitize.enabled():
            plain = self.run(net, library, compiled=compiled)
            sanitize.check_same_answers(
                f"PowerAwareDp.run_many net {net.name!r}",
                answers,
                [plain.best_for_delay(target) for target in targets],
            )
        return answers, statistics

    def _run_staged(
        self,
        net: TwoPinNet,
        library: RepeaterLibrary,
        compiled: CompiledNet,
        width_bound: Optional[float],
    ):
        """The per-level expand/prune DP loop (the fused core's oracle)."""
        repeater = self._technology.repeater
        unit_resistance = repeater.unit_resistance
        unit_input_cap = repeater.unit_input_capacitance
        intrinsic = repeater.intrinsic_delay

        positions = compiled.positions

        # State arrays at the current point (initially: at the receiver).
        caps = np.array([unit_input_cap * net.receiver_width])
        delays = np.array([0.0])
        widths = np.array([0.0])
        back = np.array([-1], dtype=np.int64)

        levels: List[_Level] = []
        states_generated = 1
        max_front = 1

        library_widths = np.asarray(library.widths, dtype=float)

        for level, position in enumerate(reversed(positions)):
            caps, delays = compiled.traverse(level, caps, delays)

            count = len(caps)
            branches = len(library_widths) + 1
            new_caps = np.empty(count * branches)
            new_delays = np.empty(count * branches)
            new_widths = np.empty(count * branches)
            new_parents = np.empty(count * branches, dtype=np.int64)
            new_decisions = np.empty(count * branches)

            # branch 0: leave the location empty
            new_caps[:count] = caps
            new_delays[:count] = delays
            new_widths[:count] = widths
            new_parents[:count] = back
            new_decisions[:count] = 0.0

            for branch, width in enumerate(library_widths, start=1):
                lo = branch * count
                hi = lo + count
                new_caps[lo:hi] = unit_input_cap * width
                new_delays[lo:hi] = intrinsic + (unit_resistance / width) * caps + delays
                new_widths[lo:hi] = widths + width
                new_parents[lo:hi] = back
                new_decisions[lo:hi] = width

            states_generated += count * branches
            if width_bound is None:
                keep = prune_states(new_caps, new_delays, new_widths, self._pruning)
            else:
                inside = np.flatnonzero(
                    within_width_bound(
                        new_widths, width_bound, self._pruning.width_tolerance
                    )
                )
                keep = inside[
                    prune_states(
                        new_caps[inside],
                        new_delays[inside],
                        new_widths[inside],
                        self._pruning,
                    )
                ]
            caps = new_caps[keep]
            delays = new_delays[keep]
            widths = new_widths[keep]
            if sanitize.enabled():
                sanitize.check_power_level(
                    caps,
                    delays,
                    widths,
                    width_tolerance=self._pruning.width_tolerance,
                    level=level,
                    where=f"PowerAwareDp(staged) net {net.name!r}",
                )
            levels.append(
                _Level(
                    position=position,
                    parents=new_parents[keep],
                    decisions=new_decisions[keep],
                )
            )
            back = np.arange(len(keep), dtype=np.int64)
            max_front = max(max_front, len(keep))

        caps, delays = compiled.traverse(len(positions), caps, delays)
        final_delays = delays + intrinsic + (unit_resistance / net.driver_width) * caps
        if sanitize.enabled():
            sanitize.check_finite(
                f"PowerAwareDp(staged) net {net.name!r} final",
                final_delays=final_delays,
                widths=widths,
            )
        return final_delays, widths, back, levels, states_generated, max_front

    def _run_fused(
        self,
        net: TwoPinNet,
        library: RepeaterLibrary,
        compiled: CompiledNet,
        width_bound: Optional[float],
    ):
        """The fused expand-traverse-prune DP loop on scratch buffers.

        Bit-for-bit identical to :meth:`_run_staged` with the vectorized
        pruning kernels — every per-level arithmetic expression keeps the
        staged grouping and the pruning passes return identical survivors
        in identical order (property-tested in ``tests/test_fused_dp.py``).
        """
        repeater = self._technology.repeater
        unit_resistance = repeater.unit_resistance
        unit_input_cap = repeater.unit_input_capacitance
        intrinsic = repeater.intrinsic_delay
        pruning = self._pruning
        scratch = self._scratch if self._scratch is not None else shared_scratch()

        positions = compiled.positions
        intervals = compiled.intervals

        library_widths = np.asarray(library.widths, dtype=float)
        # Per-run branch LUTs: the staged path recomputes ``Co * w`` and
        # ``Rs / w`` per level; both are deterministic, so hoisting them
        # changes no bits.  ``decision_lut[b]`` is branch ``b``'s inserted
        # width (0 for the empty branch).
        cap_lut = unit_input_cap * library_widths
        ratio_lut = unit_resistance / library_widths
        decision_lut = np.concatenate(([0.0], library_widths))

        caps = np.array([unit_input_cap * net.receiver_width])
        delays = np.array([0.0])
        widths = np.array([0.0])
        back = np.array([-1], dtype=np.int64)

        levels: List[_Level] = []
        states_generated = 1
        max_front = 1

        for level, position in enumerate(reversed(positions)):
            caps, delays, widths, keep, m, count = fused_level(
                scratch,
                intervals[level],
                caps,
                delays,
                widths,
                cap_lut=cap_lut,
                ratio_lut=ratio_lut,
                width_lut=library_widths,
                intrinsic=intrinsic,
                delay_tolerance=pruning.delay_tolerance,
                width_tolerance=pruning.width_tolerance,
                width_bound=width_bound,
            )
            states_generated += m
            # The kept flat indices are the whole level record: branch and
            # parent are ``divmod(flat, count)``, so the per-level parent /
            # decision arrays of the staged path need not be materialised.
            levels.append(_FusedLevel(position=position, flat=keep, count=count))
            max_front = max(max_front, len(keep))
            if sanitize.enabled():
                sanitize.check_power_level(
                    caps,
                    delays,
                    widths,
                    width_tolerance=pruning.width_tolerance,
                    level=level,
                    where=f"PowerAwareDp(fused) net {net.name!r}",
                )

        # The final wire crossing mutates the scratch-front views in place —
        # same arithmetic as the staged path's out-of-place traverse.
        _traverse_in_place(scratch, intervals[len(positions)], caps, delays)
        final_delays = delays + intrinsic + (unit_resistance / net.driver_width) * caps
        if sanitize.enabled():
            sanitize.check_finite(
                f"PowerAwareDp(fused) net {net.name!r} final",
                final_delays=final_delays,
                widths=widths,
            )
        back = scratch.arange[: len(caps)] if levels else np.array([-1], dtype=np.int64)
        # ``widths`` and ``back`` are scratch views; materialise them so the
        # frontier reconstruction survives later scratch reuse.
        return (
            final_delays,
            widths.copy(),
            back.copy(),
            _FusedBacktrack(levels, decision_lut),
            states_generated,
            max_front,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _backtrack(pointer: int, levels: List[_Level]) -> Tuple[List[float], List[float]]:
        """Walk the back-pointers of one final state into (positions, widths)."""
        positions: List[float] = []
        widths: List[float] = []
        level_index = len(levels) - 1
        while level_index >= 0 and pointer >= 0:
            level = levels[level_index]
            decision = float(level.decisions[pointer])
            if decision > 0.0:
                positions.append(level.position)
                widths.append(decision)
            pointer = int(level.parents[pointer])
            level_index -= 1
        require(
            pointer < 0 or level_index < 0,
            "inconsistent DP back-pointers; this is a bug in the DP engine",
        )
        return positions, widths
