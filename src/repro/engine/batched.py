"""Cross-target / cross-net level-batched DP driver (``dp_core="batched"``).

Profiling of the fused core shows the per-level cost is dominated by numpy
*call overhead*, not arithmetic: typical levels carry only ~100–500 states,
so the ``np.lexsort`` plus ~60 small ufunc dispatches per level set the
floor.  The :class:`BatchedDpDriver` amortises that overhead by running the
DP of *many problems in lockstep*: the fronts of all in-flight problems are
concatenated into one structure-of-arrays batch with a per-row segment id,
and each level is one :func:`repro.engine.kernels.fused_level_batched` call
over thousands of rows instead of one call per problem over hundreds.

Lifecycle: problems join the batch as admission slots free up (at most
``max_in_flight`` concurrently), advance one level per lockstep step even
when their level counts differ, and leave the batch when their levels are
exhausted — the concatenated front is rebuilt from the surviving problems
every step, which compacts dead segments out by construction.

Exactness: every problem's rows see exactly the arithmetic, sort order and
dominance verdicts of the fused core run on that problem alone, so the
driver is **bit-for-bit** identical to ``dp_core="fused"`` (and hence
``"staged"``) — frontiers, solutions *and* the ``states_generated`` /
``max_front_size`` statistics.  ``tests/test_batched_dp.py`` property-tests
the equality across nets, libraries, strategies and batch shapes.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis import sanitize
from repro.dp.powerdp import (
    DpStatistics,
    PowerDpResult,
    _FusedBacktrack,
    _FusedLevel,
    build_frontier,
)
from repro.dp.pruning import PruningConfig
from repro.dp.state import DpSolution
from repro.dp.vanginneken import DelayOptimalDp, _Level
from repro.engine.compiled import CompiledNet
from repro.engine.kernels import (
    DpScratch,
    _traverse_in_place,
    fused_level_2d_batched,
    fused_level_batched,
    shared_scratch,
)
from repro.net.twopin import TwoPinNet
from repro.tech.library import RepeaterLibrary
from repro.tech.technology import Technology
from repro.utils.validation import require

__all__ = ["BatchedDpDriver", "DpProblem"]

#: Default cap on problems in flight per lockstep batch; pending problems
#: join as earlier ones finish, bounding the concatenated front size.
_MAX_IN_FLIGHT = 64


@dataclass
class DpProblem:
    """One DP problem of a batch: a net, a library, and its compiled form.

    ``compiled`` takes precedence; otherwise the driver compiles
    ``candidate_positions`` against the net (same legalisation as the
    single-problem engines).
    """

    net: TwoPinNet
    library: RepeaterLibrary
    compiled: Optional[CompiledNet] = None
    candidate_positions: Sequence[float] = ()


class _ActiveProblem:
    """Mutable lockstep state of one problem inside the batch."""

    __slots__ = (
        "index",
        "net",
        "library",
        "compiled",
        "positions",
        "intervals",
        "num_levels",
        "library_widths",
        "cap_lut",
        "ratio_lut",
        "decision_lut",
        "caps",
        "delays",
        "widths",
        "back",
        "levels",
        "states_generated",
        "max_front",
        "next_level",
        "result",
    )

    def __init__(
        self, index: int, problem: DpProblem, unit_input_cap: float,
        unit_resistance: float,
    ) -> None:
        compiled = problem.compiled
        if compiled is None:
            compiled = CompiledNet(problem.net, problem.candidate_positions)
        self.index = index
        self.net = problem.net
        self.library = problem.library
        self.compiled = compiled
        self.positions = compiled.positions
        self.intervals = compiled.intervals
        self.num_levels = compiled.num_levels
        library_widths = np.asarray(problem.library.widths, dtype=float)
        self.library_widths = library_widths
        # Per-problem branch LUTs — the same hoisted deterministic values
        # the fused core computes per run.
        self.cap_lut = unit_input_cap * library_widths
        self.ratio_lut = unit_resistance / library_widths
        self.decision_lut = np.concatenate(([0.0], library_widths))
        self.caps = np.array([unit_input_cap * problem.net.receiver_width])
        self.delays = np.array([0.0])
        self.widths = np.array([0.0])
        self.back = np.array([-1], dtype=np.int64)
        self.levels: list = []
        self.states_generated = 1
        self.max_front = 1
        self.next_level = 0
        self.result = None

    @property
    def position(self) -> float:
        """The candidate position of the problem's next DP level."""
        return self.positions[self.num_levels - 1 - self.next_level]


class BatchedDpDriver:
    """Run many power-aware (or delay-optimal) DPs in lockstep.

    One driver instance is cheap and stateless between calls (the scratch
    arena is process-shared by default, like the fused core); construct it
    per batch or reuse it freely.
    """

    def __init__(
        self,
        technology: Technology,
        *,
        pruning: Optional[PruningConfig] = None,
        delay_tolerance: float = 1.0e-14,
        scratch: Optional[DpScratch] = None,
        max_in_flight: int = _MAX_IN_FLIGHT,
    ) -> None:
        require(max_in_flight >= 1, "max_in_flight must be >= 1")
        self._technology = technology
        self._pruning = pruning or PruningConfig()
        self._delay_tolerance = delay_tolerance
        self._scratch = scratch
        self._max_in_flight = int(max_in_flight)
        self._front_sizes: List[int] = []

    @property
    def technology(self) -> Technology:
        """Technology whose repeater constants the DPs use."""
        return self._technology

    @property
    def front_size_history(self) -> List[int]:
        """Concatenated batch front sizes per lockstep level (bench metric).

        Reset at the start of every ``run_power`` / ``run_delay_optimal``
        call; each entry is the total row count one batched kernel call
        operated on (the ufunc-amortisation measurable).
        """
        return list(self._front_sizes)

    # ------------------------------------------------------------------ #
    def run_power(self, problems: Sequence[DpProblem]) -> List[PowerDpResult]:
        """Run the power-aware DP for every problem; results in input order.

        Bit-for-bit identical to running ``PowerAwareDp(core="fused")`` on
        each problem separately (frontier, solutions and statistics; the
        whole-batch runtime is attributed proportionally to each problem's
        generated states).
        """
        started = time.perf_counter()
        repeater = self._technology.repeater
        intrinsic = repeater.intrinsic_delay
        unit_resistance = repeater.unit_resistance
        scratch = self._scratch if self._scratch is not None else shared_scratch()
        pruning = self._pruning
        full_strategy = pruning.strategy == "full"
        self._front_sizes = []

        states = [
            _ActiveProblem(
                index, problem, repeater.unit_input_capacitance, unit_resistance
            )
            for index, problem in enumerate(problems)
        ]

        def level_step(active: List[_ActiveProblem]) -> None:
            counts = np.array([len(entry.caps) for entry in active], dtype=np.int64)
            caps = np.concatenate([entry.caps for entry in active])
            delays = np.concatenate([entry.delays for entry in active])
            widths = np.concatenate([entry.widths for entry in active])
            intervals = [entry.intervals[entry.next_level] for entry in active]
            lut_sizes = np.array(
                [len(entry.library_widths) for entry in active], dtype=np.int64
            )
            lut_offsets = np.zeros(len(active), dtype=np.int64)
            np.cumsum(lut_sizes[:-1], out=lut_offsets[1:])
            self._front_sizes.append(int(counts.sum()))
            fronts = fused_level_batched(
                scratch,
                intervals,
                caps,
                delays,
                widths,
                counts,
                lut_caps=np.concatenate([entry.cap_lut for entry in active]),
                lut_ratios=np.concatenate([entry.ratio_lut for entry in active]),
                lut_widths=np.concatenate([entry.library_widths for entry in active]),
                lut_offsets=lut_offsets,
                lut_sizes=lut_sizes,
                intrinsic=intrinsic,
                delay_tolerance=pruning.delay_tolerance,
                width_tolerance=pruning.width_tolerance,
                full_strategy=full_strategy,
            )
            front_caps, front_delays, front_widths, keep_local, survivors, m_per = fronts
            offset = 0
            for row, entry in enumerate(active):
                kept = int(survivors[row])
                entry.caps = front_caps[offset : offset + kept].copy()
                entry.delays = front_delays[offset : offset + kept].copy()
                entry.widths = front_widths[offset : offset + kept].copy()
                entry.levels.append(
                    _FusedLevel(
                        position=entry.position,
                        flat=keep_local[offset : offset + kept].copy(),
                        count=int(counts[row]),
                    )
                )
                entry.states_generated += int(m_per[row])
                entry.max_front = max(entry.max_front, kept)
                entry.next_level += 1
                offset += kept
                if sanitize.enabled():
                    sanitize.check_power_level(
                        entry.caps,
                        entry.delays,
                        entry.widths,
                        strategy=pruning.strategy,
                        width_tolerance=pruning.width_tolerance,
                        level=entry.next_level - 1,
                        where=f"BatchedDpDriver net {entry.net.name!r}",
                    )

        def finalize(entry: _ActiveProblem) -> None:
            caps, delays, widths = entry.caps, entry.delays, entry.widths
            scratch.ensure(len(caps))
            _traverse_in_place(scratch, entry.intervals[entry.num_levels], caps, delays)
            final_delays = (
                delays + intrinsic + (unit_resistance / entry.net.driver_width) * caps
            )
            if sanitize.enabled():
                sanitize.check_finite(
                    f"BatchedDpDriver net {entry.net.name!r} final",
                    final_delays=final_delays,
                    widths=widths,
                )
            if entry.levels:
                back = np.arange(len(caps), dtype=np.int64)
            else:
                back = np.array([-1], dtype=np.int64)
            backtrack = _FusedBacktrack(entry.levels, entry.decision_lut)
            entry.result = build_frontier(final_delays, widths, back, backtrack)

        self._lockstep(states, level_step, finalize)

        # Attribute the whole-batch wall clock proportionally to each
        # problem's generated states (runtime is instrumentation, not part
        # of the bit-exactness contract).
        elapsed = time.perf_counter() - started
        total_states = sum(entry.states_generated for entry in states) or 1
        results: List[PowerDpResult] = []
        for entry in states:
            statistics = DpStatistics(
                num_candidates=entry.num_levels,
                library_size=len(entry.library.widths),
                states_generated=entry.states_generated,
                max_front_size=entry.max_front,
                runtime_seconds=elapsed * entry.states_generated / total_states,
            )
            results.append(PowerDpResult(frontier=entry.result, statistics=statistics))
        return results

    def run_delay_optimal(self, problems: Sequence[DpProblem]) -> List[DpSolution]:
        """Run the delay-optimal (van Ginneken) DP for every problem.

        Bit-for-bit identical to ``DelayOptimalDp(core="fused")`` run per
        problem; results in input order.
        """
        repeater = self._technology.repeater
        intrinsic = repeater.intrinsic_delay
        unit_resistance = repeater.unit_resistance
        scratch = self._scratch if self._scratch is not None else shared_scratch()
        self._front_sizes = []

        states = [
            _ActiveProblem(
                index, problem, repeater.unit_input_capacitance, unit_resistance
            )
            for index, problem in enumerate(problems)
        ]

        def level_step(active: List[_ActiveProblem]) -> None:
            counts = np.array([len(entry.caps) for entry in active], dtype=np.int64)
            caps = np.concatenate([entry.caps for entry in active])
            delays = np.concatenate([entry.delays for entry in active])
            widths = np.concatenate([entry.widths for entry in active])
            intervals = [entry.intervals[entry.next_level] for entry in active]
            lut_sizes = np.array(
                [len(entry.library_widths) for entry in active], dtype=np.int64
            )
            lut_offsets = np.zeros(len(active), dtype=np.int64)
            np.cumsum(lut_sizes[:-1], out=lut_offsets[1:])
            self._front_sizes.append(int(counts.sum()))
            fronts = fused_level_2d_batched(
                scratch,
                intervals,
                caps,
                delays,
                widths,
                counts,
                lut_caps=np.concatenate([entry.cap_lut for entry in active]),
                lut_ratios=np.concatenate([entry.ratio_lut for entry in active]),
                lut_widths=np.concatenate([entry.library_widths for entry in active]),
                lut_offsets=lut_offsets,
                lut_sizes=lut_sizes,
                intrinsic=intrinsic,
                delay_tolerance=self._delay_tolerance,
            )
            front_caps, front_delays, front_widths, keep_local, survivors, _m = fronts
            offset = 0
            for row, entry in enumerate(active):
                kept = int(survivors[row])
                keep = keep_local[offset : offset + kept]
                count = int(counts[row])
                entry.levels.append(
                    _Level(
                        position=entry.position,
                        parents=np.take(entry.back, keep % count),
                        decisions=entry.decision_lut[keep // count],
                    )
                )
                entry.caps = front_caps[offset : offset + kept].copy()
                entry.delays = front_delays[offset : offset + kept].copy()
                entry.widths = front_widths[offset : offset + kept].copy()
                entry.back = np.arange(kept, dtype=np.int64)
                entry.next_level += 1
                offset += kept
                if sanitize.enabled():
                    sanitize.check_level_2d(
                        entry.caps,
                        entry.delays,
                        level=entry.next_level - 1,
                        where=f"BatchedDpDriver(2d) net {entry.net.name!r}",
                    )

        def finalize(entry: _ActiveProblem) -> None:
            caps, delays, widths = entry.caps, entry.delays, entry.widths
            scratch.ensure(len(caps))
            _traverse_in_place(scratch, entry.intervals[entry.num_levels], caps, delays)
            final_delays = (
                delays + intrinsic + (unit_resistance / entry.net.driver_width) * caps
            )
            best = int(np.argmin(final_delays))
            best_positions, best_widths = DelayOptimalDp._backtrack(
                int(entry.back[best]), entry.levels
            )
            entry.result = DpSolution.from_lists(
                positions=best_positions,
                widths=best_widths,
                delay=float(final_delays[best]),
                total_width=float(widths[best]),
            )

        self._lockstep(states, level_step, finalize)
        return [entry.result for entry in states]

    # ------------------------------------------------------------------ #
    def _lockstep(self, states, level_step, finalize) -> None:
        """Join/leave/compact loop: admit, advance one level, retire.

        The concatenated front is rebuilt from the surviving problems every
        step, so segments of finished problems are compacted out the moment
        they retire.
        """
        pending = deque(states)
        active: List[_ActiveProblem] = []
        while pending or active:
            while pending and len(active) < self._max_in_flight:
                entry = pending.popleft()
                if entry.num_levels == 0:
                    finalize(entry)  # no DP levels: straight to the driver
                else:
                    active.append(entry)
            if not active:
                continue
            level_step(active)
            remaining: List[_ActiveProblem] = []
            for entry in active:
                if entry.next_level >= entry.num_levels:
                    finalize(entry)
                else:
                    remaining.append(entry)
            active = remaining
