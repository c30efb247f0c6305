"""Classic van Ginneken delay-optimal repeater insertion [11, 20].

This is the delay-minimisation DP the power-aware variant descends from.  It
tracks only ``(C, D)`` per state (no width dimension), so its fronts stay
tiny and it is fast even with rich libraries and dense candidate locations.
RIP uses it to compute ``tau_min`` — the smallest delay any repeater
assignment can reach — which anchors the timing targets of every experiment,
and as a fallback initial solution when the coarse power DP cannot meet a
very tight target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitize
from repro.dp.pruning import prune_two_dimensional
from repro.dp.state import DpSolution
from repro.engine.compiled import CompiledNet
from repro.engine.kernels import (
    DpScratch,
    _traverse_in_place,
    fused_level_2d,
    shared_scratch,
)
from repro.net.twopin import TwoPinNet
from repro.tech.library import RepeaterLibrary
from repro.tech.technology import Technology
from repro.utils.validation import require


@dataclass
class _Level:
    position: float
    parents: np.ndarray
    decisions: np.ndarray


class DelayOptimalDp:
    """Delay-minimising repeater insertion on a two-pin net.

    ``core`` follows the power-aware DP: ``"fused"`` (default) runs each
    level as one :func:`repro.engine.kernels.fused_level_2d` call on the
    process-shared scratch arena; ``"staged"`` keeps the per-level passes
    on :func:`repro.dp.pruning.prune_two_dimensional` as the oracle
    (bit-for-bit identical solutions).
    """

    def __init__(
        self,
        technology: Technology,
        *,
        delay_tolerance: float = 1.0e-14,
        core: str = "fused",
        scratch: Optional[DpScratch] = None,
    ) -> None:
        require(core in ("fused", "staged"), f"unknown DP core {core!r}")
        self._technology = technology
        self._delay_tolerance = delay_tolerance
        self._core = core
        self._scratch = scratch

    @property
    def technology(self) -> Technology:
        """Technology whose repeater constants the DP uses."""
        return self._technology

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
    ) -> DpSolution:
        """Return the minimum-delay repeater assignment for ``net``.

        Unlike the power-aware DP there is always a solution (inserting no
        repeater at all is a valid assignment), so this never fails.
        """
        repeater = self._technology.repeater
        unit_resistance = repeater.unit_resistance
        unit_input_cap = repeater.unit_input_capacitance
        intrinsic = repeater.intrinsic_delay

        if compiled is None:
            compiled = CompiledNet(net, candidate_positions)
        positions = compiled.positions

        caps = np.array([unit_input_cap * net.receiver_width])
        delays = np.array([0.0])
        widths = np.array([0.0])
        back = np.array([-1], dtype=np.int64)
        levels: List[_Level] = []
        library_widths = np.asarray(library.widths, dtype=float)

        if self._core == "fused":
            scratch = self._scratch if self._scratch is not None else shared_scratch()
            cap_lut = unit_input_cap * library_widths
            ratio_lut = unit_resistance / library_widths
            decision_lut = np.concatenate(([0.0], library_widths))
            intervals = compiled.intervals
            for level, position in enumerate(reversed(positions)):
                caps, delays, widths, keep, _m, count = fused_level_2d(
                    scratch,
                    intervals[level],
                    caps,
                    delays,
                    widths,
                    cap_lut=cap_lut,
                    ratio_lut=ratio_lut,
                    width_lut=library_widths,
                    intrinsic=intrinsic,
                    delay_tolerance=self._delay_tolerance,
                )
                levels.append(
                    _Level(
                        position=position,
                        parents=np.take(back, keep % count),
                        decisions=decision_lut[keep // count],
                    )
                )
                back = scratch.arange[: len(keep)]
                if sanitize.enabled():
                    sanitize.check_level_2d(
                        caps,
                        delays,
                        level=level,
                        where=f"DelayOptimalDp(fused) net {net.name!r}",
                    )
            _traverse_in_place(scratch, intervals[len(positions)], caps, delays)
        else:
            for level, position in enumerate(reversed(positions)):
                caps, delays = compiled.traverse(level, caps, delays)

                count = len(caps)
                branches = len(library_widths) + 1
                new_caps = np.empty(count * branches)
                new_delays = np.empty(count * branches)
                new_widths = np.empty(count * branches)
                new_parents = np.empty(count * branches, dtype=np.int64)
                new_decisions = np.empty(count * branches)

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

                keep = prune_two_dimensional(
                    new_caps, new_delays, delay_tolerance=self._delay_tolerance
                )
                caps = new_caps[keep]
                delays = new_delays[keep]
                widths = new_widths[keep]
                levels.append(
                    _Level(position=position, parents=new_parents[keep], decisions=new_decisions[keep])
                )
                back = np.arange(len(keep), dtype=np.int64)
                if sanitize.enabled():
                    sanitize.check_level_2d(
                        caps,
                        delays,
                        level=level,
                        where=f"DelayOptimalDp(staged) net {net.name!r}",
                    )

            caps, delays = compiled.traverse(len(positions), caps, delays)
        final_delays = delays + intrinsic + (unit_resistance / net.driver_width) * caps
        if sanitize.enabled():
            sanitize.check_finite(
                f"DelayOptimalDp net {net.name!r} final", final_delays=final_delays
            )

        best = int(np.argmin(final_delays))
        best_positions, best_widths = self._backtrack(int(back[best]), levels)
        return DpSolution.from_lists(
            positions=best_positions,
            widths=best_widths,
            delay=float(final_delays[best]),
            total_width=float(widths[best]),
        )

    def minimum_delay(
        self,
        net: TwoPinNet,
        library: RepeaterLibrary,
        candidate_positions: Sequence[float] = (),
        *,
        compiled: Optional[CompiledNet] = None,
    ) -> float:
        """Smallest Elmore delay achievable with the given library/locations."""
        return self.run(net, library, candidate_positions, compiled=compiled).delay

    @staticmethod
    def _backtrack(pointer: int, levels: List[_Level]) -> Tuple[List[float], List[float]]:
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
        return positions, widths
