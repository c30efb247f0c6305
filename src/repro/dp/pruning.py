"""Dominance pruning for the power-aware DP.

A DP state is ``(C, D, W)``: the capacitance presented upstream, the delay
accumulated from this point down to the receiver, and the total repeater
width inserted so far.  A state is useless if another state is no worse in
all three coordinates — whatever the upstream part of the net does, the
dominating state leads to a solution that is at least as good.

Two strategies are provided (selected via :class:`PruningConfig`):

* ``"bucket"`` — group states by total width and keep the 2-D ``(C, D)``
  Pareto front of every group.  This misses cross-width dominance (a wider
  state dominated by a narrower one survives), so fronts are a little larger
  but each pruning pass is very cheap.
* ``"full"`` — bucket pruning followed by exact 3-D dominance across the
  buckets.  Smaller fronts, slightly more work per pass.  This is the
  default; the ablation benchmark compares the two.

Both run on the numpy kernels of :mod:`repro.engine.kernels` (segmented
``np.minimum.accumulate`` scans for the per-bucket fronts, blocked pairwise
broadcasting for the 3-D pass).  These functions are the pruning passes of
the staged DP core (``PowerAwareDp(core="staged")`` and
``DelayOptimalDp(core="staged")``), the oracle of the fused core.  Both
cores apply one tolerance rule: a state is compared against *every*
earlier state in the sort order, not only the kept ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import kernels
from repro.utils.validation import require, require_non_negative


@dataclass(frozen=True)
class PruningConfig:
    """Configuration of the DP dominance pruning.

    Attributes
    ----------
    strategy:
        ``"full"`` (bucket pruning + exact 3-D dominance) or ``"bucket"``.
    delay_tolerance:
        States whose delay is within this many seconds of a dominating state
        are pruned as well; a tiny positive value (default 10 fs) collapses
        floating-point noise without measurably affecting solution quality.
    width_tolerance:
        Same idea for the width coordinate (units of ``u``).
    """

    strategy: str = "full"
    delay_tolerance: float = 1.0e-14
    width_tolerance: float = 1.0e-9

    def __post_init__(self) -> None:
        require(self.strategy in ("full", "bucket"), f"unknown pruning strategy {self.strategy!r}")
        require_non_negative(self.delay_tolerance, "delay_tolerance")
        require_non_negative(self.width_tolerance, "width_tolerance")


def prune_states(
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    config: PruningConfig,
) -> np.ndarray:
    """Return the indices of the non-dominated states.

    The returned index array refers to the original ordering of the input
    arrays and is not itself sorted in any particular way.
    """
    if len(caps) == 0:
        return np.empty(0, dtype=np.int64)
    survivors = kernels.bucket_prune(
        caps,
        delays,
        widths,
        delay_tolerance=config.delay_tolerance,
        width_tolerance=config.width_tolerance,
    )
    if config.strategy == "bucket" or len(survivors) <= 1:
        return survivors
    sub = kernels.cross_bucket_prune(
        caps[survivors],
        delays[survivors],
        widths[survivors],
        delay_tolerance=config.delay_tolerance,
        width_tolerance=config.width_tolerance,
    )
    return survivors[sub]


def prune_two_dimensional(
    caps: np.ndarray,
    delays: np.ndarray,
    *,
    delay_tolerance: float = 1.0e-14,
) -> np.ndarray:
    """2-D ``(C, D)`` dominance pruning used by the delay-optimal DP."""
    if len(caps) == 0:
        return np.empty(0, dtype=np.int64)
    return kernels.pareto_two_dimensional(caps, delays, delay_tolerance=delay_tolerance)
