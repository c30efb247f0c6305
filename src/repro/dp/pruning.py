"""Dominance pruning for the power-aware DP.

A DP state is ``(C, D, W)``: the capacitance presented upstream, the delay
accumulated from this point down to the receiver, and the total repeater
width inserted so far.  A state is useless if another state is no worse in
all three coordinates — whatever the upstream part of the net does, the
dominating state leads to a solution that is at least as good.

Every power-aware DP (RIP's coarse and final passes, the ``dp-g*``
baselines) prunes by one rule, exact ``(C, D, W)`` dominance, in two
stages: group states by total width and keep the 2-D ``(C, D)`` Pareto
front of every group (:func:`repro.engine.kernels.bucket_prune`), then
drop the bucket survivors that a state of another bucket dominates
(:func:`repro.engine.kernels.cross_bucket_prune`).  The first stage is
cheap and removes most states; the second leaves exactly the 3-D front.

:func:`prune_states` is the pruning pass of the staged DP core
(``PowerAwareDp(core="staged")``), the oracle of the fused core.  Both
cores apply one tolerance rule: a state is compared against *every*
earlier state in the sort order, not only the kept ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import kernels
from repro.utils.validation import require_non_negative


@dataclass(frozen=True)
class PruningConfig:
    """Tolerances of the DP dominance pruning.

    Production DPs use the defaults; only tests and benchmarks pass other
    tolerances, through ``PowerAwareDp(technology, pruning)``.

    Attributes
    ----------
    delay_tolerance:
        States whose delay is within this many seconds of a dominating state
        are pruned as well; a tiny positive value (default 10 fs) collapses
        floating-point noise without measurably affecting solution quality.
    width_tolerance:
        Same idea for the width coordinate (units of ``u``); it also sets
        the width-bucket quantum (:func:`repro.engine.kernels.width_quantum`).
    """

    delay_tolerance: float = 1.0e-14
    width_tolerance: float = 1.0e-9

    def __post_init__(self) -> None:
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
    if len(survivors) <= 1:
        return survivors
    sub = kernels.cross_bucket_prune(
        caps[survivors],
        delays[survivors],
        widths[survivors],
        delay_tolerance=config.delay_tolerance,
        width_tolerance=config.width_tolerance,
    )
    return survivors[sub]
