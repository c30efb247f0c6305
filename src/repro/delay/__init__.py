"""Delay models for buffered interconnect.

The paper's analysis and algorithms use the Elmore delay of the switch-level
RC stage model (Section 4.1, Eq. 1-2); this package implements that model,
plus the RC-ladder moments whose first moment is an independent check of
it (``-m1`` equals the Elmore delay).
"""

from repro.delay.stage import (
    StageBreakdown,
    stage_delay,
    stage_delay_breakdown,
    wire_elmore_delay,
)
from repro.delay.compiled import CompiledElmoreEvaluator
from repro.delay.elmore import (
    ElmoreDelayModel,
    buffered_net_delay,
    stage_delays,
    unbuffered_net_delay,
)
from repro.delay.moments import ladder_moments

__all__ = [
    "CompiledElmoreEvaluator",
    "StageBreakdown",
    "stage_delay",
    "stage_delay_breakdown",
    "wire_elmore_delay",
    "ElmoreDelayModel",
    "buffered_net_delay",
    "stage_delays",
    "unbuffered_net_delay",
    "ladder_moments",
]
