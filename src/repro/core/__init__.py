"""The paper's primary contribution: algorithm REFINE and the hybrid RIP flow.

Typical use::

    from repro.core import Rip
    from repro.tech import NODE_180NM

    rip = Rip(NODE_180NM)
    result = rip.run(net, timing_target)
    print(result.solution.positions, result.solution.widths)
"""

from repro.core.solution import InsertionSolution
from repro.core.evaluate import SolutionMetrics, evaluate_solution
from repro.core.refine import (
    ContinuationStatistics,
    Refine,
    RefineConfig,
    RefineContinuation,
    RefineMemo,
    RefineResult,
)
from repro.core.rip import (
    InfeasibleNetError,
    PreparedNet,
    Rip,
    RipConfig,
    RipResult,
)

__all__ = [
    "InsertionSolution",
    "SolutionMetrics",
    "evaluate_solution",
    "Refine",
    "RefineConfig",
    "RefineContinuation",
    "RefineMemo",
    "RefineResult",
    "ContinuationStatistics",
    "InfeasibleNetError",
    "PreparedNet",
    "Rip",
    "RipConfig",
    "RipResult",
]
