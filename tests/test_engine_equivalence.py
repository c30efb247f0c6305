"""Golden equivalence: ``tau_min`` of the fused delay DP vs. its staged oracle.

``tau_min`` anchors every timing target of the experiments, so the fused
delay-optimal DP must reproduce the staged per-level core bit-for-bit on
the experimental seed population (seed 2005), and both must equal the
``tau_min`` the protocol store recorded for each net.
"""

from __future__ import annotations

import pytest

from repro.dp.candidates import uniform_candidates
from repro.dp.vanginneken import DelayOptimalDp
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.tech.nodes import NODE_180NM

GOLDEN = ProtocolConfig(num_nets=4, targets_per_net=6, seed=2005)


@pytest.fixture(scope="module")
def golden_cases():
    return ProtocolStore().cases(GOLDEN)


def test_tau_min_bitwise_equal(golden_cases):
    library = GOLDEN.tau_min_library
    for case in golden_cases:
        candidates = uniform_candidates(case.net, GOLDEN.tau_min_pitch)
        fast = DelayOptimalDp(NODE_180NM).minimum_delay(case.net, library, candidates)
        slow = DelayOptimalDp(NODE_180NM, core="staged").minimum_delay(
            case.net, library, candidates
        )
        assert fast == slow
        assert fast == case.tau_min
