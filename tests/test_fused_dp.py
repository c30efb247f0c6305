"""Property suite for the fused expand-traverse-prune DP core.

The fused core must produce **bit-for-bit** the frontiers of the staged
per-level core on the vectorized pruning kernels (its one oracle) across
seeded nets, libraries and pruning tolerances — including the
degenerate shapes: no candidate locations, a single candidate, zero
tolerances, and huge tolerances that prune every level down to a single
state.  The whole RIP flow is checked against ``Rip(dp=<staged>,
width_solver=<walked>)``, the oracles of both of its solver layers.
"""

from __future__ import annotations

import pytest

from repro.analytical.width_solver import DualBisectionWidthSolver
from repro.core.rip import Rip
from repro.dp.powerdp import PowerAwareDp
from repro.dp.pruning import PruningConfig
from repro.dp.vanginneken import DelayOptimalDp
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.kernels import DpScratch, shared_scratch
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM
from repro.tree.buffering import TreePowerDp
from repro.utils.validation import ValidationError

from tests.conftest import build_mixed_net, build_uniform_net

POPULATION = ProtocolConfig(num_nets=4, targets_per_net=4, seed=2005)


@pytest.fixture(scope="module")
def cases():
    return ProtocolStore().cases(POPULATION)


def _frontier_signature(result):
    return [
        (point.delay, point.total_width, point.solution.positions, point.solution.widths)
        for point in result.frontier.points
    ]


def _statistics_signature(result):
    stats = result.statistics
    return (stats.num_candidates, stats.library_size, stats.states_generated, stats.max_front_size)


# ``full``: the one (C, D, W) dominance rule, at its default tolerances.
@pytest.mark.parametrize(
    "granularity", [10.0, 40.0, 130.0], ids=lambda granularity: f"full-{granularity}"
)
def test_power_dp_fused_bitwise_equal(cases, granularity):
    library = RepeaterLibrary.uniform(10.0, 400.0, granularity)
    fused = PowerAwareDp(NODE_180NM, core="fused")
    staged = PowerAwareDp(NODE_180NM, core="staged")
    for case in cases:
        fast = fused.run(case.net, library, case.candidates)
        slow = staged.run(case.net, library, case.candidates)
        assert _frontier_signature(fast) == _frontier_signature(slow)
        assert _statistics_signature(fast) == _statistics_signature(slow)


def test_power_dp_fused_zero_tolerances(cases):
    """Zero tolerances: exact dominance, where all kernels must agree."""
    library = RepeaterLibrary.uniform(40.0, 400.0, 60.0)
    pruning = PruningConfig(delay_tolerance=0.0, width_tolerance=0.0)
    fused = PowerAwareDp(NODE_180NM, pruning=pruning, core="fused")
    staged = PowerAwareDp(NODE_180NM, pruning=pruning, core="staged")
    for case in cases[:2]:
        assert _frontier_signature(
            fused.run(case.net, library, case.candidates)
        ) == _frontier_signature(staged.run(case.net, library, case.candidates))


def test_power_dp_fused_all_pruned_levels(tech):
    """Huge tolerances collapse every level to a single surviving state."""
    net = build_uniform_net(tech)
    library = RepeaterLibrary.uniform(40.0, 400.0, 120.0)
    pruning = PruningConfig(delay_tolerance=10.0, width_tolerance=1e6)
    candidates = [i * 500.0e-6 for i in range(1, 20)]
    fused = PowerAwareDp(tech, pruning=pruning, core="fused")
    staged = PowerAwareDp(tech, pruning=pruning, core="staged")
    fast = fused.run(net, library, candidates)
    slow = staged.run(net, library, candidates)
    assert fast.statistics.max_front_size == 1
    assert _frontier_signature(fast) == _frontier_signature(slow)


def test_power_dp_fused_degenerate_candidates(tech):
    """No candidates (no DP levels) and a single candidate location."""
    net = build_mixed_net(tech)
    library = RepeaterLibrary.uniform(40.0, 400.0, 120.0)
    fused = PowerAwareDp(tech, core="fused")
    staged = PowerAwareDp(tech, core="staged")
    for candidates in ([], [net.total_length / 2.0]):
        fast = fused.run(net, library, candidates)
        slow = staged.run(net, library, candidates)
        assert _frontier_signature(fast) == _frontier_signature(slow)


def test_power_dp_fused_single_width_library(tech):
    """A one-width library: two branches per level, reduction degenerate."""
    net = build_uniform_net(tech)
    library = RepeaterLibrary.from_widths([120.0])
    candidates = [i * 1000.0e-6 for i in range(1, 10)]
    fused = PowerAwareDp(tech, core="fused")
    staged = PowerAwareDp(tech, core="staged")
    assert _frontier_signature(
        fused.run(net, library, candidates)
    ) == _frontier_signature(staged.run(net, library, candidates))


def test_delay_optimal_fused_bitwise_equal(cases):
    library = RepeaterLibrary.uniform(10.0, 400.0, 10.0)
    fused = DelayOptimalDp(NODE_180NM, core="fused")
    staged = DelayOptimalDp(NODE_180NM, core="staged")
    assert fused.core == "fused" and staged.core == "staged"
    for case in cases:
        fast = fused.run(case.net, library, case.candidates)
        slow = staged.run(case.net, library, case.candidates)
        assert (fast.delay, fast.total_width, fast.positions, fast.widths) == (
            slow.delay,
            slow.total_width,
            slow.positions,
            slow.widths,
        )


def test_dp_cores_reject_unknown_core(tech):
    """Only the production core and the one oracle are constructible."""
    for core in ("nonsense", "batched", "reference"):
        with pytest.raises(ValidationError):
            PowerAwareDp(tech, core=core)
        with pytest.raises(ValidationError):
            DelayOptimalDp(tech, core=core)
    for core in ("nonsense", "batched", "staged"):
        with pytest.raises(ValidationError):
            TreePowerDp(tech, core=core)


def test_scratch_reuse_across_nets_and_libraries(cases):
    """One arena shared across runs gives the same bits as fresh arenas."""
    shared = DpScratch(capacity=16)  # tiny: force geometric growth
    fused_shared = PowerAwareDp(NODE_180NM, core="fused", scratch=shared)
    for granularity in (130.0, 40.0):
        library = RepeaterLibrary.uniform(10.0, 400.0, granularity)
        for case in cases[:2]:
            fresh = PowerAwareDp(
                NODE_180NM, core="fused", scratch=DpScratch(capacity=1 << 15)
            )
            assert _frontier_signature(
                fused_shared.run(case.net, library, case.candidates)
            ) == _frontier_signature(fresh.run(case.net, library, case.candidates))
    assert shared.grows > 1  # the arena actually grew geometrically
    assert shared.capacity >= 16


def test_process_shared_scratch_is_a_singleton():
    assert shared_scratch() is shared_scratch()


def test_rip_flow_fused_bitwise_equal(cases):
    """The whole hybrid flow is identical on production and on the oracles
    of both solver layers (staged DP, walked REFINE width solver)."""

    def design(rip):
        rows = []
        for case in cases[:2]:
            prepared = rip.prepare(case.net)
            for target in case.targets:
                result = rip.run_prepared(prepared, target)
                rows.append(
                    (
                        case.net.name,
                        target,
                        result.feasible,
                        result.fallback_used,
                        result.solution.positions,
                        result.solution.widths,
                        result.delay,
                        result.states_generated,
                    )
                )
        return rows

    oracle = Rip(
        NODE_180NM,
        dp=PowerAwareDp(NODE_180NM, core="staged"),
        width_solver=DualBisectionWidthSolver(NODE_180NM, evaluator="walked"),
        window_cache=False,
    )
    assert design(Rip(NODE_180NM, window_cache=False)) == design(oracle)
