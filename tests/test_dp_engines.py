"""Tests for the DP buffering engines (frontier, power-aware DP, van Ginneken).

Includes a brute-force cross-check on small instances: with few candidate
locations and a tiny library the exhaustive enumeration of every repeater
assignment is feasible, and the DP must match its optimum exactly.
"""

from itertools import product

import pytest

from repro.delay.elmore import buffered_net_delay, unbuffered_net_delay
from repro.dp.candidates import uniform_candidates
from repro.dp.frontier import DelayWidthFrontier, FrontierPoint
from repro.dp.powerdp import PowerAwareDp
from repro.dp.state import BufferAssignment, DpSolution
from repro.dp.vanginneken import DelayOptimalDp
from repro.tech.library import RepeaterLibrary
from repro.utils.units import from_microns

from tests.conftest import build_mixed_net, build_uniform_net


# --------------------------------------------------------------------------- #
# DpSolution / frontier containers
# --------------------------------------------------------------------------- #
def test_dp_solution_accessors():
    solution = DpSolution.from_lists([1e-3, 2e-3], [80.0, 40.0], delay=1e-9, total_width=120.0)
    assert solution.positions == (1e-3, 2e-3)
    assert solution.widths == (80.0, 40.0)
    assert solution.num_repeaters == 2
    assert solution.assignments[0] == BufferAssignment(1e-3, 80.0)


def _point(delay, width):
    return FrontierPoint(
        delay=delay,
        total_width=width,
        solution=DpSolution.from_lists([], [], delay=delay, total_width=width),
    )


def test_frontier_prunes_dominated_points():
    frontier = DelayWidthFrontier([_point(1.0, 100.0), _point(2.0, 150.0), _point(3.0, 50.0)])
    assert len(frontier) == 2  # (2.0, 150) is dominated by (1.0, 100)
    assert frontier.min_delay() == 1.0
    assert frontier.min_width_solution().total_width == 50.0


def test_frontier_best_for_delay_lookup():
    frontier = DelayWidthFrontier([_point(1.0, 100.0), _point(2.0, 60.0), _point(3.0, 20.0)])
    assert frontier.best_for_delay(0.5) is None
    assert frontier.best_for_delay(1.5).total_width == 100.0
    assert frontier.best_for_delay(2.0).total_width == 60.0
    assert frontier.best_for_delay(10.0).total_width == 20.0


def test_frontier_empty():
    frontier = DelayWidthFrontier([])
    assert frontier.is_empty()
    with pytest.raises(ValueError):
        frontier.min_delay()


# --------------------------------------------------------------------------- #
# power-aware DP
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_net(tech):
    return build_mixed_net(tech)


def test_power_dp_frontier_is_consistent_with_evaluator(tech, small_net):
    library = RepeaterLibrary.uniform(40.0, 200.0, 40.0)
    candidates = uniform_candidates(small_net, from_microns(500.0))
    result = PowerAwareDp(tech).run(small_net, library, candidates)
    assert not result.frontier.is_empty()
    for point in result.frontier:
        recomputed = buffered_net_delay(
            small_net, tech, point.solution.positions, point.solution.widths
        )
        assert recomputed == pytest.approx(point.delay, rel=1e-9)
        assert sum(point.solution.widths) == pytest.approx(point.total_width)
        assert all(w in library for w in point.solution.widths)
        assert all(small_net.is_legal_position(p) for p in point.solution.positions)


def test_power_dp_frontier_contains_unbuffered_solution(tech, small_net):
    library = RepeaterLibrary.uniform(40.0, 200.0, 40.0)
    candidates = uniform_candidates(small_net, from_microns(500.0))
    result = PowerAwareDp(tech).run(small_net, library, candidates)
    slowest = result.frontier.min_width_solution()
    assert slowest.total_width == 0.0
    assert slowest.delay == pytest.approx(unbuffered_net_delay(small_net, tech))


def test_power_dp_frontier_monotone(tech, small_net):
    library = RepeaterLibrary.uniform(40.0, 400.0, 40.0)
    candidates = uniform_candidates(small_net, from_microns(400.0))
    points = PowerAwareDp(tech).run(small_net, library, candidates).frontier.points
    delays = [p.delay for p in points]
    widths = [p.total_width for p in points]
    assert delays == sorted(delays)
    assert widths == sorted(widths, reverse=True)


def test_power_dp_respects_forbidden_zone(tech, zoned_net):
    library = RepeaterLibrary.uniform(40.0, 200.0, 80.0)
    candidates = uniform_candidates(zoned_net, from_microns(200.0))
    result = PowerAwareDp(tech).run(zoned_net, library, candidates)
    zone = zoned_net.forbidden_zones[0]
    for point in result.frontier:
        assert all(not zone.contains(p) for p in point.solution.positions)


def test_power_dp_illegal_candidates_are_dropped(tech, zoned_net):
    zone = zoned_net.forbidden_zones[0]
    library = RepeaterLibrary((80.0,))
    result = PowerAwareDp(tech).run(zoned_net, library, [zone.center, -1.0, 2 * zoned_net.total_length])
    # All provided candidates are illegal, so only the unbuffered solution exists.
    assert len(result.frontier) == 1
    assert result.frontier.points[0].total_width == 0.0


def test_power_dp_statistics_populated(tech, small_net):
    library = RepeaterLibrary.uniform(80.0, 160.0, 80.0)
    candidates = uniform_candidates(small_net, from_microns(1000.0))
    result = PowerAwareDp(tech).run(small_net, library, candidates)
    stats = result.statistics
    assert stats.num_candidates == len(candidates)
    assert stats.library_size == 2
    assert stats.states_generated > 0
    assert stats.max_front_size >= 1
    assert stats.runtime_seconds >= 0.0


# --------------------------------------------------------------------------- #
# brute force cross-check
# --------------------------------------------------------------------------- #
def _brute_force_best(net, tech, library, candidates, target):
    """Exhaustive enumeration of all assignments over the candidate sites."""
    best_width = None
    options = [None, *library.widths]
    for assignment in product(options, repeat=len(candidates)):
        positions = [c for c, w in zip(candidates, assignment) if w is not None]
        widths = [w for w in assignment if w is not None]
        delay = buffered_net_delay(net, tech, positions, widths)
        if delay <= target:
            width = sum(widths)
            if best_width is None or width < best_width:
                best_width = width
    return best_width


def test_power_dp_matches_brute_force(tech):
    net = build_uniform_net(tech, length_um=6000.0, segments=3)
    library = RepeaterLibrary((60.0, 180.0))
    candidates = uniform_candidates(net, from_microns(1500.0))
    assert len(candidates) <= 4
    result = PowerAwareDp(tech).run(net, library, candidates)

    for factor in (1.05, 1.2, 1.5, 2.0):
        target = factor * result.min_delay()
        expected = _brute_force_best(net, tech, library, candidates, target)
        point = result.best_for_delay(target)
        got = None if point is None else point.total_width
        assert got == pytest.approx(expected)


def test_delay_optimal_matches_brute_force_min_delay(tech):
    net = build_uniform_net(tech, length_um=6000.0, segments=3)
    library = RepeaterLibrary((60.0, 180.0))
    candidates = uniform_candidates(net, from_microns(1500.0))
    best = None
    options = [None, *library.widths]
    for assignment in product(options, repeat=len(candidates)):
        positions = [c for c, w in zip(candidates, assignment) if w is not None]
        widths = [w for w in assignment if w is not None]
        delay = buffered_net_delay(net, tech, positions, widths)
        best = delay if best is None else min(best, delay)
    solution = DelayOptimalDp(tech).run(net, library, candidates)
    assert solution.delay == pytest.approx(best)


# --------------------------------------------------------------------------- #
# van Ginneken delay-optimal DP
# --------------------------------------------------------------------------- #
def test_delay_optimal_beats_unbuffered_on_long_net(tech, small_net):
    library = RepeaterLibrary.uniform(40.0, 400.0, 40.0)
    candidates = uniform_candidates(small_net, from_microns(200.0))
    solution = DelayOptimalDp(tech).run(small_net, library, candidates)
    assert solution.delay < unbuffered_net_delay(small_net, tech)
    assert solution.num_repeaters >= 1


def test_delay_optimal_solution_is_consistent(tech, small_net):
    library = RepeaterLibrary.uniform(40.0, 400.0, 80.0)
    candidates = uniform_candidates(small_net, from_microns(400.0))
    solution = DelayOptimalDp(tech).run(small_net, library, candidates)
    recomputed = buffered_net_delay(small_net, tech, solution.positions, solution.widths)
    assert recomputed == pytest.approx(solution.delay, rel=1e-9)
    assert solution.total_width == pytest.approx(sum(solution.widths))


def test_delay_optimal_minimum_delay_below_power_dp_points(tech, small_net):
    library = RepeaterLibrary.uniform(40.0, 400.0, 40.0)
    candidates = uniform_candidates(small_net, from_microns(400.0))
    tau_min = DelayOptimalDp(tech).minimum_delay(small_net, library, candidates)
    frontier = PowerAwareDp(tech).run(small_net, library, candidates).frontier
    assert tau_min == pytest.approx(frontier.min_delay(), rel=1e-9)


def test_denser_candidates_never_hurt_min_delay(tech, small_net):
    library = RepeaterLibrary.uniform(80.0, 400.0, 80.0)
    coarse = DelayOptimalDp(tech).minimum_delay(
        small_net, library, uniform_candidates(small_net, from_microns(800.0))
    )
    dense = DelayOptimalDp(tech).minimum_delay(
        small_net, library, uniform_candidates(small_net, from_microns(200.0))
    )
    assert dense <= coarse + 1e-15


def test_richer_library_never_hurts_min_delay(tech, small_net):
    candidates = uniform_candidates(small_net, from_microns(400.0))
    poor = DelayOptimalDp(tech).minimum_delay(small_net, RepeaterLibrary((80.0,)), candidates)
    rich = DelayOptimalDp(tech).minimum_delay(
        small_net, RepeaterLibrary.uniform(40.0, 400.0, 40.0), candidates
    )
    assert rich <= poor + 1e-15
