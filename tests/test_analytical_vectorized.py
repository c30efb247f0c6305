"""Bit-exactness of the vectorized analytical helpers vs. their scalar oracles.

REFINE's move loop evaluates the location derivatives through the batched
:meth:`TwoPinNet.unit_rc_at_batch` position lookup and the prefix-integral
:func:`stage_lumped_rc_vectorized`; the scalar functions they replace stay
in the analytical layer as their oracles, and the pairs must agree **bit
for bit** — including the boundary and duplicate positions below.  The
compiled evaluator's native-float total path and the Gauss-Seidel sweep's
empty-vector case are checked here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytical.derivatives import (
    location_derivative_arrays,
    location_derivatives,
    stage_lumped_rc,
    stage_lumped_rc_vectorized,
)
from repro.analytical.width_solver import DualBisectionWidthSolver
from repro.delay.compiled import CompiledElmoreEvaluator

from tests.conftest import build_mixed_net, build_uniform_net


def _seeded_positions(net, rng, count):
    return sorted(float(p) for p in rng.uniform(1e-6, net.total_length - 1e-6, count))


# --------------------------------------------------------------------------- #
# batched position lookups and stage aggregation
# --------------------------------------------------------------------------- #
def test_unit_rc_at_batch_bitwise_equal(tech):
    rng = np.random.default_rng(7)
    for net in (build_uniform_net(tech), build_mixed_net(tech)):
        positions = _seeded_positions(net, rng, 13)
        # Include exact segment boundaries and duplicates: the side
        # selection of the scalar lookup must be reproduced.
        positions += [float(b) for b in net.boundaries[1:-1]]
        positions += [positions[0], positions[0]]
        for downstream in (True, False):
            res, cap = net.unit_rc_at_batch(positions, downstream=downstream)
            for k, position in enumerate(positions):
                scalar = net.unit_rc_at(position, downstream=downstream)
                assert (res[k], cap[k]) == scalar


def test_unit_rc_at_batch_rejects_bad_positions(tech):
    net = build_uniform_net(tech)
    with pytest.raises(Exception):
        net.unit_rc_at_batch([-1.0])
    with pytest.raises(Exception):
        net.unit_rc_at_batch([net.total_length * 2.0])


def test_stage_lumped_rc_vectorized_bitwise_equal(tech):
    rng = np.random.default_rng(11)
    for net in (build_uniform_net(tech), build_mixed_net(tech)):
        for count in (0, 1, 5, 9):
            positions = _seeded_positions(net, rng, count)
            scalar = stage_lumped_rc(net, positions)
            fast = stage_lumped_rc_vectorized(net, positions)
            assert fast[0].tolist() == scalar[0].tolist()
            assert fast[1].tolist() == scalar[1].tolist()
        # Duplicate cut points: zero-length stages must match exactly.
        positions = _seeded_positions(net, rng, 4)
        doubled = sorted(positions + [positions[1]])
        scalar = stage_lumped_rc(net, doubled)
        fast = stage_lumped_rc_vectorized(net, doubled)
        assert fast[0].tolist() == scalar[0].tolist()
        assert fast[1].tolist() == scalar[1].tolist()


def test_compiled_evaluator_fast_total_validation(tech):
    """The native-float total path raises the scalar path's exact errors."""
    net = build_uniform_net(tech)
    positions = [net.total_length / 3.0, 2.0 * net.total_length / 3.0]
    evaluator = CompiledElmoreEvaluator(net, tech, positions)
    with pytest.raises(Exception, match="same length"):
        evaluator.net_delay([100.0])
    with pytest.raises(Exception, match="finite"):
        evaluator.net_delay([100.0, float("nan")])
    with pytest.raises(Exception, match="> 0"):
        evaluator.net_delay([100.0, -1.0])
    with pytest.raises(Exception, match="finite"):
        # Finiteness is checked for the whole vector before positivity,
        # exactly like the array path.
        evaluator.net_delay([-1.0, float("nan")])


# --------------------------------------------------------------------------- #
# the Gauss-Seidel sweep
# --------------------------------------------------------------------------- #
def test_fixed_point_vectorized_clamps(tech):
    """The min/max width clamps engage, on entry and inside the sweep."""
    net = build_uniform_net(tech)
    resistance, capacitance = stage_lumped_rc(net, [net.total_length / 2.0])
    solver = DualBisectionWidthSolver(tech)
    repeater = tech.repeater
    # A vanishing lambda drives the width to the floor; the start below it
    # is clamped on entry too.
    tiny = solver._fixed_point(1e-25, resistance, capacitance, net, np.array([0.5]))
    assert tiny.tolist() == [repeater.min_width]
    high = np.array([repeater.max_width * 3.0])
    huge = solver._fixed_point(1e25, resistance, capacitance, net, high)
    assert repeater.min_width <= huge[0] <= repeater.max_width


def test_fixed_point_zero_repeaters(tech):
    """n = 0 never reaches the sweep through ``solve`` (which returns
    early); the sweep still degrades gracefully on an empty vector."""
    net = build_uniform_net(tech)
    resistance, capacitance = stage_lumped_rc(net, [])
    solver = DualBisectionWidthSolver(tech)
    fast = solver._fixed_point(1.0, resistance, capacitance, net, np.empty(0))
    assert fast.tolist() == []


# --------------------------------------------------------------------------- #
# location derivatives
# --------------------------------------------------------------------------- #
def test_location_derivative_arrays_bitwise_equal(tech):
    rng = np.random.default_rng(31)
    for net in (build_uniform_net(tech), build_mixed_net(tech)):
        for count in (0, 1, 6):
            positions = _seeded_positions(net, rng, count)
            widths = [float(w) for w in rng.uniform(10.0, 400.0, count)]
            left, right = location_derivative_arrays(net, tech, positions, widths)
            scalar = location_derivatives(net, tech, positions, widths)
            assert left.tolist() == [d.left for d in scalar]
            assert right.tolist() == [d.right for d in scalar]
        # Boundary and duplicate positions: the up/downstream segment
        # side selection must match the scalar lookups exactly.
        boundary = float(net.boundaries[1])
        positions = sorted([boundary, boundary, net.total_length * 0.7])
        widths = [120.0, 80.0, 40.0]
        left, right = location_derivative_arrays(net, tech, positions, widths)
        scalar = location_derivatives(net, tech, positions, widths)
        assert left.tolist() == [d.left for d in scalar]
        assert right.tolist() == [d.right for d in scalar]
