"""Bit-exactness of the compiled analytical kernels vs. the scalar oracles.

ISSUE 5 finishes compiling the analytical layer: the width solver's
Gauss-Seidel sweep runs on hoisted native-float coefficient vectors, the
location derivatives evaluate through the batched
:meth:`TwoPinNet.unit_rc_at_batch` position lookup, and the compiled
Elmore evaluator aggregates its stage coefficients with whole-vector
expressions.  Every one of them is selectable against the legacy scalar
loop (``sweep="scalar"`` / ``RefineConfig.analytical="scalar"`` /
``CompiledElmoreEvaluator(analytical="scalar")``), and the pairs must
agree **bit for bit** — including the clamped, degenerate and duplicate
shapes below.
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
from repro.analytical.width_solver import (
    DualBisectionWidthSolver,
    NewtonKktWidthSolver,
)
from repro.core.refine import Refine, RefineConfig
from repro.core.solution import InsertionSolution
from repro.delay.compiled import CompiledElmoreEvaluator
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.tech.nodes import NODE_180NM

from tests.conftest import build_mixed_net, build_uniform_net

POPULATION = ProtocolConfig(num_nets=3, targets_per_net=4, seed=2005)


@pytest.fixture(scope="module")
def cases():
    return ProtocolStore().cases(POPULATION)


def _seeded_positions(net, rng, count):
    return sorted(float(p) for p in rng.uniform(1e-6, net.total_length - 1e-6, count))


def _solution_signature(solution):
    return (
        solution.widths,
        solution.lagrange_multiplier,
        solution.delay,
        solution.total_width,
        solution.feasible,
        solution.iterations,
    )


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


def test_compiled_evaluator_vectorized_ctor_bitwise_equal(tech):
    """Vectorized stage aggregation == the walked per-stage loop."""
    rng = np.random.default_rng(3)
    for net in (build_uniform_net(tech), build_mixed_net(tech)):
        for count in (0, 1, 4, 8, 15):
            positions = _seeded_positions(net, rng, count)
            fast = CompiledElmoreEvaluator(net, tech, positions)
            slow = CompiledElmoreEvaluator(net, tech, positions, analytical="scalar")
            widths = [float(w) for w in rng.uniform(10.0, 400.0, count)]
            assert fast.stage_delays(widths) == slow.stage_delays(widths)
            assert fast.net_delay(widths) == slow.net_delay(widths)
            assert fast.delay_width_gradient(widths).tolist() == (
                slow.delay_width_gradient(widths).tolist()
            )
            fast_rc = fast.stage_lumped_rc()
            slow_rc = slow.stage_lumped_rc()
            assert fast_rc[0].tolist() == slow_rc[0].tolist()
            assert fast_rc[1].tolist() == slow_rc[1].tolist()


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
def test_fixed_point_vectorized_bitwise_equal(tech):
    rng = np.random.default_rng(19)
    vectorized = DualBisectionWidthSolver(tech, sweep="vectorized")
    scalar = DualBisectionWidthSolver(tech, sweep="scalar")
    for net in (build_uniform_net(tech), build_mixed_net(tech)):
        for count in (1, 3, 8):
            positions = _seeded_positions(net, rng, count)
            resistance, capacitance = stage_lumped_rc(net, positions)
            for lam in (1e-30, 1e-12, 1.0, 1e18):  # huge/tiny: clamp regimes
                start = rng.uniform(5.0, 500.0, count)
                fast = vectorized._fixed_point(
                    lam, resistance, capacitance, net, start.copy()
                )
                slow = scalar._fixed_point(
                    lam, resistance, capacitance, net, start.copy()
                )
                assert fast.tolist() == slow.tolist()


def test_fixed_point_vectorized_clamps(tech):
    """Min/max width clamps engage identically in both sweeps."""
    net = build_uniform_net(tech)
    positions = [net.total_length / 2.0]
    resistance, capacitance = stage_lumped_rc(net, positions)
    vectorized = DualBisectionWidthSolver(tech, sweep="vectorized")
    scalar = DualBisectionWidthSolver(tech, sweep="scalar")
    repeater = NODE_180NM.repeater
    for lam in (1e-25, 1e25):
        start = np.array([0.5])  # below min: the entry clamp engages too
        fast = vectorized._fixed_point(lam, resistance, capacitance, net, start.copy())
        slow = scalar._fixed_point(lam, resistance, capacitance, net, start.copy())
        assert fast.tolist() == slow.tolist()
    tiny = vectorized._fixed_point(1e-25, resistance, capacitance, net, np.array([0.5]))
    assert tiny[0] == repeater.min_width
    # The max clamp: a start above the ceiling is clamped on entry in both.
    high = np.array([repeater.max_width * 3.0])
    fast = vectorized._fixed_point(1e25, resistance, capacitance, net, high.copy())
    slow = scalar._fixed_point(1e25, resistance, capacitance, net, high.copy())
    assert fast.tolist() == slow.tolist()


def test_fixed_point_zero_repeaters(tech):
    """n = 0 never reaches the sweep through ``solve`` (which returns
    early), and the scalar loop's termination check cannot reduce an empty
    vector — the vectorized sweep still degrades gracefully."""
    net = build_uniform_net(tech)
    resistance, capacitance = stage_lumped_rc(net, [])
    vectorized = DualBisectionWidthSolver(tech, sweep="vectorized")
    fast = vectorized._fixed_point(1.0, resistance, capacitance, net, np.empty(0))
    assert fast.tolist() == []


@pytest.mark.parametrize("solver_cls", [DualBisectionWidthSolver, NewtonKktWidthSolver])
def test_width_solver_sweep_modes_identical(cases, solver_cls):
    """Full solves agree bit-for-bit between the sweeps, warm and cold."""
    vectorized = solver_cls(NODE_180NM, sweep="vectorized")
    scalar = solver_cls(NODE_180NM, sweep="scalar")
    rng = np.random.default_rng(23)
    for case in cases:
        positions = _seeded_positions(case.net, rng, 5)
        for factor in (1.1, 1.6):
            target = factor * case.tau_min
            fast = vectorized.solve(case.net, positions, target)
            slow = scalar.solve(case.net, positions, target)
            assert _solution_signature(fast) == _solution_signature(slow)
            seeded_fast = vectorized.solve(
                case.net, positions, target, initial_widths=fast.widths
            )
            seeded_slow = scalar.solve(
                case.net, positions, target, initial_widths=slow.widths
            )
            assert _solution_signature(seeded_fast) == _solution_signature(seeded_slow)


def test_width_solver_zero_positions_identical(cases):
    case = cases[0]
    vectorized = DualBisectionWidthSolver(NODE_180NM, sweep="vectorized")
    scalar = DualBisectionWidthSolver(NODE_180NM, sweep="scalar")
    target = 1.5 * case.tau_min
    assert _solution_signature(
        vectorized.solve(case.net, [], target)
    ) == _solution_signature(scalar.solve(case.net, [], target))


def test_width_solver_rejects_unknown_sweep(tech):
    with pytest.raises(Exception):
        DualBisectionWidthSolver(tech, sweep="nonsense")
    with pytest.raises(Exception):
        RefineConfig(analytical="nonsense")


# --------------------------------------------------------------------------- #
# location derivatives and the REFINE move loop
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


def test_refine_analytical_modes_identical(cases):
    """Whole REFINE runs agree bit-for-bit between analytical modes."""

    def refine_all(analytical):
        refine = Refine(NODE_180NM, config=RefineConfig(analytical=analytical))
        rows = []
        rng = np.random.default_rng(41)
        for case in cases:
            positions = _seeded_positions(case.net, rng, 4)
            widths = [float(w) for w in rng.uniform(40.0, 300.0, 4)]
            initial = InsertionSolution.from_lists(positions, widths)
            for factor in (1.15, 1.5):
                result = refine.run(case.net, initial, factor * case.tau_min)
                rows.append(
                    (
                        result.feasible,
                        result.solution.positions,
                        result.solution.widths,
                        result.delay,
                        result.total_width,
                        result.lagrange_multiplier,
                        result.iterations,
                        result.moves_applied,
                    )
                )
        return rows

    assert refine_all("vectorized") == refine_all("scalar")
