"""End-to-end cold-design equivalence: compiled vs. walked Elmore evaluation.

Runs the full RIP flow (coarse DP -> REFINE -> final DP) over a slice of the
seed population with ``RefineConfig.evaluator`` set to ``"compiled"`` and to
``"walked"`` and asserts the outcomes are **identical** — feasibility
verdicts, refined positions/widths, reported delays and the final discrete
solutions (same shape as ``test_engine_equivalence.py`` for the DP kernels).
The compiled evaluator is bit-exact by contract, so everything is compared
with ``==``.
"""

from __future__ import annotations

import pytest

from repro.analytical.width_solver import DualBisectionWidthSolver
from repro.core.refine import RefineConfig
from repro.core.rip import Rip, RipConfig
from repro.delay.elmore import unbuffered_net_delay
from repro.engine.cache import ProtocolConfig, ProtocolStore

from tests.conftest import build_uniform_net

POPULATION = ProtocolConfig(num_nets=4, targets_per_net=6, seed=2005)


@pytest.fixture(scope="module")
def population():
    return ProtocolStore().cases(POPULATION)


def _sweep(tech, cases, evaluator):
    config = RipConfig(refine=RefineConfig(evaluator=evaluator))
    rows = []
    for case in cases:
        rip = Rip(tech, config, window_cache=False)
        prepared = rip.prepare(case.net)
        for target in case.targets:
            result = rip.run_prepared(prepared, target)
            rows.append(
                (
                    case.net.name,
                    target,
                    result.feasible,
                    result.refined.feasible,
                    result.refined.solution.positions,
                    result.refined.solution.widths,
                    result.refined.delay,
                    result.refined.lagrange_multiplier,
                    result.refined.width_history,
                    result.solution.positions,
                    result.solution.widths,
                    result.delay,
                    result.total_width,
                    result.fallback_used,
                )
            )
    return rows


def test_cold_design_identical_across_population(tech, population):
    walked = _sweep(tech, population, "walked")
    compiled = _sweep(tech, population, "compiled")
    assert len(walked) == len(compiled)
    for walked_row, compiled_row in zip(walked, compiled):
        assert walked_row == compiled_row


def test_solver_level_solutions_identical(tech):
    net = build_uniform_net(tech, length_um=12000.0, segments=6, name="solver-eq")
    positions = [
        0.25 * net.total_length,
        0.5 * net.total_length,
        0.75 * net.total_length,
    ]
    walked_solver = DualBisectionWidthSolver(tech, evaluator="walked")
    compiled_solver = DualBisectionWidthSolver(tech, evaluator="compiled")
    base = unbuffered_net_delay(net, tech)
    for target in (0.8 * base, 0.95 * base, 50.0 * base, 1.0e-12):
        walked = walked_solver.solve(net, positions, target)
        compiled = compiled_solver.solve(net, positions, target)
        assert compiled.widths == walked.widths
        assert compiled.lagrange_multiplier == walked.lagrange_multiplier
        assert compiled.delay == walked.delay
        assert compiled.total_width == walked.total_width
        assert compiled.feasible == walked.feasible
        assert compiled.iterations == walked.iterations


def test_solver_warm_seed_identical_across_evaluators(tech):
    net = build_uniform_net(tech, length_um=12000.0, segments=6, name="solver-warm-eq")
    positions = [0.3 * net.total_length, 0.7 * net.total_length]
    target = 0.85 * unbuffered_net_delay(net, tech)
    walked_solver = DualBisectionWidthSolver(tech, evaluator="walked")
    compiled_solver = DualBisectionWidthSolver(tech, evaluator="compiled")
    seed = walked_solver.solve(net, positions, target).widths
    walked = walked_solver.solve(net, positions, target, initial_widths=seed)
    compiled = compiled_solver.solve(net, positions, target, initial_widths=seed)
    assert compiled.widths == walked.widths
    assert compiled.delay == walked.delay
    assert compiled.iterations == walked.iterations


def test_evaluator_modes_validated(tech):
    from repro.utils.validation import ValidationError

    with pytest.raises(ValidationError):
        DualBisectionWidthSolver(tech, evaluator="vectorized")
    with pytest.raises(ValidationError):
        RefineConfig(evaluator="fast")
