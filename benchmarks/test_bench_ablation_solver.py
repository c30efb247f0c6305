"""Ablation: continuous width solver (Lagrangian dual bisection vs. Newton KKT).

The paper's REFINE pseudocode solves the KKT system with Newton-Raphson; the
library's default is a dual-bisection/Gauss-Seidel solver, which solves the
stationarity condition per repeater for a fixed multiplier and bisects on
the multiplier, so it has no convergence-basin issues (see
:mod:`repro.analytical.width_solver`).  This benchmark times both on the
same sizing problem and checks they agree on the optimal total width.
"""

from __future__ import annotations

import pytest

from repro.analytical.width_solver import DualBisectionWidthSolver, NewtonKktWidthSolver
from repro.delay.elmore import unbuffered_net_delay
from repro.net.generator import NetGenerationConfig, RandomNetGenerator
from repro.tech.nodes import NODE_180NM


@pytest.fixture(scope="module")
def sizing_problem():
    technology = NODE_180NM
    config = NetGenerationConfig(num_forbidden_zones=0)
    net = RandomNetGenerator(technology, config=config, seed=7).generate()
    positions = [net.total_length * fraction for fraction in (0.2, 0.4, 0.6, 0.8)]
    target = 0.6 * unbuffered_net_delay(net, technology)
    return technology, net, positions, target


@pytest.mark.parametrize("solver_name", ["dual-bisection", "newton-kkt"])
def test_width_solver(benchmark, sizing_problem, solver_name):
    technology, net, positions, target = sizing_problem
    if solver_name == "dual-bisection":
        solver = DualBisectionWidthSolver(technology)
    else:
        solver = NewtonKktWidthSolver(technology)

    solution = benchmark.pedantic(
        lambda: solver.solve(net, positions, target), rounds=5, iterations=1
    )
    assert solution.feasible
    assert solution.delay <= target * (1.0 + 1e-6)

    reference = DualBisectionWidthSolver(technology).solve(net, positions, target)
    assert solution.total_width == pytest.approx(reference.total_width, rel=2e-2)
    print(
        f"\n[{solver_name}] total_width={solution.total_width:.1f}u "
        f"iterations={solution.iterations}"
    )
