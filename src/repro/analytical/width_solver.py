"""Continuous repeater-width solvers for fixed repeater locations.

Given a net, a timing target and the *positions* of ``n`` repeaters, Section
4.2 of the paper characterises the power-optimal continuous widths by the KKT
system

* ``tau_total(w) = tau_t``                                   (Eq. 5)
* ``1 + lambda * d tau_total / d w_i = 0`` for every repeater (Eq. 7/8)

Two solvers are provided.

:class:`NewtonKktWidthSolver` attacks the ``(n+1)``-variable nonlinear system
directly with a damped Newton-Raphson iteration, exactly as the paper's
REFINE pseudocode states.

:class:`DualBisectionWidthSolver` (the default used by REFINE) exploits the
structure instead: for a fixed multiplier ``lambda`` the stationarity
condition can be solved per repeater,

``w_i = sqrt( Rs * (C_i + Co * w_{i+1}) / (Co * (R_{i-1} + Rs / w_{i-1}) + 1/lambda) )``,

which converges quickly under a Gauss-Seidel sweep, and the resulting total
delay is monotonically decreasing in ``lambda``; an outer bisection then
pins ``tau_total(lambda) = tau_t``.  This variant has no convergence basin
issues, which matters because REFINE calls the solver at every iteration
from fairly arbitrary starting points.

Compiled delay evaluation
-------------------------
Both solvers spend almost all of their time evaluating the total Elmore
delay at fixed positions — the feasibility pre-check, the bracket and every
bisection step each re-walk the net's piece list through
``buffered_net_delay``.  With ``evaluator="compiled"`` (the default, the
one production path) each ``solve`` call compiles one
:class:`~repro.delay.compiled.CompiledElmoreEvaluator` for its
``(net, positions)`` pair and every evaluation collapses to a few numpy
ops on the precomputed per-stage coefficients — **bit-for-bit** equal to
the walked path.  ``DualBisectionWidthSolver(evaluator="walked")`` is the
oracle: it forwards every evaluation to :mod:`repro.delay.elmore` and
:mod:`repro.analytical.derivatives`, the single source of truth.  Only
tests and benchmarks construct it; a whole RIP flow reaches it through
``Rip(width_solver=...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analytical.derivatives import delay_width_gradient, stage_lumped_rc
from repro.delay.compiled import CompiledElmoreEvaluator
from repro.delay.elmore import buffered_net_delay
from repro.net.twopin import TwoPinNet
from repro.tech.technology import Technology
from repro.utils.validation import require, require_positive

#: Legal delay-evaluation modes of the width solvers.
EVALUATOR_MODES = ("compiled", "walked")


class _WalkedEvaluation:
    """Per-(net, positions) walked evaluation — the equivalence oracle.

    Presents the same three-method surface as
    :class:`~repro.delay.compiled.CompiledElmoreEvaluator` but forwards
    every call to the original per-call module functions, preserving the
    legacy behaviour (including their per-call validation) exactly.
    """

    __slots__ = ("_technology", "_net", "_positions")

    def __init__(
        self, technology: Technology, net: TwoPinNet, positions: Sequence[float]
    ) -> None:
        self._technology = technology
        self._net = net
        self._positions = [float(position) for position in positions]

    def net_delay(self, widths: Sequence[float]) -> float:
        return buffered_net_delay(self._net, self._technology, self._positions, widths)

    def stage_lumped_rc(self) -> Tuple[np.ndarray, np.ndarray]:
        return stage_lumped_rc(self._net, self._positions)

    def delay_width_gradient(self, widths: Sequence[float]) -> np.ndarray:
        return delay_width_gradient(
            self._net, self._technology, self._positions, widths
        )


def solve_evaluation(
    technology: Technology,
    net: TwoPinNet,
    positions: Sequence[float],
    evaluator: str,
):
    """The per-(net, positions) evaluation backend of one width solve.

    ``"compiled"`` validates the positions once and returns a
    :class:`~repro.delay.compiled.CompiledElmoreEvaluator`, whose delay,
    lumped stage RC and width gradient are all bit-identical numpy
    evaluations of precompiled coefficients; ``"walked"`` returns the
    per-call single-source-of-truth walk (the equivalence oracle).
    """
    require(evaluator in EVALUATOR_MODES, f"unknown evaluator mode {evaluator!r}")
    if evaluator == "compiled":
        return CompiledElmoreEvaluator(net, technology, positions)
    return _WalkedEvaluation(technology, net, positions)


@dataclass(frozen=True)
class WidthSolution:
    """Result of a continuous width solve at fixed repeater positions.

    Attributes
    ----------
    widths:
        Optimal continuous repeater widths (units of ``u``).
    lagrange_multiplier:
        The multiplier ``lambda`` of the timing constraint.
    delay:
        Elmore delay of the net with these widths, seconds.
    total_width:
        Sum of the widths (the power proxy).
    feasible:
        ``False`` when the timing target cannot be met at these positions
        even with the largest allowed widths; the returned widths are then
        the delay-minimising ones.
    iterations:
        Number of outer iterations the solver used.
    """

    widths: Tuple[float, ...]
    lagrange_multiplier: float
    delay: float
    total_width: float
    feasible: bool
    iterations: int


class DualBisectionWidthSolver:
    """Lagrangian-dual width solver (Gauss-Seidel fixed point + bisection)."""

    def __init__(
        self,
        technology: Technology,
        *,
        min_width: Optional[float] = None,
        max_width: Optional[float] = None,
        delay_tolerance: float = 1.0e-4,
        max_bisection_steps: int = 100,
        max_inner_sweeps: int = 200,
        inner_tolerance: float = 1.0e-9,
        evaluator: str = "compiled",
    ) -> None:
        self._technology = technology
        repeater = technology.repeater
        self._min_width = repeater.min_width if min_width is None else min_width
        self._max_width = repeater.max_width if max_width is None else max_width
        require_positive(self._min_width, "min_width")
        require(self._max_width > self._min_width, "max_width must exceed min_width")
        require(evaluator in EVALUATOR_MODES, f"unknown evaluator mode {evaluator!r}")
        self._delay_tolerance = delay_tolerance
        self._max_bisection_steps = max_bisection_steps
        self._max_inner_sweeps = max_inner_sweeps
        self._inner_tolerance = inner_tolerance
        self._evaluator = evaluator

    @property
    def evaluator(self) -> str:
        """Delay-evaluation mode: ``"compiled"`` or ``"walked"``."""
        return self._evaluator

    # ------------------------------------------------------------------ #
    def solve(
        self,
        net: TwoPinNet,
        positions: Sequence[float],
        timing_target: float,
        *,
        initial_widths: Optional[Sequence[float]] = None,
    ) -> WidthSolution:
        """Compute the power-optimal continuous widths at ``positions``.

        ``initial_widths`` starts the Gauss-Seidel sweeps (default: the
        midpoint of the width range).
        """
        require_positive(timing_target, "timing_target")
        n = len(positions)
        # One evaluation backend per solve: positions are validated (and,
        # in compiled mode, the per-stage coefficients aggregated) once
        # here instead of on every evaluation of the inner loops.
        evaluation = solve_evaluation(self._technology, net, positions, self._evaluator)
        net_delay = evaluation.net_delay
        if n == 0:
            delay = net_delay([])
            return WidthSolution(
                widths=(),
                lagrange_multiplier=0.0,
                delay=delay,
                total_width=0.0,
                feasible=delay <= timing_target,
                iterations=0,
            )

        stage_resistance, stage_capacitance = evaluation.stage_lumped_rc()
        start = (
            np.asarray(initial_widths, dtype=float)
            if initial_widths is not None
            else np.full(n, 0.5 * (self._min_width + self._max_width))
        )
        require(len(start) == n, "initial_widths must match the number of positions")

        # Both bracket ends scale one estimate at ``start``: _fixed_point
        # copies ``start``, so the estimate is the same at either end.
        estimate = self._lambda_estimate(evaluation, start)
        # Delay at the "infinite lambda" end (delay-optimal widths) tells us
        # whether the target is achievable at all for these positions.
        lambda_high = estimate * 1e6
        widths_fast = self._fixed_point(lambda_high, stage_resistance, stage_capacitance, net, start)
        delay_fast = net_delay(widths_fast)
        if delay_fast > timing_target * (1.0 + 1e-12):
            return WidthSolution(
                widths=tuple(widths_fast),
                lagrange_multiplier=lambda_high,
                delay=delay_fast,
                total_width=float(np.sum(widths_fast)),
                feasible=False,
                iterations=0,
            )

        # Bracket: find a small lambda whose delay exceeds the target.
        lambda_low = estimate * 1e-6
        widths = self._fixed_point(lambda_low, stage_resistance, stage_capacitance, net, start)
        delay_low = net_delay(widths)
        guard = 0
        while delay_low <= timing_target and guard < 60:
            lambda_low *= 0.1
            widths = self._fixed_point(
                lambda_low, stage_resistance, stage_capacitance, net, widths
            )
            delay_low = net_delay(widths)
            guard += 1
        if delay_low <= timing_target:
            # Even with vanishing widths the net meets timing: the cheapest
            # legal design is every repeater at its minimum width.
            widths_min = np.full(n, self._min_width)
            delay_min = net_delay(widths_min)
            return WidthSolution(
                widths=tuple(widths_min),
                lagrange_multiplier=lambda_low,
                delay=delay_min,
                total_width=float(np.sum(widths_min)),
                feasible=delay_min <= timing_target,
                iterations=guard,
            )

        # Bisection on log(lambda): delay is monotone decreasing in lambda.
        bisection_steps = 0
        log_low, log_high = np.log(lambda_low), np.log(lambda_high)
        for bisection_steps in range(1, self._max_bisection_steps + 1):
            log_mid = 0.5 * (log_low + log_high)
            lambda_mid = float(np.exp(log_mid))
            widths = self._fixed_point(
                lambda_mid, stage_resistance, stage_capacitance, net, widths
            )
            delay_mid = net_delay(widths)
            if delay_mid > timing_target:
                log_low = log_mid
            else:
                log_high = log_mid
            if abs(delay_mid - timing_target) <= self._delay_tolerance * timing_target:
                break

        lambda_final = float(np.exp(log_high))
        widths = self._fixed_point(lambda_final, stage_resistance, stage_capacitance, net, widths)
        delay_final = net_delay(widths)
        return WidthSolution(
            widths=tuple(widths),
            lagrange_multiplier=lambda_final,
            delay=delay_final,
            total_width=float(np.sum(widths)),
            feasible=delay_final <= timing_target * (1.0 + 1e-9),
            iterations=guard + bisection_steps,
        )

    # ------------------------------------------------------------------ #
    def _lambda_estimate(self, evaluation, widths: np.ndarray) -> float:
        """Order-of-magnitude estimate of lambda from the width gradient."""
        gradient = evaluation.delay_width_gradient(widths)
        scale = float(np.mean(np.abs(gradient)))
        if scale <= 0.0:  # pragma: no cover - degenerate nets
            scale = 1e-12
        return 1.0 / scale

    def _fixed_point(
        self,
        lam: float,
        stage_resistance: np.ndarray,
        stage_capacitance: np.ndarray,
        net: TwoPinNet,
        start: np.ndarray,
    ) -> np.ndarray:
        """Gauss-Seidel iteration of Eq. (8) at fixed ``lambda``.

        The per-stage coefficient vectors are hoisted to flat native floats
        once per call and the whole update runs on them — no numpy scalar
        extraction inside the sweep.  The Gauss-Seidel *upstream* chain
        (``w_i`` reads ``w_{i-1}`` of the same sweep) is a true recurrence
        and stays sequential; downstream reads use the previous iterate.
        The sweep stops when no width moves by more than
        ``inner_tolerance`` times ``max(1, max width)``.
        """
        repeater = self._technology.repeater
        unit_resistance = repeater.unit_resistance
        unit_cap = repeater.unit_input_capacitance
        n = len(start)
        min_width = self._min_width
        max_width = self._max_width
        if n == 0:
            return np.clip(start.astype(float).copy(), min_width, max_width)
        # Native-float entry clamp: min(max(x, lo), hi) is elementwise
        # np.clip, bit for bit (NaN propagates identically).
        widths = [
            min(max(float(value), min_width), max_width) for value in start.tolist()
        ]
        cap_down = stage_capacitance.tolist()  # C_{i+1} read at index i + 1
        res_up = stage_resistance.tolist()  # R_i read at index i
        driver_width = net.driver_width
        receiver_width = net.receiver_width
        inv_lam = 1.0 / lam
        inner_tolerance = self._inner_tolerance
        sqrt = math.sqrt

        for _ in range(self._max_inner_sweeps):
            largest_change = 0.0
            upstream_width = driver_width
            for i in range(n):
                downstream_width = receiver_width if i == n - 1 else widths[i + 1]
                numerator = unit_resistance * (
                    cap_down[i + 1] + unit_cap * downstream_width
                )
                denominator = (
                    unit_cap * (res_up[i] + unit_resistance / upstream_width)
                    + inv_lam
                )
                new_width = sqrt(numerator / denominator)
                new_width = min(max(new_width, min_width), max_width)
                largest_change = max(largest_change, abs(new_width - widths[i]))
                widths[i] = new_width
                upstream_width = new_width
            peak = max(widths)
            if largest_change <= inner_tolerance * (1.0 if peak < 1.0 else peak):
                break
        return np.asarray(widths)


class NewtonKktWidthSolver:
    """Damped Newton-Raphson on the full KKT system (the paper's stated method)."""

    def __init__(
        self,
        technology: Technology,
        *,
        min_width: Optional[float] = None,
        max_width: Optional[float] = None,
        max_iterations: int = 100,
        tolerance: float = 1.0e-10,
        evaluator: str = "compiled",
    ) -> None:
        self._technology = technology
        repeater = technology.repeater
        self._min_width = repeater.min_width if min_width is None else min_width
        self._max_width = repeater.max_width if max_width is None else max_width
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        require(evaluator in EVALUATOR_MODES, f"unknown evaluator mode {evaluator!r}")
        self._evaluator = evaluator
        # The dual solver provides the starting point and the feasibility
        # verdict; Newton then polishes the KKT residuals.
        self._fallback = DualBisectionWidthSolver(
            technology,
            min_width=self._min_width,
            max_width=self._max_width,
            evaluator=evaluator,
        )

    def solve(
        self,
        net: TwoPinNet,
        positions: Sequence[float],
        timing_target: float,
        *,
        initial_widths: Optional[Sequence[float]] = None,
    ) -> WidthSolution:
        """Solve the KKT system; falls back to the dual solution if Newton diverges."""
        warm = self._fallback.solve(
            net, positions, timing_target, initial_widths=initial_widths
        )
        n = len(positions)
        if n == 0 or not warm.feasible:
            return warm

        evaluation = solve_evaluation(self._technology, net, positions, self._evaluator)
        net_delay = evaluation.net_delay
        width_gradient = evaluation.delay_width_gradient
        repeater = self._technology.repeater
        unit_resistance = repeater.unit_resistance
        unit_cap = repeater.unit_input_capacitance
        stage_resistance, stage_capacitance = evaluation.stage_lumped_rc()

        widths = np.asarray(warm.widths, dtype=float)
        lam = max(warm.lagrange_multiplier, 1e-30)

        def residuals(w: np.ndarray, multiplier: float) -> np.ndarray:
            gradient = width_gradient(w)
            res = np.empty(n + 1)
            res[:n] = 1.0 + multiplier * gradient
            res[n] = net_delay(w) - timing_target
            return res

        def jacobian(w: np.ndarray, multiplier: float) -> np.ndarray:
            gradient = width_gradient(w)
            matrix = np.zeros((n + 1, n + 1))
            extended = [net.driver_width, *w, net.receiver_width]
            for i in range(1, n + 1):
                width = extended[i]
                downstream_width = extended[i + 1]
                row = i - 1
                matrix[row, row] = (
                    2.0
                    * multiplier
                    * unit_resistance
                    * (stage_capacitance[i] + unit_cap * downstream_width)
                    / width**3
                )
                if i - 1 >= 1:
                    matrix[row, row - 1] = (
                        -multiplier * unit_cap * unit_resistance / extended[i - 1] ** 2
                    )
                if i + 1 <= n:
                    matrix[row, row + 1] = -multiplier * unit_resistance * unit_cap / width**2
                matrix[row, n] = gradient[row]
            matrix[n, :n] = gradient
            matrix[n, n] = 0.0
            return matrix

        converged = False
        iterations = 0
        for iterations in range(1, self._max_iterations + 1):
            res = residuals(widths, lam)
            norm = float(np.max(np.abs(res[:n]))) + float(abs(res[n]) / timing_target)
            if norm <= self._tolerance * 10.0 + 1e-12:
                converged = True
                break
            try:
                step = np.linalg.solve(jacobian(widths, lam), -res)
            except np.linalg.LinAlgError:  # pragma: no cover - singular Jacobian
                break
            damping = 1.0
            for _ in range(30):
                new_widths = np.clip(
                    widths + damping * step[:n], self._min_width, self._max_width
                )
                new_lambda = lam + damping * step[n]
                if new_lambda <= 0.0:
                    damping *= 0.5
                    continue
                new_res = residuals(new_widths, new_lambda)
                if np.linalg.norm(new_res) < np.linalg.norm(res):
                    widths, lam = new_widths, new_lambda
                    break
                damping *= 0.5
            else:
                break

        if not converged:
            return warm

        delay = net_delay(widths)
        return WidthSolution(
            widths=tuple(float(w) for w in widths),
            lagrange_multiplier=float(lam),
            delay=delay,
            total_width=float(np.sum(widths)),
            feasible=delay <= timing_target * (1.0 + 1e-6),
            iterations=iterations,
        )
