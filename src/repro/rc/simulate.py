"""MNA-based transient simulation of RC ladders and trees.

This is the "golden" reference against which the Elmore and two-pole delay
estimates are validated in the test suite.  The circuits involved are pure
RC networks driven by an ideal voltage step through a source resistance, so
nodal analysis reduces to the linear ODE ``C dv/dt = -G v + b(t)`` which is
integrated with an unconditionally stable backward-Euler scheme (the systems
are stiff: wire time constants span several orders of magnitude).  The step
matrix is fixed, so it is solved once per simulation with numpy and every
time step is one matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.rc.network import RCTree
from repro.utils.validation import require, require_non_negative, require_positive


@dataclass(frozen=True)
class StepResponse:
    """Sampled step response of one output node.

    Attributes
    ----------
    times:
        Sample times in seconds (uniform grid starting at 0).
    voltages:
        Output-node voltage at each sample, normalised to a unit step.
    """

    times: np.ndarray
    voltages: np.ndarray

    def delay_at(self, threshold: float = 0.5) -> float:
        """Time at which the response first crosses ``threshold`` (linear interp.)."""
        return threshold_crossing(self.times, self.voltages, threshold)


def threshold_crossing(times: Sequence[float], voltages: Sequence[float], threshold: float) -> float:
    """First time ``voltages`` crosses ``threshold``, linearly interpolated.

    Raises ``ValueError`` if the waveform never reaches the threshold — that
    usually means the simulation window was too short.
    """
    require(0.0 < threshold < 1.0, "threshold must be in (0, 1)")
    times = np.asarray(times, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    above = np.nonzero(voltages >= threshold)[0]
    if len(above) == 0:
        raise ValueError(
            f"waveform never reaches {threshold}; extend the simulation window "
            f"(final value {voltages[-1]:.4f})"
        )
    index = int(above[0])
    if index == 0:
        return float(times[0])
    t0, t1 = times[index - 1], times[index]
    v0, v1 = voltages[index - 1], voltages[index]
    if v1 == v0:  # pragma: no cover - degenerate plateau
        return float(t1)
    return float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))


def _backward_euler(
    conductance: np.ndarray,
    capacitance: np.ndarray,
    source_vector: np.ndarray,
    t_end: float,
    steps: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate ``C dv/dt = -G v + source_vector`` from rest over ``[0, t_end]``."""
    require_positive(t_end, "t_end")
    require(steps >= 2, "steps must be >= 2")
    dt = t_end / steps
    system = capacitance / dt + conductance
    # (C/dt + G) v_next = (C/dt) v + b  =>  v_next = A v + c, with A and c
    # from one solve against the fixed system matrix.
    solved = np.linalg.solve(system, np.column_stack((capacitance / dt, source_vector)))
    step_matrix = solved[:, :-1]
    step_offset = solved[:, -1]
    voltages = np.zeros(conductance.shape[0])
    times = np.linspace(0.0, t_end, steps + 1)
    history = np.zeros((steps + 1, conductance.shape[0]))
    for step in range(1, steps + 1):
        voltages = step_matrix @ voltages + step_offset
        history[step] = voltages
    return times, history


def simulate_ladder_step(
    resistances: Sequence[float],
    capacitances: Sequence[float],
    *,
    t_end: float,
    steps: int = 2000,
) -> StepResponse:
    """Unit-step response of an RC ladder, observed at the far end.

    The ladder is the same structure accepted by
    :func:`repro.delay.moments.ladder_moments`: ``resistances[i]`` connects
    node ``i-1`` (or the step source for ``i = 0``) to node ``i`` and
    ``capacitances[i]`` grounds node ``i``.
    """
    require(
        len(resistances) == len(capacitances),
        "resistances and capacitances must have the same length",
    )
    n = len(resistances)
    require(n >= 1, "the ladder needs at least one stage")
    for r in resistances:
        require_positive(r, "resistance")
    for c in capacitances:
        require_non_negative(c, "capacitance")

    conductance = np.zeros((n, n))
    for i in range(n):
        g = 1.0 / resistances[i]
        conductance[i, i] += g
        if i > 0:
            conductance[i - 1, i - 1] += g
            conductance[i - 1, i] -= g
            conductance[i, i - 1] -= g
    capacitance_matrix = np.diag(np.maximum(np.asarray(capacitances, dtype=float), 1e-21))
    source_vector = np.zeros(n)
    source_vector[0] = 1.0 / resistances[0]

    times, history = _backward_euler(conductance, capacitance_matrix, source_vector, t_end, steps)
    return StepResponse(times=times, voltages=history[:, -1])


def simulate_tree_step(
    tree: RCTree,
    output: str,
    *,
    source_resistance: float,
    t_end: float,
    steps: int = 2000,
) -> StepResponse:
    """Unit-step response of an RC tree observed at node ``output``.

    The step source drives the tree root through ``source_resistance``.
    """
    require(output in tree, f"output node {output!r} is not in the tree")
    require_positive(source_resistance, "source_resistance")

    nodes: List[str] = tree.topological_order()
    index: Dict[str, int] = {name: i for i, name in enumerate(nodes)}
    n = len(nodes)

    conductance = np.zeros((n, n))
    conductance[0, 0] += 1.0 / source_resistance
    for parent, child, resistance in tree.iter_edges():
        g = 1.0 / max(resistance, 1e-12)
        pi, ci = index[parent], index[child]
        conductance[pi, pi] += g
        conductance[ci, ci] += g
        conductance[pi, ci] -= g
        conductance[ci, pi] -= g

    capacitance_matrix = np.diag(
        [max(tree.capacitance(name), 1e-21) for name in nodes]
    )
    source_vector = np.zeros(n)
    source_vector[0] = 1.0 / source_resistance

    times, history = _backward_euler(conductance, capacitance_matrix, source_vector, t_end, steps)
    return StepResponse(times=times, voltages=history[:, index[output]])
