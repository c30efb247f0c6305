"""Sensitivities of the total Elmore delay used by REFINE.

Two families of derivatives appear in Section 4 of the paper:

* ``d tau_total / d w_i`` (Eq. 8, width sensitivities) — used by the KKT
  width solvers and by the Newton iteration;
* the one-sided ``d tau_total / d x_i`` location derivatives (Eq. 17/18) —
  used by REFINE to decide which direction to move each repeater.

Both only need the *lumped* wire RC of each stage (``R_i``, ``C_i``) and the
per-meter RC immediately up/downstream of the repeater, which
:func:`stage_lumped_rc` and :meth:`TwoPinNet.unit_rc_at` provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.net.twopin import TwoPinNet
from repro.tech.technology import Technology
from repro.utils.validation import require


def stage_lumped_rc(
    net: TwoPinNet, positions: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Lumped wire resistance and capacitance of every stage.

    With ``n`` repeaters there are ``n + 1`` stages; stage ``i`` spans from
    repeater ``i`` (or the driver for ``i = 0``) to repeater ``i + 1`` (or
    the receiver).  Returns two arrays of length ``n + 1``: the paper's
    ``R_i`` and ``C_i``.
    """
    cut_points = [0.0, *positions, net.total_length]
    resistances = np.empty(len(cut_points) - 1)
    capacitances = np.empty(len(cut_points) - 1)
    for index in range(len(cut_points) - 1):
        resistances[index] = net.resistance_between(cut_points[index], cut_points[index + 1])
        capacitances[index] = net.capacitance_between(cut_points[index], cut_points[index + 1])
    return resistances, capacitances


def stage_lumped_rc_vectorized(
    net: TwoPinNet, positions: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`stage_lumped_rc` (bit-for-bit equal).

    Differences of the net's vectorized prefix integrals
    (:meth:`TwoPinNet.rc_prefix_at`) reproduce the scalar
    ``resistance_between``/``capacitance_between`` results exactly over
    *sorted* cut points — the same construction the compiled Elmore
    evaluator uses.  Requires ascending ``positions`` (REFINE's move loop
    and the width solvers always hold them sorted).
    """
    cut_points = [0.0, *positions, net.total_length]
    res_prefix, cap_prefix = net.rc_prefix_at(cut_points)
    return np.diff(res_prefix), np.diff(cap_prefix)


def delay_width_gradient(
    net: TwoPinNet,
    technology: Technology,
    positions: Sequence[float],
    widths: Sequence[float],
) -> np.ndarray:
    """``d tau_total / d w_i`` for every inserted repeater.

    From Eq. (8): the sensitivity of the total delay to the width of repeater
    ``i`` is ``Co * (R_{i-1} + Rs / w_{i-1}) - Rs * (C_i + Co * w_{i+1}) / w_i^2``
    where index ``0`` refers to the driver and ``n + 1`` to the receiver.
    """
    require(len(positions) == len(widths), "positions and widths must have the same length")
    n = len(positions)
    repeater = technology.repeater
    unit_resistance = repeater.unit_resistance
    unit_cap = repeater.unit_input_capacitance

    stage_resistance, stage_capacitance = stage_lumped_rc(net, positions)
    extended_widths = [net.driver_width, *widths, net.receiver_width]

    gradient = np.empty(n)
    for i in range(1, n + 1):
        upstream_width = extended_widths[i - 1]
        downstream_width = extended_widths[i + 1]
        width = extended_widths[i]
        gradient[i - 1] = unit_cap * (
            stage_resistance[i - 1] + unit_resistance / upstream_width
        ) - unit_resistance * (
            stage_capacitance[i] + unit_cap * downstream_width
        ) / (width * width)
    return gradient


@dataclass(frozen=True)
class LocationDerivatives:
    """One-sided derivatives of the total delay w.r.t. one repeater's position.

    Attributes
    ----------
    left:
        Left-hand derivative (moving the repeater upstream), Eq. (18).
    right:
        Right-hand derivative (moving the repeater downstream), Eq. (17).
    """

    left: float
    right: float


def location_derivatives(
    net: TwoPinNet,
    technology: Technology,
    positions: Sequence[float],
    widths: Sequence[float],
) -> List[LocationDerivatives]:
    """Left/right delay-vs-position derivatives for every repeater (Eq. 17/18)."""
    require(len(positions) == len(widths), "positions and widths must have the same length")
    n = len(positions)
    repeater = technology.repeater
    unit_resistance = repeater.unit_resistance
    unit_cap = repeater.unit_input_capacitance

    stage_resistance, stage_capacitance = stage_lumped_rc(net, positions)
    extended_widths = [net.driver_width, *widths, net.receiver_width]

    results: List[LocationDerivatives] = []
    for i in range(1, n + 1):
        position = positions[i - 1]
        width = extended_widths[i]
        upstream_width = extended_widths[i - 1]
        downstream_width = extended_widths[i + 1]
        upstream_resistance = stage_resistance[i - 1]
        downstream_capacitance = stage_capacitance[i]

        r_down, c_down = net.unit_rc_at(position, downstream=True)
        r_up, c_up = net.unit_rc_at(position, downstream=False)

        right = (
            unit_cap * r_down * (width - downstream_width)
            + unit_resistance * c_down * (1.0 / upstream_width - 1.0 / width)
            + c_down * upstream_resistance
            - r_down * downstream_capacitance
        )
        left = (
            unit_cap * r_up * (width - downstream_width)
            + unit_resistance * c_up * (1.0 / upstream_width - 1.0 / width)
            + c_up * upstream_resistance
            - r_up * downstream_capacitance
        )
        results.append(LocationDerivatives(left=left, right=right))
    return results


def location_derivative_arrays(
    net: TwoPinNet,
    technology: Technology,
    positions: Sequence[float],
    widths: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`location_derivatives`: ``(left, right)`` arrays.

    Built on the batched position lookup :meth:`TwoPinNet.unit_rc_at_batch`
    and the vectorized :func:`stage_lumped_rc_vectorized`; every elementwise
    expression keeps the scalar path's grouping, so the entries are
    **bit-for-bit** the scalar ``LocationDerivatives`` fields (the scalar
    walk stays as this function's test oracle).
    """
    require(len(positions) == len(widths), "positions and widths must have the same length")
    n = len(positions)
    if n == 0:
        return np.empty(0), np.empty(0)
    repeater = technology.repeater
    unit_resistance = repeater.unit_resistance
    unit_cap = repeater.unit_input_capacitance

    stage_resistance, stage_capacitance = stage_lumped_rc_vectorized(net, positions)
    widths = np.asarray(widths, dtype=float)
    width = widths
    upstream_width = np.empty(n)
    upstream_width[0] = net.driver_width
    upstream_width[1:] = widths[:-1]
    downstream_width = np.empty(n)
    downstream_width[: n - 1] = widths[1:]
    downstream_width[n - 1] = net.receiver_width
    upstream_resistance = stage_resistance[:-1]
    downstream_capacitance = stage_capacitance[1:]

    r_down, c_down = net.unit_rc_at_batch(positions, downstream=True)
    r_up, c_up = net.unit_rc_at_batch(positions, downstream=False)

    right = (
        unit_cap * r_down * (width - downstream_width)
        + unit_resistance * c_down * (1.0 / upstream_width - 1.0 / width)
        + c_down * upstream_resistance
        - r_down * downstream_capacitance
    )
    left = (
        unit_cap * r_up * (width - downstream_width)
        + unit_resistance * c_up * (1.0 / upstream_width - 1.0 / width)
        + c_up * upstream_resistance
        - r_up * downstream_capacitance
    )
    return left, right
