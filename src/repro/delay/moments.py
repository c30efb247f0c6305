"""Transfer-function moment computation for RC ladders.

The first moment of an RC ladder is the (negated) Elmore delay, computed
here from the ladder's node matrix rather than from the closed-form stage
formulas, so it serves as an independent cross-check of them; the RC
simulator in :mod:`repro.rc` takes the same ladders.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.net.twopin import TwoPinNet
from repro.tech.technology import Technology
from repro.utils.validation import require, require_non_negative, require_positive


def ladder_moments(
    resistances: Sequence[float],
    capacitances: Sequence[float],
    order: int = 2,
) -> List[float]:
    """Moments ``m_1 .. m_order`` of the output node of an RC ladder.

    The ladder has ``n`` nodes: resistance ``resistances[i]`` connects node
    ``i-1`` (or the ideal source for ``i = 0``) to node ``i``, and
    ``capacitances[i]`` hangs from node ``i`` to ground.  The output is the
    last node.  Moments are those of the voltage transfer function
    ``H(s) = 1 + m1*s + m2*s^2 + ...``; in particular ``-m1`` equals the
    Elmore delay of the output node.
    """
    require(len(resistances) == len(capacitances), "resistances and capacitances must align")
    require(order >= 1, "order must be >= 1")
    n = len(resistances)
    if n == 0:
        return [0.0] * order

    for value in resistances:
        require_non_negative(value, "resistance")
    for value in capacitances:
        require_non_negative(value, "capacitance")

    cumulative_resistance = np.cumsum(np.asarray(resistances, dtype=float))
    caps = np.asarray(capacitances, dtype=float)

    # common_resistance[i, j] = resistance shared by the source->i and source->j paths
    common_resistance = np.minimum.outer(cumulative_resistance, cumulative_resistance)

    # Iteratively: m_q(node) = -sum_k R_common(node, k) * C_k * m_{q-1}(k), m_0 = 1.
    previous = np.ones(n)
    output_moments: List[float] = []
    for _ in range(order):
        current = -(common_resistance * (caps * previous)[None, :]).sum(axis=1)
        output_moments.append(float(current[-1]))
        previous = current
    return output_moments


def discretize_net(
    net: TwoPinNet,
    technology: Technology,
    *,
    lumps_per_segment: int = 10,
    driver_width: float | None = None,
) -> Tuple[List[float], List[float]]:
    """Discretise an (unbuffered) net into an RC ladder.

    Each wire segment is split into ``lumps_per_segment`` equal RC lumps;
    the driver contributes its output resistance as the first ladder
    resistance and the receiver contributes its gate capacitance on the last
    node.  Returns ``(resistances, capacitances)`` suitable for
    :func:`ladder_moments` or the MNA simulator in :mod:`repro.rc`.
    """
    require_positive(lumps_per_segment, "lumps_per_segment")
    width = net.driver_width if driver_width is None else driver_width
    repeater = technology.repeater

    resistances: List[float] = [repeater.drive_resistance(width)]
    capacitances: List[float] = [repeater.output_capacitance(width)]
    for segment in net.segments:
        lump_resistance = segment.resistance / lumps_per_segment
        lump_capacitance = segment.capacitance / lumps_per_segment
        for _ in range(lumps_per_segment):
            resistances.append(lump_resistance)
            capacitances.append(lump_capacitance)
    capacitances[-1] += repeater.input_capacitance(net.receiver_width)
    return resistances, capacitances

