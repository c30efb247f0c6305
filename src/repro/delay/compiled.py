"""Compiled per-(net, positions) Elmore evaluator for REFINE's cold path.

Profiling of a *cold* design (no warm continuation, no cached frontier)
shows ~55% of the flow inside ``buffered_net_delay`` → ``stage_delays`` →
``pieces_between``: every width-solver evaluation re-walks the net's piece
list in Python, even though the repeater *positions* — and with them every
wire-dependent quantity of Eq. (1)/(2) — are fixed for the whole solve.

:class:`CompiledElmoreEvaluator` hoists all of that out of the inner loop,
the same move :class:`repro.engine.compiled.CompiledNet` made for the DP
kernels.  Built once per ``(net, sorted positions)``, it

* validates the stage cut points once (the checks ``_check_solution``
  re-ran on every walked evaluation) and splits the net into the
  ``len(positions) + 1`` stages;
* pre-aggregates each stage's wire sums via ``pieces_between``: the lumped
  wire capacitance ``C_i`` and resistance ``R_i`` and the width-independent
  distributed wire delay — so the per-stage delay collapses to the affine
  form ``tau_i = (Rs*Cp + wire_distributed_i) + (Rs / w_drv) * (C_i + Co *
  w_load) + R_i * (Co * w_load)``, affine in ``1 / w_drv``, ``w_load`` and
  constants (plus the ``w_load / w_drv`` cross term);
* evaluates :meth:`stage_delays` / :meth:`net_delay` as a handful of numpy
  broadcast expressions over those coefficients.

Bit-exactness contract
----------------------
The walked evaluation in :mod:`repro.delay.elmore` stays the single source
of truth; this module is a *compilation* of it, not a reimplementation.
The coefficients are kept in the factored Eq. (1) grouping (never expanded
into a flat ``A + B/w + C*w`` polynomial, which would re-associate the
floating-point sums), :func:`_stage_wire_sums` replays the exact
arithmetic of ``stage_delay_breakdown``/``wire_elmore_delay`` over the
``pieces_between`` walk lane-parallel, and elementwise numpy double
arithmetic is IEEE identical to scalar Python float arithmetic — so
:meth:`stage_delays` is **bit-for-bit** equal to the walked
``stage_delays`` and :meth:`net_delay` to the walked
``buffered_net_delay`` (property-tested in ``tests/test_delay_compiled.py``;
``DualBisectionWidthSolver(evaluator="walked")`` is the solver-level
oracle, see ``tests/test_cold_design_equivalence.py``).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.net.twopin import TwoPinNet
from repro.tech.technology import Technology
from repro.utils.validation import ValidationError

__all__ = ["CompiledElmoreEvaluator"]


def _stage_wire_sums(net: TwoPinNet, cut_points: Sequence[float]):
    """Vectorized per-stage wire sums, bit-for-bit the walked aggregation.

    Stages spanning a single wire segment (the overwhelmingly common case)
    are computed as whole-vector expressions that reproduce the one-piece
    ``pieces_between`` + Eq. (1) sums + ``wire_elmore_delay`` arithmetic
    exactly: a single piece's sums are ``r*l``/``c*l`` verbatim, and its
    distributed delay collapses to ``(r*l) * (0.5 * (c*l))`` (the walked
    loop's ``(0.0 + c*l) - c*l`` downstream term is exactly ``+0.0``).
    Deeper stages (three or more pieces, or slivered two-piece shapes) run
    a padded lane-parallel replay of the same walk — one vector step per
    piece rank, masked per lane by the walk's own entry/emission guards —
    so no stage shape ever drops to a per-stage Python loop.
    """
    boundaries = net.segment_boundaries
    res_per_meter = net.segment_resistance_per_meter
    cap_per_meter = net.segment_capacitance_per_meter
    last_segment = len(res_per_meter) - 1
    starts = np.asarray(cut_points[:-1], dtype=float)
    ends = np.asarray(cut_points[1:], dtype=float)
    index = np.searchsorted(boundaries, starts, side="right") - 1
    np.clip(index, 0, last_segment, out=index)
    lengths = ends - starts

    wire_resistance = np.zeros(len(starts))
    wire_capacitance = np.zeros(len(starts))
    wire_distributed = np.zeros(len(starts))
    # The walk enters on ``start < end - 1e-15`` and emits a piece on
    # ``length > 1e-15`` — every comparison below replays it verbatim.
    entered = starts < (ends - 1e-15)
    segment_end = boundaries[index + 1]
    one_segment = segment_end >= ends
    single = entered & one_segment & (lengths > 1e-15)
    piece_resistance = res_per_meter[index] * lengths
    piece_capacitance = cap_per_meter[index] * lengths
    wire_resistance[single] = piece_resistance[single]
    wire_capacitance[single] = piece_capacitance[single]
    wire_distributed[single] = (piece_resistance * (0.5 * piece_capacitance))[single]

    multi = entered & ~one_segment
    if multi.any():
        # Two-segment stages, both pieces emitted (the only multi-segment
        # shape real nets produce; sub-femtometer slivers fall back).  The
        # walked loop's arithmetic is replayed exactly: lengths are
        # ``boundary - start`` / ``end - boundary``, the sums accumulate
        # left-to-right from 0, and the distributed term reproduces
        # ``wire_elmore_delay``'s add-then-subtract downstream chain.
        index2 = np.minimum(index + 1, last_segment)
        two_segment = multi & (boundaries[index2 + 1] >= ends)
        length_a = segment_end - starts
        length_b = ends - segment_end
        clean = (
            two_segment
            & (length_a > 1e-15)
            & (segment_end < ends - 1e-15)
            & (length_b > 1e-15)
        )
        if clean.any():
            res_a = res_per_meter[index] * length_a
            cap_a = cap_per_meter[index] * length_a
            res_b = res_per_meter[index2] * length_b
            cap_b = cap_per_meter[index2] * length_b
            wire_resistance[clean] = (res_a + res_b)[clean]
            wire_capacitance[clean] = (cap_a + cap_b)[clean]
            downstream = (0.0 + cap_a) + cap_b
            downstream_a = downstream - cap_a
            distributed = 0.0 + res_a * (0.5 * cap_a + downstream_a)
            downstream_b = downstream_a - cap_b
            distributed = distributed + res_b * (0.5 * cap_b + downstream_b)
            wire_distributed[clean] = distributed[clean]
            multi = multi & ~clean
        if multi.any():
            # Deep stages: replay ``pieces_between``'s while-loop as a
            # padded lane-parallel walk.  Step ``k`` visits each lane's
            # ``k``-th segment slot; a lane is *active* while the walk's
            # entry guard (``position < end - 1e-15``) holds and *emits*
            # a piece under its ``length > 1e-15`` guard, so zero-length
            # segment slivers are skipped exactly like the walk skips
            # them.  Masked accumulation in slot order reproduces the
            # walked sums (and ``wire_elmore_delay``'s add-then-subtract
            # downstream chain) operation-for-operation per lane.
            rows = np.nonzero(multi)[0]
            deep_starts = starts[rows]
            deep_ends = ends[rows]
            first_index = index[rows]
            last_bound = len(boundaries) - 1
            resistance_acc = np.zeros(len(rows))
            capacitance_acc = np.zeros(len(rows))
            downstream = np.zeros(len(rows))
            slot_res: List[np.ndarray] = []
            slot_cap: List[np.ndarray] = []
            slot_emit: List[np.ndarray] = []
            for k in range(last_bound + 1):
                bound = np.minimum(first_index + k, last_bound)
                piece_start = boundaries[bound] if k else deep_starts
                active = piece_start < deep_ends - 1e-15
                if not active.any():
                    break
                segment = np.minimum(first_index + k, last_segment)
                piece_end = np.minimum(
                    boundaries[np.minimum(bound + 1, last_bound)], deep_ends
                )
                length = piece_end - piece_start
                emit = active & (length > 1e-15)
                piece_resistance = res_per_meter[segment] * length
                piece_capacitance = cap_per_meter[segment] * length
                resistance_acc[emit] += piece_resistance[emit]
                capacitance_acc[emit] += piece_capacitance[emit]
                downstream[emit] += piece_capacitance[emit]
                slot_res.append(piece_resistance)
                slot_cap.append(piece_capacitance)
                slot_emit.append(emit)
            distributed_acc = np.zeros(len(rows))
            for piece_resistance, piece_capacitance, emit in zip(
                slot_res, slot_cap, slot_emit
            ):
                downstream[emit] -= piece_capacitance[emit]
                distributed_acc[emit] += (
                    piece_resistance * (0.5 * piece_capacitance + downstream)
                )[emit]
            wire_resistance[rows] = resistance_acc
            wire_capacitance[rows] = capacitance_acc
            wire_distributed[rows] = distributed_acc
    return wire_resistance, wire_capacitance, wire_distributed


class CompiledElmoreEvaluator:
    """Per-stage Elmore coefficients of one ``(net, positions)`` pair.

    The evaluator is immutable after construction and safe to share between
    any number of evaluations; only the repeater *widths* vary per call.
    Invalid positions raise :class:`~repro.utils.validation.ValidationError`
    at construction — exactly the errors the walked path raises per call —
    so per-evaluation validation reduces to the widths.
    """

    __slots__ = (
        "_net",
        "_technology",
        "_positions",
        "_num_repeaters",
        "_unit_resistance",
        "_unit_capacitance",
        "_intrinsic",
        "_driver_width",
        "_receiver_width",
        "_wire_capacitance",
        "_wire_resistance",
        "_wire_distributed",
        "_stage_resistance",
        "_stage_capacitance",
        "_wire_capacitance_list",
        "_wire_resistance_list",
        "_wire_distributed_list",
    )

    def __init__(
        self,
        net: TwoPinNet,
        technology: Technology,
        positions: Sequence[float],
    ) -> None:
        from repro.delay.elmore import _check_positions  # single source of truth

        positions = [float(position) for position in positions]
        _check_positions(net, positions)
        self._net = net
        self._technology = technology
        self._positions = tuple(positions)
        self._num_repeaters = len(positions)

        repeater = technology.repeater
        self._unit_resistance = repeater.unit_resistance
        self._unit_capacitance = repeater.unit_input_capacitance
        self._intrinsic = repeater.intrinsic_delay
        self._driver_width = net.driver_width
        self._receiver_width = net.receiver_width

        cut_points = [0.0, *positions, net.total_length]
        wire_resistance, wire_capacitance, wire_distributed = _stage_wire_sums(
            net, cut_points
        )
        self._wire_capacitance = wire_capacitance
        self._wire_resistance = wire_resistance
        self._wire_distributed = wire_distributed
        # Native-float copies for the scalar fast path of ``net_delay`` —
        # Python float arithmetic is the same IEEE double arithmetic as the
        # elementwise numpy expressions.
        self._wire_capacitance_list = wire_capacitance.tolist()
        self._wire_resistance_list = wire_resistance.tolist()
        self._wire_distributed_list = wire_distributed.tolist()

        # The *lumped* stage RC of the analytical layer
        # (``analytical.derivatives.stage_lumped_rc``) aggregates the same
        # intervals through the net's prefix integrals, whose floats differ
        # from the piece sums above in the last ulp — so both flavours are
        # compiled, each bit-identical to its own oracle.
        res_interp, cap_interp = net.rc_prefix_at(cut_points)
        self._stage_resistance = np.diff(res_interp)
        self._stage_capacitance = np.diff(cap_interp)

    # ------------------------------------------------------------------ #
    @property
    def net(self) -> TwoPinNet:
        """The net the evaluator was compiled for."""
        return self._net

    @property
    def technology(self) -> Technology:
        """The technology whose constants the evaluator bakes in."""
        return self._technology

    @property
    def positions(self) -> tuple:
        """The (validated) repeater positions, ascending."""
        return self._positions

    @property
    def num_repeaters(self) -> int:
        """Number of repeaters; evaluations take exactly this many widths."""
        return self._num_repeaters

    @property
    def num_stages(self) -> int:
        """Number of stages (``num_repeaters + 1``)."""
        return self._num_repeaters + 1

    # ------------------------------------------------------------------ #
    def _check_widths(self, widths: np.ndarray) -> None:
        if widths.ndim != 1 or widths.shape[0] != self._num_repeaters:
            count = int(widths.size) if widths.ndim == 1 else -1
            raise ValidationError(
                f"positions ({self._num_repeaters}) and widths ({count}) "
                "must have the same length"
            )
        if self._num_repeaters:
            if not np.isfinite(widths).all():
                raise ValidationError("repeater width must be finite")
            if not (widths > 0.0).all():
                raise ValidationError("repeater width must be > 0")

    def _stage_delay_vector(self, widths: Sequence[float]) -> np.ndarray:
        widths = np.asarray(widths, dtype=float)
        self._check_widths(widths)
        n = self._num_repeaters
        driver_widths = np.empty(n + 1)
        driver_widths[0] = self._driver_width
        driver_widths[1:] = widths
        load_widths = np.empty(n + 1)
        load_widths[:n] = widths
        load_widths[n] = self._receiver_width
        load_capacitance = self._unit_capacitance * load_widths
        # Term order and grouping replay Eq. (1) exactly as the walked
        # ``stage_delay_breakdown`` computes it — left-to-right
        # ``intrinsic + drive + wire_to_load + wire_distributed``.
        return (
            self._intrinsic
            + (self._unit_resistance / driver_widths)
            * (self._wire_capacitance + load_capacitance)
            + self._wire_resistance * load_capacitance
            + self._wire_distributed
        )

    def stage_delays(self, widths: Sequence[float]) -> List[float]:
        """Per-stage Elmore delays; bit-for-bit the walked ``stage_delays``."""
        return self._stage_delay_vector(widths).tolist()

    def net_delay(self, widths: Sequence[float]) -> float:
        """Total Elmore delay; bit-for-bit the walked ``buffered_net_delay``.

        The per-stage delays are summed left-to-right over Python floats —
        the same association as ``sum(stage_delays(...))`` — so the total
        carries no re-association drift either.  Small nets (the common
        case — a handful of repeaters) take a pure native-float path over
        the hoisted per-stage coefficient lists: elementwise Python float
        arithmetic is the identical IEEE double arithmetic of the numpy
        expression in :meth:`_stage_delay_vector`, with the exact same
        term grouping, so both paths return the same bits.
        """
        n = self._num_repeaters
        if n <= 32:
            values = None
            try:
                values = [float(width) for width in widths]
            except (TypeError, ValueError):
                pass  # odd input shapes: defer to the array path's checks
            if values is not None and len(values) == n:
                for value in values:
                    if not math.isfinite(value):
                        raise ValidationError("repeater width must be finite")
                for value in values:
                    if not value > 0.0:
                        raise ValidationError("repeater width must be > 0")
                unit_resistance = self._unit_resistance
                unit_capacitance = self._unit_capacitance
                intrinsic = self._intrinsic
                wire_capacitance = self._wire_capacitance_list
                wire_resistance = self._wire_resistance_list
                wire_distributed = self._wire_distributed_list
                driver_width = self._driver_width
                total = 0.0
                for stage in range(n + 1):
                    load_capacitance = unit_capacitance * (
                        values[stage] if stage < n else self._receiver_width
                    )
                    total += (
                        intrinsic
                        + (unit_resistance / driver_width)
                        * (wire_capacitance[stage] + load_capacitance)
                        + wire_resistance[stage] * load_capacitance
                        + wire_distributed[stage]
                    )
                    if stage < n:
                        driver_width = values[stage]
                return total
        return float(sum(self._stage_delay_vector(widths).tolist()))

    # ------------------------------------------------------------------ #
    # analytical-layer coefficients (KKT width solver support)
    # ------------------------------------------------------------------ #
    def stage_lumped_rc(self) -> tuple:
        """Per-stage lumped wire ``(R_i, C_i)`` arrays of the KKT system.

        Bit-for-bit equal to
        :func:`repro.analytical.derivatives.stage_lumped_rc` at these
        positions (prefix-integral arithmetic, not the Eq. (1) piece sums).
        Returns copies; callers may mutate freely.
        """
        return self._stage_resistance.copy(), self._stage_capacitance.copy()

    def delay_width_gradient(self, widths: Sequence[float]) -> np.ndarray:
        """``d tau_total / d w_i`` for every repeater (Eq. 8).

        Bit-for-bit equal to
        :func:`repro.analytical.derivatives.delay_width_gradient`: the same
        lumped stage RC and the same elementwise expression grouping
        ``Co * (R_{i-1} + Rs / w_{i-1}) - Rs * (C_i + Co * w_{i+1}) / w_i^2``.
        """
        widths = np.asarray(widths, dtype=float)
        n = self._num_repeaters
        if widths.ndim != 1 or widths.shape[0] != n:
            raise ValidationError(
                "positions and widths must have the same length"
            )
        if n == 0:
            return np.empty(0)
        upstream = np.empty(n)
        upstream[0] = self._driver_width
        upstream[1:] = widths[:-1]
        downstream = np.empty(n)
        downstream[: n - 1] = widths[1:]
        downstream[n - 1] = self._receiver_width
        return self._unit_capacitance * (
            self._stage_resistance[:-1] + self._unit_resistance / upstream
        ) - self._unit_resistance * (
            self._stage_capacitance[1:] + self._unit_capacitance * downstream
        ) / (widths * widths)
