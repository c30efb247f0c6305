"""The multi-layer two-pin interconnect of the paper's Problem LPRI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.segment import WireSegment
from repro.net.zones import ForbiddenZone, validate_zones
from repro.utils.validation import require, require_non_negative, require_positive


@dataclass(frozen=True)
class TwoPinNet:
    """A routed two-pin net: driver, chain of wire segments, receiver.

    Positions along the net are measured in meters from the driver output
    (position ``0.0``) to the receiver input (position ``total_length``).

    Attributes
    ----------
    segments:
        The wire segments in routing order (driver side first).
    driver_width:
        Width of the net's driver in units of the minimal repeater width
        (the paper's ``wd``; it is treated exactly like a repeater of fixed
        width and position 0).
    receiver_width:
        Width of the receiver (the paper's ``wr``), which only contributes
        its input capacitance ``Co * wr`` as the final load.
    forbidden_zones:
        Intervals in which no repeater may be placed.
    name:
        Optional identifier used in reports.
    """

    segments: Tuple[WireSegment, ...]
    driver_width: float
    receiver_width: float
    forbidden_zones: Tuple[ForbiddenZone, ...] = ()
    name: str = "net"

    def __post_init__(self) -> None:
        require(len(self.segments) > 0, "a net needs at least one wire segment")
        require_positive(self.driver_width, "driver_width")
        require_positive(self.receiver_width, "receiver_width")
        segments = tuple(self.segments)
        zones = tuple(sorted(self.forbidden_zones, key=lambda z: z.start))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "forbidden_zones", zones)

        boundaries = np.concatenate(([0.0], np.cumsum([s.length for s in segments])))
        res_prefix = np.concatenate(([0.0], np.cumsum([s.resistance for s in segments])))
        cap_prefix = np.concatenate(([0.0], np.cumsum([s.capacitance for s in segments])))
        object.__setattr__(self, "_boundaries", boundaries)
        object.__setattr__(self, "_res_prefix", res_prefix)
        object.__setattr__(self, "_cap_prefix", cap_prefix)
        object.__setattr__(
            self,
            "_res_per_meter",
            np.array([s.resistance_per_meter for s in segments]),
        )
        object.__setattr__(
            self,
            "_cap_per_meter",
            np.array([s.capacitance_per_meter for s in segments]),
        )

        validate_zones(zones, float(boundaries[-1]))

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #
    @property
    def num_segments(self) -> int:
        """Number of wire segments (the paper's ``m``)."""
        return len(self.segments)

    @property
    def total_length(self) -> float:
        """Total routed length of the net in meters."""
        return float(self._boundaries[-1])

    @property
    def boundaries(self) -> np.ndarray:
        """Positions of the segment boundaries, including 0 and the length."""
        return self._boundaries.copy()

    @property
    def segment_boundaries(self) -> np.ndarray:
        """Segment boundaries as a shared read-only-by-convention array.

        Same values as :attr:`boundaries` without the defensive copy — for
        hot compilation paths; callers must not mutate it.
        """
        return self._boundaries

    @property
    def segment_resistance_per_meter(self) -> np.ndarray:
        """Per-segment wire resistance per meter (shared array, do not mutate)."""
        return self._res_per_meter

    @property
    def segment_capacitance_per_meter(self) -> np.ndarray:
        """Per-segment wire capacitance per meter (shared array, do not mutate)."""
        return self._cap_per_meter

    @property
    def total_resistance(self) -> float:
        """Total wire resistance of the net in ohms."""
        return float(self._res_prefix[-1])

    @property
    def total_capacitance(self) -> float:
        """Total wire capacitance of the net in farads."""
        return float(self._cap_prefix[-1])

    def _check_position(self, position: float, name: str = "position") -> float:
        require_non_negative(position, name)
        require(
            position <= self.total_length + 1e-12,
            f"{name} {position} is beyond the net length {self.total_length}",
        )
        return min(position, self.total_length)

    def segment_index_at(self, position: float, *, downstream: bool = True) -> int:
        """Index of the segment adjacent to ``position``.

        At a segment boundary the ``downstream`` flag selects which neighbour
        is returned: the segment *after* the boundary (towards the receiver)
        when true, the one *before* it otherwise.
        """
        position = self._check_position(position)
        side = "right" if downstream else "left"
        index = int(np.searchsorted(self._boundaries, position, side=side)) - 1
        return min(max(index, 0), self.num_segments - 1)

    def unit_rc_at(self, position: float, *, downstream: bool = True) -> Tuple[float, float]:
        """Per-meter ``(resistance, capacitance)`` of the wire at ``position``.

        These are the paper's ``(r_i1, c_i1)`` (downstream side) and
        ``(r_(i-1)k, c_(i-1)k)`` (upstream side) used in the location
        derivatives of Eq. (17)/(18).
        """
        segment = self.segments[self.segment_index_at(position, downstream=downstream)]
        return segment.resistance_per_meter, segment.capacitance_per_meter

    def _check_positions_bulk(self, positions: np.ndarray) -> None:
        """Validate many positions: vectorized accept, scalar-exact reject.

        The fast path is two whole-array comparisons; only when one fails
        (or a NaN makes the bulk check inconclusive) does the scalar
        :meth:`_check_position` loop re-run to raise the exact per-position
        error of the scalar path.
        """
        if positions.size and not (
            bool(np.all(positions >= 0.0))
            and bool(np.all(positions <= self.total_length + 1e-12))
        ):
            for position in positions.ravel():
                self._check_position(float(position))

    def unit_rc_at_batch(
        self, positions: Sequence[float], *, downstream: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`unit_rc_at` over several positions.

        Returns per-meter ``(resistance, capacitance)`` arrays whose
        elements are **bit-for-bit** the scalar lookups: the same
        ``searchsorted`` side selection and index clamping of
        :meth:`segment_index_at`, evaluated elementwise.  This is the
        batched position lookup the vectorized location derivatives of
        :mod:`repro.analytical.derivatives` are built on (analogous to
        :meth:`rc_prefix_at` for the prefix integrals).
        """
        positions = np.asarray(positions, dtype=float)
        self._check_positions_bulk(positions)
        clamped = np.minimum(positions, self.total_length)
        side = "right" if downstream else "left"
        index = np.searchsorted(self._boundaries, clamped, side=side) - 1
        index = np.clip(index, 0, self.num_segments - 1)
        return self._res_per_meter[index], self._cap_per_meter[index]

    # ------------------------------------------------------------------ #
    # RC integrals
    # ------------------------------------------------------------------ #
    def _prefix_interp(self, prefix: np.ndarray, position: float) -> float:
        position = self._check_position(position)
        index = self.segment_index_at(position, downstream=False)
        start = self._boundaries[index]
        segment = self.segments[index]
        if prefix is self._res_prefix:
            per_meter = segment.resistance_per_meter
        else:
            per_meter = segment.capacitance_per_meter
        return float(prefix[index] + (position - start) * per_meter)

    def rc_prefix_at(self, positions: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized wire R/C prefix integrals at several positions.

        Returns ``(resistance, capacitance)`` arrays whose elements are
        **bit-for-bit** the scalar ``_prefix_interp`` results: the same
        upstream-side segment lookup and the same
        ``prefix[i] + (position - start) * per_meter`` arithmetic, just
        evaluated elementwise.  Differencing consecutive entries therefore
        reproduces :meth:`resistance_between` / :meth:`capacitance_between`
        over sorted cut points exactly — this is what the compiled Elmore
        evaluator aggregates its per-stage lumped RC from.
        """
        positions = np.asarray(positions, dtype=float)
        self._check_positions_bulk(positions)
        clamped = np.minimum(positions, self.total_length)
        index = np.searchsorted(self._boundaries, clamped, side="left") - 1
        index = np.clip(index, 0, self.num_segments - 1)
        offsets = clamped - self._boundaries[index]
        resistance = self._res_prefix[index] + offsets * self._res_per_meter[index]
        capacitance = self._cap_prefix[index] + offsets * self._cap_per_meter[index]
        return resistance, capacitance

    def resistance_between(self, start: float, end: float) -> float:
        """Total wire resistance (ohms) between two positions (order-free)."""
        low, high = sorted((start, end))
        return self._prefix_interp(self._res_prefix, high) - self._prefix_interp(
            self._res_prefix, low
        )

    def capacitance_between(self, start: float, end: float) -> float:
        """Total wire capacitance (farads) between two positions (order-free)."""
        low, high = sorted((start, end))
        return self._prefix_interp(self._cap_prefix, high) - self._prefix_interp(
            self._cap_prefix, low
        )

    def pieces_between(self, start: float, end: float) -> List[Tuple[float, float, float]]:
        """Uniform-RC wire pieces covering ``[start, end]``, in downstream order.

        Each piece is a ``(resistance_per_meter, capacitance_per_meter,
        length)`` triple.  Segment boundaries strictly inside the interval
        split it into pieces; this is the representation the Elmore evaluator
        and the DP wire walk both consume.
        """
        start = self._check_position(start, "start")
        end = self._check_position(end, "end")
        require(end >= start, "end must be >= start")
        if end == start:
            return []
        # Fast path: the whole interval lies inside one segment (candidate
        # pitches are much finer than segment lengths, so this is the
        # common case).  Reproduces the loop below exactly: same segment
        # lookup, same ``position < end - 1e-15`` entry comparison, same
        # ``end - start`` length arithmetic and 1e-15 guard.
        index = int(np.searchsorted(self._boundaries, start, side="right")) - 1
        index = min(max(index, 0), self.num_segments - 1)
        if float(self._boundaries[index + 1]) >= end:
            if start < end - 1e-15:
                length = end - start
                if length > 1e-15:
                    segment = self.segments[index]
                    return [
                        (
                            segment.resistance_per_meter,
                            segment.capacitance_per_meter,
                            length,
                        )
                    ]
            return []
        pieces: List[Tuple[float, float, float]] = []
        position = start
        while position < end - 1e-15:
            index = self.segment_index_at(position, downstream=True)
            segment = self.segments[index]
            segment_end = float(self._boundaries[index + 1])
            piece_end = min(segment_end, end)
            length = piece_end - position
            if length > 1e-15:
                pieces.append(
                    (segment.resistance_per_meter, segment.capacitance_per_meter, length)
                )
            if piece_end <= position:  # pragma: no cover - numerical safety net
                break
            position = piece_end
        return pieces

    # ------------------------------------------------------------------ #
    # forbidden zones / legal positions
    # ------------------------------------------------------------------ #
    def zone_containing(self, position: float) -> Optional[ForbiddenZone]:
        """Return the forbidden zone strictly containing ``position``, if any."""
        for zone in self.forbidden_zones:
            if zone.contains(position):
                return zone
        return None

    def is_legal_position(self, position: float) -> bool:
        """True if a repeater may be placed at ``position``.

        Legal positions lie strictly between the driver and the receiver and
        outside every forbidden zone (zone boundaries are legal).
        """
        if position <= 0.0 or position >= self.total_length:
            return False
        return self.zone_containing(position) is None

    def legalize(self, position: float, *, prefer_downstream: bool = True) -> float:
        """Snap ``position`` to the nearest legal position.

        Positions inside a forbidden zone move to the nearer zone edge;
        positions outside the net clamp to just inside the endpoints.
        """
        epsilon = min(1e-9, self.total_length * 1e-6)
        position = min(max(position, epsilon), self.total_length - epsilon)
        zone = self.zone_containing(position)
        if zone is not None:
            position = zone.clamp_outside(position, prefer_downstream=prefer_downstream)
            position = min(max(position, epsilon), self.total_length - epsilon)
        return position

    def legal_positions(self, spacing: float, *, offset: float = 0.0) -> List[float]:
        """Uniformly spaced legal repeater positions along the net.

        Positions are ``offset + k * spacing`` for ``k = 1, 2, ...`` up to
        the receiver; positions falling inside forbidden zones are dropped
        (not snapped), matching the paper's "uniformly distributed ...
        excluding the forbidden zone" candidate construction.

        Each position is generated as a single integer-step product (via
        ``np.arange``), not by repeated float addition — accumulation drifts
        by an ulp per step, which on long nets with fine pitches moved
        candidates off-grid and could flip the legality of positions near
        zone edges.
        """
        require_positive(spacing, "spacing")
        count = int(np.ceil((self.total_length - 1e-12 - offset) / spacing)) - 1
        if count < 1:
            return []
        grid = offset + spacing * np.arange(1, count + 1)
        # Guard against ceil landing exactly on (or past) the receiver.
        while count >= 1 and grid[count - 1] >= self.total_length - 1e-12:
            count -= 1
            grid = grid[:count]
        return [float(position) for position in grid if self.is_legal_position(position)]

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def with_zones(self, zones: Sequence[ForbiddenZone]) -> "TwoPinNet":
        """Return a copy of the net with a different set of forbidden zones."""
        return TwoPinNet(
            segments=self.segments,
            driver_width=self.driver_width,
            receiver_width=self.receiver_width,
            forbidden_zones=tuple(zones),
            name=self.name,
        )

    def describe(self) -> str:
        """One-line human-readable summary used by the CLI and reports."""
        zones = ", ".join(
            f"[{zone.start * 1e6:.0f}um, {zone.end * 1e6:.0f}um]" for zone in self.forbidden_zones
        )
        return (
            f"{self.name}: {self.num_segments} segments, "
            f"length {self.total_length * 1e6:.0f}um, "
            f"R {self.total_resistance:.1f} ohm, C {self.total_capacitance * 1e15:.1f} fF, "
            f"driver {self.driver_width:.0f}u, receiver {self.receiver_width:.0f}u"
            + (f", forbidden zones: {zones}" if zones else "")
        )
