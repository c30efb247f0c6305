"""Compiled per-interval wire representation for the DP engines.

Both DP engines walk a net from the receiver towards the driver, crossing
the wire interval between consecutive candidate locations at every level.
The original ``traverse_wire`` re-derived the interval's uniform-RC pieces
with :meth:`repro.net.twopin.TwoPinNet.pieces_between` — a Python
while-loop, list construction and tuple unpacking *per DP level per run*.

:class:`CompiledNet` hoists all of that out of the hot loop: it legalises
and merges the candidate positions once, splits the net into the
``len(positions) + 1`` walk intervals, and precomputes for each interval the
piece resistance/half-capacitance/capacitance arrays (in walk order,
receiver side first), so crossing an interval is one numpy broadcast
expression per piece — and almost every interval is a single piece, because
candidate pitches (50–200 µm) are much finer than segment lengths
(1000–2500 µm).

The per-piece path reproduces the original ``traverse_wire`` arithmetic
operation-for-operation, so DP results are bit-for-bit identical to the
legacy loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.net.twopin import TwoPinNet
from repro.utils.positions import merge_positions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.tree.rctree import RoutingTree, TreeEdge

__all__ = ["CompiledNet", "CompiledTree", "CompiledTreeEdge", "WireInterval"]


@dataclass(frozen=True)
class WireInterval:
    """One precompiled wire interval between consecutive DP levels.

    Attributes
    ----------
    upstream / downstream:
        Interval bounds in meters from the driver (``upstream < downstream``).
    piece_resistance / piece_capacitance:
        Per-piece totals (ohms / farads) in walk order, i.e. the piece
        adjacent to ``downstream`` first.
    piece_half_capacitance:
        ``0.5 * piece_capacitance``, precomputed for the Elmore midpoint term.
    """

    upstream: float
    downstream: float
    piece_resistance: np.ndarray
    piece_capacitance: np.ndarray
    piece_half_capacitance: np.ndarray


class CompiledNet:
    """A net compiled against a fixed set of candidate locations."""

    def __init__(self, net: TwoPinNet, candidate_positions: Sequence[float]) -> None:
        self._net = net
        positions = merge_positions(
            position for position in candidate_positions if net.is_legal_position(position)
        )
        self._positions: Tuple[float, ...] = tuple(positions)
        self._intervals: Tuple[WireInterval, ...] = tuple(self._compile(net, positions))

    @staticmethod
    def _compile(net: TwoPinNet, positions: List[float]) -> List[WireInterval]:
        bounds = [0.0, *positions, net.total_length]
        # Candidate pitches are much finer than segment lengths, so almost
        # every interval is one piece; those are precomputed as whole-vector
        # expressions reproducing the per-interval walk bit for bit (same
        # segment lookup and ``end - start`` length), with the legacy
        # per-interval path as the fallback for boundary-crossing intervals.
        starts = np.asarray(bounds[:-1], dtype=float)
        ends = np.asarray(bounds[1:], dtype=float)
        boundaries = net.segment_boundaries
        res_per_meter = net.segment_resistance_per_meter
        cap_per_meter = net.segment_capacitance_per_meter
        index = np.searchsorted(boundaries, starts, side="right") - 1
        np.clip(index, 0, len(res_per_meter) - 1, out=index)
        lengths = ends - starts
        entered = starts < (ends - 1e-15)
        single = entered & (boundaries[index + 1] >= ends) & (lengths > 1e-15)
        piece_res = res_per_meter[index] * lengths
        piece_cap = cap_per_meter[index] * lengths

        intervals: List[WireInterval] = []
        # Walk order: from the receiver-side interval towards the driver.
        for k in range(len(bounds) - 2, -1, -1):
            upstream = bounds[k]
            downstream = bounds[k + 1]
            if single[k]:
                piece_resistance = piece_res[k : k + 1].copy()
                piece_capacitance = piece_cap[k : k + 1].copy()
                intervals.append(
                    WireInterval(
                        upstream=upstream,
                        downstream=downstream,
                        piece_resistance=piece_resistance,
                        piece_capacitance=piece_capacitance,
                        piece_half_capacitance=0.5 * piece_capacitance,
                    )
                )
                continue
            pieces = net.pieces_between(upstream, downstream)
            # Traversal order is downstream piece first (reversed pieces).
            piece_resistance = np.array(
                [resistance * length for resistance, _, length in reversed(pieces)]
            )
            piece_capacitance = np.array(
                [capacitance * length for _, capacitance, length in reversed(pieces)]
            )
            intervals.append(
                WireInterval(
                    upstream=upstream,
                    downstream=downstream,
                    piece_resistance=piece_resistance,
                    piece_capacitance=piece_capacitance,
                    piece_half_capacitance=0.5 * piece_capacitance,
                )
            )
        return intervals

    # ------------------------------------------------------------------ #
    @property
    def net(self) -> TwoPinNet:
        """The underlying net."""
        return self._net

    @property
    def positions(self) -> Tuple[float, ...]:
        """Legal, merged candidate positions in ascending order."""
        return self._positions

    @property
    def num_levels(self) -> int:
        """Number of DP levels (= number of candidate positions)."""
        return len(self._positions)

    @property
    def intervals(self) -> Tuple[WireInterval, ...]:
        """The ``num_levels + 1`` wire intervals in walk order.

        ``intervals[k]`` for ``k < num_levels`` ends at candidate position
        ``positions[num_levels - 1 - k]``; the last interval reaches the
        driver at position 0.
        """
        return self._intervals

    def traverse(
        self, level: int, caps: np.ndarray, delays: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Move DP states upstream across walk interval ``level``.

        Returns updated copies of ``(caps, delays)``; the arithmetic is
        bit-for-bit identical to the legacy per-piece ``traverse_wire``.
        """
        interval = self._intervals[level]
        if len(interval.piece_resistance) == 0:
            return caps, delays
        caps = caps.copy()
        delays = delays.copy()
        for piece in range(len(interval.piece_resistance)):
            delays += interval.piece_resistance[piece] * (
                interval.piece_half_capacitance[piece] + caps
            )
            caps += interval.piece_capacitance[piece]
        return caps, delays


# --------------------------------------------------------------------------- #
# compiled routing trees (multi-sink nets)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompiledTreeEdge:
    """One tree edge compiled against the DP's per-edge candidate sites.

    Tree edges are measured from their *child* end (the tree DP walks every
    edge bottom-up, child towards parent), so the interval bounds here are
    child-relative distances: ``intervals[k]`` for ``k < len(sites)`` ends at
    ``sites[k]`` and the last interval reaches the parent end of the edge.
    Each interval is a single uniform-RC piece whose arrays reproduce the
    reference ``TreePowerDp._walk_wire`` arithmetic bit for bit (same
    ``site - walked`` length, ``r_per_m * length`` / ``c_per_m * length``
    totals and ``0.5 * capacitance`` midpoint term).
    """

    parent: str
    child: str
    length: float
    sites: Tuple[float, ...]
    intervals: Tuple[WireInterval, ...]


def _compile_tree_edge(edge: "TreeEdge", site_pitch: float) -> CompiledTreeEdge:
    """Compile one tree edge: site schedule plus per-gap wire intervals.

    The site positions replicate the reference DP's accumulated-pitch loop
    float for float (``position += site_pitch`` from ``site_pitch``), and
    every gap length is the reference's ``site - walked`` / ``length -
    walked`` subtraction of those accumulated values.
    """
    sites: List[float] = []
    position = site_pitch
    while position < edge.length - 1e-12:
        sites.append(position)
        position += site_pitch

    intervals: List[WireInterval] = []
    walked = 0.0
    for bound in [*sites, edge.length]:
        length = bound - walked
        if length <= 0.0:
            # Degenerate gap: the reference walk is a no-op for it.
            empty = np.empty(0)
            intervals.append(
                WireInterval(
                    upstream=walked,
                    downstream=bound,
                    piece_resistance=empty,
                    piece_capacitance=empty,
                    piece_half_capacitance=empty,
                )
            )
            walked = bound
            continue
        resistance = edge.resistance_per_meter * length
        capacitance = edge.capacitance_per_meter * length
        piece_resistance = np.array([resistance])
        piece_capacitance = np.array([capacitance])
        intervals.append(
            WireInterval(
                upstream=walked,
                downstream=bound,
                piece_resistance=piece_resistance,
                piece_capacitance=piece_capacitance,
                piece_half_capacitance=0.5 * piece_capacitance,
            )
        )
        walked = bound
    return CompiledTreeEdge(
        parent=edge.parent,
        child=edge.child,
        length=edge.length,
        sites=tuple(sites),
        intervals=tuple(intervals),
    )


class CompiledTree:
    """A routing tree compiled against a fixed repeater-site pitch.

    The tree analogue of :class:`CompiledNet`: every edge's candidate-site
    schedule and inter-site wire intervals are derived once, so the fused
    tree DP core replays each edge as the same piece walk the two-pin path
    uses — no per-run site or RC re-derivation.
    """

    def __init__(self, tree: "RoutingTree", site_pitch: float) -> None:
        self._tree = tree
        self._site_pitch = float(site_pitch)
        self._edges: Dict[str, CompiledTreeEdge] = {
            edge.child: _compile_tree_edge(edge, self._site_pitch)
            for edge in tree.edges
        }

    @property
    def tree(self) -> "RoutingTree":
        """The underlying routing tree."""
        return self._tree

    @property
    def site_pitch(self) -> float:
        """Repeater-site pitch the edges were compiled for, meters."""
        return self._site_pitch

    @property
    def edges(self) -> Dict[str, CompiledTreeEdge]:
        """Compiled edges keyed by child node."""
        return self._edges

    def edge(self, child: str) -> CompiledTreeEdge:
        """The compiled edge whose downstream endpoint is ``child``."""
        return self._edges[child]

    @property
    def num_sites(self) -> int:
        """Total candidate repeater sites over all edges."""
        return sum(len(edge.sites) for edge in self._edges.values())
