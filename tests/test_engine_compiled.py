"""Tests for :class:`repro.engine.compiled.CompiledNet`.

The compiled traversal must be *bit-for-bit* identical to the legacy
``traverse_wire`` loop — the DP golden tests rely on it — and the affine
fast path must agree to floating-point re-association accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dp.candidates import merge_candidates, uniform_candidates
from repro.dp.powerdp import traverse_wire
from repro.engine.compiled import CompiledNet
from repro.utils.units import from_microns

from tests.conftest import build_mixed_net, build_uniform_net


@pytest.fixture(params=["uniform", "mixed", "zoned"])
def any_net(request, tech, zoned_net):
    if request.param == "uniform":
        return build_uniform_net(tech)
    if request.param == "mixed":
        return build_mixed_net(tech)
    return zoned_net


def test_positions_are_legalised_and_merged(zoned_net):
    raw = [
        -1.0,  # outside
        0.0,  # driver
        from_microns(1000.0),
        from_microns(1000.0) + 1e-10,  # near-duplicate, merged
        zoned_net.forbidden_zones[0].center,  # illegal
        from_microns(7000.0),
        zoned_net.total_length,  # receiver
    ]
    compiled = CompiledNet(zoned_net, raw)
    expected = merge_candidates(p for p in raw if zoned_net.is_legal_position(p))
    assert list(compiled.positions) == expected
    assert compiled.num_levels == len(expected)
    assert len(compiled.intervals) == len(expected) + 1


def test_intervals_cover_the_net(any_net):
    compiled = CompiledNet(any_net, uniform_candidates(any_net, from_microns(200.0)))
    # Walk order: receiver-side interval first, driver last.
    assert compiled.intervals[0].downstream == pytest.approx(any_net.total_length)
    assert compiled.intervals[-1].upstream == 0.0
    for before, after in zip(compiled.intervals, compiled.intervals[1:]):
        assert before.upstream == pytest.approx(after.downstream)
    total_r = sum(interval.piece_resistance.sum() for interval in compiled.intervals)
    total_c = sum(interval.piece_capacitance.sum() for interval in compiled.intervals)
    assert total_r == pytest.approx(any_net.total_resistance)
    assert total_c == pytest.approx(any_net.total_capacitance)


def test_traverse_bitwise_matches_traverse_wire(any_net):
    compiled = CompiledNet(any_net, uniform_candidates(any_net, from_microns(200.0)))
    rng = np.random.default_rng(7)
    caps = rng.uniform(1e-14, 5e-13, size=32)
    delays = rng.uniform(0.0, 1e-9, size=32)
    legacy_caps, legacy_delays = caps, delays
    compiled_caps, compiled_delays = caps, delays
    previous = any_net.total_length
    for level, position in enumerate([*reversed(compiled.positions), 0.0]):
        legacy_caps, legacy_delays = traverse_wire(
            any_net, position, previous, legacy_caps, legacy_delays
        )
        compiled_caps, compiled_delays = compiled.traverse(
            level, compiled_caps, compiled_delays
        )
        assert np.array_equal(legacy_caps, compiled_caps), f"caps diverge at level {level}"
        assert np.array_equal(legacy_delays, compiled_delays), f"delays diverge at level {level}"
        previous = position


def test_traverse_does_not_mutate_inputs(any_net):
    compiled = CompiledNet(any_net, uniform_candidates(any_net, from_microns(200.0)))
    caps = np.array([1e-13])
    delays = np.array([0.0])
    compiled.traverse(0, caps, delays)
    assert caps[0] == 1e-13
    assert delays[0] == 0.0


def test_no_candidates_single_interval(any_net):
    compiled = CompiledNet(any_net, [])
    assert compiled.num_levels == 0
    assert len(compiled.intervals) == 1
    caps, delays = compiled.traverse(0, np.array([1e-13]), np.array([0.0]))
    legacy_caps, legacy_delays = traverse_wire(
        any_net, 0.0, any_net.total_length, np.array([1e-13]), np.array([0.0])
    )
    assert np.array_equal(caps, legacy_caps)
    assert np.array_equal(delays, legacy_delays)
