"""Tests for candidate-location generation and DP dominance pruning."""

import numpy as np
import pytest

from repro.dp.candidates import merge_candidates, uniform_candidates, window_candidates
from repro.dp.pruning import PruningConfig, prune_states
from repro.engine import kernels
from repro.utils.units import from_microns
from repro.utils.validation import ValidationError


def test_uniform_candidates_pitch_and_bounds(mixed_net):
    pitch = from_microns(200.0)
    candidates = uniform_candidates(mixed_net, pitch)
    assert candidates[0] == pytest.approx(pitch)
    assert candidates[-1] < mixed_net.total_length
    diffs = np.diff(candidates)
    assert np.allclose(diffs, pitch)


def test_uniform_candidates_skip_zones(zoned_net):
    zone = zoned_net.forbidden_zones[0]
    candidates = uniform_candidates(zoned_net, from_microns(200.0))
    assert all(not zone.contains(c) for c in candidates)


def test_window_candidates_centered_and_legal(zoned_net):
    centers = [0.25 * zoned_net.total_length]
    candidates = window_candidates(zoned_net, centers, window=5, pitch=from_microns(50.0))
    assert len(candidates) <= 11
    assert all(zoned_net.is_legal_position(c) for c in candidates)
    assert any(abs(c - centers[0]) < 1e-12 for c in candidates)


def test_window_candidates_merge_overlapping_windows(mixed_net):
    centers = [1e-3, 1e-3 + from_microns(50.0)]
    candidates = window_candidates(mixed_net, centers, window=2, pitch=from_microns(50.0))
    assert len(candidates) == len(set(round(c, 12) for c in candidates))
    assert candidates == sorted(candidates)


def test_window_candidates_exclude_centers_option(mixed_net):
    center = 2e-3
    candidates = window_candidates(
        mixed_net, [center], window=1, pitch=from_microns(50.0), include_centers=False
    )
    assert all(abs(c - center) > 1e-12 for c in candidates)


def test_window_candidates_clipped_by_forbidden_zone(zoned_net):
    # A center just downstream of the zone: the window reaches back into the
    # zone and every in-zone position must be clipped, keeping the rest.
    zone = zoned_net.forbidden_zones[0]
    pitch = from_microns(50.0)
    center = zone.end + 2 * pitch
    candidates = window_candidates(zoned_net, [center], window=10, pitch=pitch)
    assert candidates  # the downstream half of the window survives
    assert all(not zone.contains(c) for c in candidates)
    assert all(zoned_net.is_legal_position(c) for c in candidates)
    # Positions the zone would have claimed are really gone.
    assert min(candidates) >= zone.end


def test_window_candidates_duplicate_centers_merge_without_duplicates(mixed_net):
    pitch = from_microns(50.0)
    # Identical and fully-overlapping centers: the union must contain each
    # grid position exactly once and stay sorted.
    centers = [2e-3, 2e-3, 2e-3 + pitch]
    candidates = window_candidates(mixed_net, centers, window=3, pitch=pitch)
    assert candidates == sorted(candidates)
    assert all(b - a > 1e-12 for a, b in zip(candidates, candidates[1:]))
    single = window_candidates(mixed_net, [2e-3], window=3, pitch=pitch)
    assert set(round(c, 12) for c in single) <= set(round(c, 12) for c in candidates)


def test_window_candidates_collapse_to_zero_legal_positions(tech):
    from repro.net.zones import ForbiddenZone
    from tests.conftest import build_mixed_net

    # Zone [3.5mm, 6mm]; a window centered mid-zone with total reach
    # 2 * 2 * 50um = 200um cannot escape it: no legal position remains.
    net = build_mixed_net(
        tech, zones=(ForbiddenZone(from_microns(3500.0), from_microns(6000.0)),)
    )
    candidates = window_candidates(
        net, [from_microns(4750.0)], window=2, pitch=from_microns(50.0)
    )
    assert candidates == []


def test_merge_candidates_dedups_within_tolerance():
    merged = merge_candidates([1.0, 1.0 + 1e-12, 2.0], tolerance=1e-9)
    assert merged == [1.0, 2.0]


def test_uniform_candidates_rejects_bad_pitch(mixed_net):
    with pytest.raises(ValidationError):
        uniform_candidates(mixed_net, 0.0)


# --------------------------------------------------------------------------- #
# pruning
# --------------------------------------------------------------------------- #
def _as_arrays(points):
    caps = np.array([p[0] for p in points])
    delays = np.array([p[1] for p in points])
    widths = np.array([p[2] for p in points])
    return caps, delays, widths


def test_prune_states_removes_dominated():
    points = [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (0.5, 3.0, 0.5)]
    caps, delays, widths = _as_arrays(points)
    kept = prune_states(caps, delays, widths, PruningConfig())
    kept_points = {tuple(points[i]) for i in kept}
    assert (2.0, 2.0, 2.0) not in kept_points
    assert (1.0, 1.0, 1.0) in kept_points
    assert (0.5, 3.0, 0.5) in kept_points


def test_prune_states_full_not_weaker_than_bucket():
    """The full rule keeps a subset of its first (per-bucket) stage."""
    rng = np.random.default_rng(0)
    caps = rng.uniform(1e-15, 1e-12, 300)
    delays = rng.uniform(1e-12, 1e-9, 300)
    widths = rng.choice([10.0, 20.0, 30.0, 40.0], 300).astype(float)
    config = PruningConfig()
    full = prune_states(caps, delays, widths, config)
    bucket = kernels.bucket_prune(
        caps,
        delays,
        widths,
        delay_tolerance=config.delay_tolerance,
        width_tolerance=config.width_tolerance,
    )
    assert len(full) < len(bucket)
    # every full survivor must also survive bucket pruning
    assert set(full.tolist()) <= set(bucket.tolist())


def test_prune_states_never_removes_unique_minima():
    rng = np.random.default_rng(1)
    caps = rng.uniform(1e-15, 1e-12, 200)
    delays = rng.uniform(1e-12, 1e-9, 200)
    widths = rng.uniform(10.0, 400.0, 200)
    kept = set(prune_states(caps, delays, widths, PruningConfig()).tolist())
    assert int(np.argmin(delays)) in kept
    assert int(np.argmin(widths)) in kept or any(
        widths[k] <= widths[int(np.argmin(widths))] + 1e-9 for k in kept
    )


def test_prune_states_empty_input():
    empty = np.empty(0)
    assert len(prune_states(empty, empty, empty, PruningConfig())) == 0


def test_prune_states_identical_states_collapse():
    caps = np.array([1.0, 1.0, 1.0])
    delays = np.array([2.0, 2.0, 2.0])
    widths = np.array([3.0, 3.0, 3.0])
    assert len(prune_states(caps, delays, widths, PruningConfig())) == 1


def test_pruning_config_rejects_negative_tolerances():
    with pytest.raises(ValidationError):
        PruningConfig(delay_tolerance=-1e-15)
    with pytest.raises(ValidationError):
        PruningConfig(width_tolerance=-1.0)


def test_prune_two_dimensional_is_pareto():
    caps = np.array([1.0, 2.0, 3.0, 1.5])
    delays = np.array([4.0, 3.0, 1.0, 5.0])
    kept = kernels.pareto_two_dimensional(caps, delays, delay_tolerance=1e-14)
    kept_set = {(caps[i], delays[i]) for i in kept}
    assert (1.5, 5.0) not in kept_set  # dominated by (1.0, 4.0)
    assert (1.0, 4.0) in kept_set
    assert (3.0, 1.0) in kept_set
