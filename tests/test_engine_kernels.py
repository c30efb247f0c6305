"""Property tests: vectorized pruning kernels against independent truth.

At zero tolerance the vectorized kernels must reproduce the plain-Python
Pareto helpers of :mod:`repro.utils.pareto` *exactly*: dominance is
transitive there, so the kernels' "compare against all earlier states"
rule and the helpers' "compare against kept states" rule coincide.  The
helpers also back the reference tree DP and the sanitizer's tree replay.
At the default tolerances the quality property (every input state is
dominated-within-tolerance by a survivor) must hold regardless.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dp.pruning import PruningConfig, prune_states
from repro.engine import kernels
from repro.utils.pareto import prune_pareto_2d, prune_pareto_3d


def _random_states(rng, count, buckets=6):
    caps = rng.uniform(1e-14, 5e-13, size=count)
    delays = rng.uniform(1e-10, 2e-9, size=count)
    widths = 10.0 * rng.integers(0, buckets, size=count).astype(float)
    return caps, delays, widths


# --------------------------------------------------------------------------- #
# segmented scan primitive
# --------------------------------------------------------------------------- #
def test_segmented_exclusive_min_matches_naive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        values = rng.uniform(0.0, 1.0, size=n)
        # Random contiguous groups.
        starts = np.zeros(n, dtype=np.int64)
        current = 0
        for index in range(1, n):
            if rng.uniform() < 0.3:
                current = index
            starts[index] = current
        result = kernels.segmented_exclusive_min(values, starts)
        for index in range(n):
            expected = (
                np.inf if index == starts[index] else values[starts[index]:index].min()
            )
            assert result[index] == expected


def test_segmented_exclusive_min_empty():
    assert len(kernels.segmented_exclusive_min(np.empty(0), np.empty(0, dtype=np.int64))) == 0


# --------------------------------------------------------------------------- #
# exact equality at zero tolerance
# --------------------------------------------------------------------------- #
def _pareto_2d_rows(caps, delays, rows):
    """Kept rows of the plain-Python 2-D front over ``rows``."""
    points = [(float(caps[row]), float(delays[row]), int(row)) for row in rows]
    return [point[2] for point in prune_pareto_2d(points)]


def _pareto_3d_rows(caps, delays, widths):
    """Kept rows of the plain-Python 3-D front."""
    points = [
        (float(caps[row]), float(delays[row]), float(widths[row]), row)
        for row in range(len(caps))
    ]
    return [point[3] for point in prune_pareto_3d(points)]


@pytest.mark.parametrize("seed", range(8))
def test_bucket_prune_matches_reference_zero_tolerance(seed):
    rng = np.random.default_rng(seed)
    caps, delays, widths = _random_states(rng, int(rng.integers(1, 300)))
    # The kernel's bucket key at zero width tolerance.
    keys = np.round(widths / 1e-12).astype(np.int64)
    reference = []
    for key in np.unique(keys):
        reference += _pareto_2d_rows(caps, delays, np.flatnonzero(keys == key))
    vectorized = kernels.bucket_prune(
        caps, delays, widths, delay_tolerance=0.0, width_tolerance=0.0
    )
    assert sorted(reference) == sorted(vectorized.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_cross_bucket_prune_matches_reference_zero_tolerance(seed):
    rng = np.random.default_rng(100 + seed)
    caps, delays, widths = _random_states(rng, int(rng.integers(1, 200)))
    reference = _pareto_3d_rows(caps, delays, widths)
    vectorized = kernels.cross_bucket_prune(
        caps, delays, widths, delay_tolerance=0.0, width_tolerance=0.0
    )
    assert sorted(reference) == sorted(vectorized.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_pareto_2d_matches_reference_zero_tolerance(seed):
    rng = np.random.default_rng(200 + seed)
    caps, delays, _ = _random_states(rng, int(rng.integers(1, 300)))
    reference = _pareto_2d_rows(caps, delays, range(len(caps)))
    vectorized = kernels.pareto_two_dimensional(caps, delays, delay_tolerance=0.0)
    assert sorted(reference) == sorted(vectorized.tolist())


def test_cross_block_boundaries():
    """Fronts larger than the comparison block size are handled correctly."""
    n = 3 * kernels._CROSS_BLOCK + 17
    rng = np.random.default_rng(5)
    caps = rng.uniform(0.0, 1.0, size=n)
    delays = rng.uniform(0.0, 1.0, size=n)
    widths = rng.uniform(0.0, 1.0, size=n)
    reference = _pareto_3d_rows(caps, delays, widths)
    vectorized = kernels.cross_bucket_prune(
        caps, delays, widths, delay_tolerance=0.0, width_tolerance=0.0
    )
    assert sorted(reference) == sorted(vectorized.tolist())


# --------------------------------------------------------------------------- #
# quality properties at default tolerances
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("stage", ["full", "bucket"])
@pytest.mark.parametrize("seed", range(4))
def test_prune_states_every_loser_is_dominated(stage, seed):
    """``full`` is the whole rule (:func:`prune_states`), ``bucket`` its
    first stage alone (:func:`kernels.bucket_prune`), whose losers have a
    dominator inside their own width bucket."""
    rng = np.random.default_rng(300 + seed)
    caps, delays, widths = _random_states(rng, 250)
    config = PruningConfig()
    if stage == "full":
        kept = prune_states(caps, delays, widths, config)
    else:
        kept = kernels.bucket_prune(
            caps,
            delays,
            widths,
            delay_tolerance=config.delay_tolerance,
            width_tolerance=config.width_tolerance,
        )
    assert len(kept) > 0
    kept_set = set(kept.tolist())
    keys = np.round(widths / kernels.width_quantum(config.width_tolerance))
    for index in range(len(caps)):
        if index in kept_set:
            continue
        if stage == "bucket":
            dominators = (
                (keys == keys[index])
                & (caps <= caps[index])
                & (delays <= delays[index] + config.delay_tolerance)
            )
        else:
            dominators = (
                (caps <= caps[index])
                & (delays <= delays[index] + config.delay_tolerance)
                & (widths <= widths[index] + config.width_tolerance)
            )
        dominators[index] = False
        assert dominators[list(kept_set)].any(), f"state {index} dropped without dominator"


def test_prune_states_keeps_unique_minima():
    caps = np.array([1.0, 2.0, 3.0])
    delays = np.array([3.0, 2.0, 1.0])
    widths = np.array([1.0, 2.0, 3.0])
    kept = set(prune_states(caps, delays, widths, PruningConfig()).tolist())
    assert kept == {0, 1, 2}


def test_prune_states_vectorized_empty():
    empty = np.empty(0)
    assert len(prune_states(empty, empty, empty, PruningConfig())) == 0
    assert len(kernels.pareto_two_dimensional(empty, empty, delay_tolerance=0.0)) == 0
