"""Host-speed probe: a fixed CPU workload that owes nothing to the program.

The benchmark runs on shared machines whose speed drifts in phases of
seconds to tens of seconds.  Every time-based metric is therefore rescaled
to a reference host speed: the probe below is timed between the calls of a
run, and a metric measured at probe time ``p`` is scaled by
``reference / median(p)``.

The probe imports nothing from ``repro`` (the self-test checks this), so no
change to the program can make it faster or slower.  It mixes the two kinds
of work the program does: an interpreted Python loop and seeded numpy
``lexsort`` pruning shaped like a DP level.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Iterations of the interpreted loop, and rounds and size of the numpy
#: front pruning; together about 60-80 ms on the reference host.
LOOP_ITERATIONS = 150_000
PRUNE_ROUNDS = 12
PRUNE_STATES = 20_000


def probe_once() -> float:
    """Run the probe once and return its wall-clock seconds.

    The numpy half mimics a DP level: ``lexsort`` states by (delay, width),
    keep the Pareto front with a running minimum, then refill the state
    array, all from a fixed seed.
    """
    started = time.perf_counter()
    acc = 0
    for index in range(LOOP_ITERATIONS):
        acc = (acc + index * 7) ^ (index >> 3)
    rng = np.random.default_rng(20050307)
    delay = rng.random(PRUNE_STATES)
    width = rng.random(PRUNE_STATES)
    kept = 0
    for _ in range(PRUNE_ROUNDS):
        order = np.lexsort((width, delay))
        sorted_width = width[order]
        front = sorted_width <= np.minimum.accumulate(sorted_width)
        kept += int(front.sum())
        fresh = PRUNE_STATES - int(front.sum())
        delay = np.concatenate([delay[order][front] + 0.01, rng.random(fresh)])
        width = np.concatenate([sorted_width[front] * 1.01, rng.random(fresh)])
    # Consume both results so neither piece of work can be skipped.
    if acc < 0 or kept <= 0:
        raise AssertionError("probe arithmetic went wrong")
    return time.perf_counter() - started


class HostProbe:
    """Collects probe timings over one run and turns them into a scale."""

    def __init__(self, reference_seconds: float) -> None:
        self.reference_seconds = reference_seconds
        self.samples: list = []

    def sample(self) -> float:
        """Time one probe and keep it."""
        seconds = probe_once()
        self.samples.append(seconds)
        return seconds

    @property
    def scale(self) -> float:
        """``reference / median probe``: multiply times by it, divide rates."""
        if not self.samples:
            raise RuntimeError("no probe samples were taken")
        return self.reference_seconds / statistics.median(self.samples)
