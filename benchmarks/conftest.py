"""Shared configuration for the benchmark harness.

Every benchmark reproduces one of the paper's tables/figures (or an ablation
of one of the repository's design choices).  By default the population is a
reduced one (fewer nets / targets than the paper) so that
``pytest benchmarks/ --benchmark-only`` finishes in a few minutes; set the
environment variable ``REPRO_FULL=1`` to run the paper-sized protocol
(20 nets x 20 targets).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.protocol import ProtocolConfig

FULL_SCALE = os.environ.get("REPRO_FULL", "0") not in ("0", "", "false", "False")


def protocol_config(**overrides) -> ProtocolConfig:
    """The benchmark protocol: paper-sized when REPRO_FULL=1, reduced otherwise."""
    if FULL_SCALE:
        defaults = dict(num_nets=20, targets_per_net=20, seed=2005)
    else:
        defaults = dict(num_nets=6, targets_per_net=10, seed=2005)
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


@pytest.fixture(scope="session")
def scale_label() -> str:
    """Human-readable scale marker included in printed reports."""
    return "paper-scale (REPRO_FULL=1)" if FULL_SCALE else "reduced scale (set REPRO_FULL=1 for the paper protocol)"
