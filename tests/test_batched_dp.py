"""Validation of the two-pin DP core selector.

The cross-target/cross-net level-batched DP core (``dp_core="batched"``) was
deleted: fused is the one production core of the power-aware and
delay-optimal DPs, staged their one oracle.  Every entry point that names a
core must therefore reject ``"batched"`` as loudly as any other unknown
value, rather than silently falling back to another core.
"""

from __future__ import annotations

import pytest

from repro.cli.main import build_parser
from repro.core.rip import RipConfig
from repro.dp.powerdp import PowerAwareDp
from repro.dp.pruning import PruningConfig
from repro.dp.vanginneken import DelayOptimalDp
from repro.engine.design import MethodSpec
from repro.tech.library import RepeaterLibrary
from repro.utils.validation import ValidationError


def test_batched_core_validation(tech):
    for core in ("nonsense", "batched"):
        with pytest.raises(ValidationError):
            PowerAwareDp(tech, core=core)
        with pytest.raises(ValidationError):
            DelayOptimalDp(tech, core=core)
        with pytest.raises(ValidationError):
            RipConfig(dp_core=core)
        library = RepeaterLibrary.uniform(10.0, 400.0, 10.0)
        with pytest.raises(ValidationError):
            MethodSpec.dp_baseline("dp-g10", library, core=core)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["sweep", "--dp-core", core])
        assert exit_info.value.code == 2
    # The reference pruning kernel implies the staged core, but only for a
    # known core: an unknown one is rejected before that rule applies.
    with pytest.raises(ValidationError):
        PowerAwareDp(tech, pruning=PruningConfig(kernel="reference"), core="batched")
    dp = PowerAwareDp(tech, pruning=PruningConfig(kernel="reference"), core="fused")
    assert dp.core == "staged"
