"""Ablation: RIP design choices (the paper's Section 6 defaults, as
:class:`~repro.core.rip.RipConfig` documents them).

Three knobs are swept, each against the same reduced net population:

* ``library_neighbor_steps`` — 0 reproduces the paper's literal "round to the
  nearest width" library construction, 1 keeps one extra grid width either
  side (the repository default);
* ``allow_zone_crossing`` in REFINE — off reproduces the paper's literal
  movement rule, on implements its stated future-work improvement;
* REFINE ``movement_step`` — the "preselected distance" of the paper.

For every variant the benchmark reports the average total repeater width over
the population (lower = better) and asserts that every variant still meets
timing everywhere, so the comparison is purely about power.
"""

from __future__ import annotations

import pytest

from repro.core.refine import RefineConfig
from repro.core.rip import Rip, RipConfig
from repro.experiments.protocol import ExperimentProtocol
from repro.tech.nodes import NODE_180NM

from benchmarks.conftest import protocol_config


@pytest.fixture(scope="module")
def population():
    protocol = ExperimentProtocol(protocol_config(num_nets=4, targets_per_net=6))
    return protocol.cases()


VARIANTS = {
    "default": RipConfig(),
    "paper-literal-library": RipConfig(library_neighbor_steps=0),
    "no-zone-crossing": RipConfig(refine=RefineConfig(allow_zone_crossing=False)),
    "coarse-move-step": RipConfig(refine=RefineConfig(movement_step=200.0e-6)),
    "fine-move-step": RipConfig(refine=RefineConfig(movement_step=20.0e-6)),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_rip_ablation(benchmark, population, variant):
    config = VARIANTS[variant]
    rip = Rip(NODE_180NM, config)

    def run_population():
        widths = []
        violations = 0
        for case in population:
            prepared = rip.prepare(case.net)
            for target in case.targets:
                outcome = rip.run_prepared(prepared, target)
                if not outcome.feasible:
                    violations += 1
                else:
                    widths.append(outcome.total_width)
        return widths, violations

    widths, violations = benchmark.pedantic(run_population, rounds=1, iterations=1)
    average = sum(widths) / max(len(widths), 1)
    print(f"\n[rip-ablation {variant}] mean_width={average:.1f}u violations={violations}")
    if variant == "default":
        assert violations == 0, "the default configuration must always meet timing"
    assert widths
