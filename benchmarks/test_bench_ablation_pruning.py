"""Ablation: DP dominance-pruning strategy (full 3-D vs. per-width buckets).

DESIGN.md calls out the pruning strategy as a design choice: the "bucket"
strategy skips the cross-width dominance check, keeping larger fronts but
doing less work per pass.  This benchmark times a full power-DP run under
each strategy on the same net and checks they agree on solution quality.
"""

from __future__ import annotations

import pytest

from repro.dp.candidates import uniform_candidates
from repro.dp.powerdp import PowerAwareDp
from repro.dp.pruning import PruningConfig
from repro.net.generator import RandomNetGenerator
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM


@pytest.fixture(scope="module")
def workload():
    technology = NODE_180NM
    net = RandomNetGenerator(technology, seed=42).generate()
    library = RepeaterLibrary.uniform(10.0, 400.0, 20.0)
    candidates = uniform_candidates(net, 200.0e-6)
    return technology, net, library, candidates


@pytest.mark.parametrize("strategy", ["full", "bucket"])
def test_pruning_strategy(benchmark, workload, strategy):
    technology, net, library, candidates = workload
    dp = PowerAwareDp(technology, pruning=PruningConfig(strategy=strategy))

    result = benchmark.pedantic(lambda: dp.run(net, library, candidates), rounds=3, iterations=1)

    reference = PowerAwareDp(technology, pruning=PruningConfig(strategy="full")).run(
        net, library, candidates
    )
    target = 1.3 * reference.min_delay()
    assert result.best_for_delay(target).total_width == pytest.approx(
        reference.best_for_delay(target).total_width
    )
    print(
        f"\n[pruning={strategy}] states={result.statistics.states_generated} "
        f"max_front={result.statistics.max_front_size} "
        f"runtime={result.statistics.runtime_seconds:.3f}s"
    )
