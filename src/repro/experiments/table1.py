"""Reproduction of Table 1: power reduction of RIP over the baseline DP.

For every net in the population and every timing target between
``1.05 * tau_min`` and ``2.05 * tau_min``:

* the baseline DP of [14] is run with a library of **size 10**, minimum
  width 10u and granularity ``g`` in {10u, 20u, 40u} (one frontier run per
  net and granularity answers all twenty targets);
* RIP is run per target (its coarse DP pass is shared across targets).

The sweep itself runs through the batch :class:`repro.engine.DesignEngine`
(one method per scheme), so the population and ``tau_min`` are shared with
the other experiments and the per-net work can fan out over worker
processes.  Reported per net, as in the paper:

* ``delta_max`` and the number of timing violations ``V_DP`` of the g=10u
  baseline (savings are computed only over targets where both schemes meet
  timing);
* ``delta_max`` and ``delta_mean`` against the g=20u and g=40u baselines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.rip import RipConfig
from repro.engine.design import DesignEngine, MethodSpec, NetDesignResult
from repro.experiments.protocol import (
    ExperimentProtocol,
    ProtocolConfig,
    mean,
    savings_percent,
)
from repro.tech.library import RepeaterLibrary
from repro.utils.validation import require


@dataclass(frozen=True)
class Table1Config:
    """Configuration of the Table 1 experiment.

    Attributes
    ----------
    protocol:
        Net population / timing-target protocol.
    baseline_granularities:
        Width granularities of the size-10 baseline libraries (units of u).
    baseline_library_size:
        Number of widths in every baseline library (the paper uses 10).
    baseline_min_width:
        Smallest width of every baseline library (the paper uses 10u).
    rip:
        Configuration of the RIP flow under test.
    """

    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    baseline_granularities: Tuple[float, ...] = (10.0, 20.0, 40.0)
    baseline_library_size: int = 10
    baseline_min_width: float = 10.0
    rip: RipConfig = field(default_factory=RipConfig)


@dataclass(frozen=True)
class Table1Row:
    """One net's row of Table 1.

    ``delta_max`` / ``delta_mean`` map granularity (u) to the maximum/mean
    power saving of RIP over that baseline, in percent; ``violations`` maps
    granularity to the number of timing targets the baseline DP could not
    meet; ``rip_violations`` counts targets RIP could not meet (expected 0).
    """

    net_name: str
    tau_min: float
    delta_max: Dict[float, float]
    delta_mean: Dict[float, float]
    violations: Dict[float, int]
    rip_violations: int
    rip_mean_runtime: float
    baseline_runtimes: Dict[float, float]


@dataclass(frozen=True)
class Table1Result:
    """All rows of the reproduced Table 1 plus their averages."""

    rows: Tuple[Table1Row, ...]
    granularities: Tuple[float, ...]
    average_delta_max: Dict[float, float]
    average_delta_mean: Dict[float, float]
    average_violations: Dict[float, float]
    total_runtime_seconds: float

    def average_rip_violations(self) -> float:
        """Average number of timing violations of RIP per net (expected 0)."""
        return mean([row.rip_violations for row in self.rows])


def _baseline_library(config: Table1Config, granularity: float) -> RepeaterLibrary:
    return RepeaterLibrary.uniform_count(
        min_width=config.baseline_min_width,
        granularity=granularity,
        count=config.baseline_library_size,
    )


def baseline_method_name(granularity: float) -> str:
    """Engine method name of the size-10 baseline at ``granularity``."""
    return f"dp-g{granularity:g}"


def table1_methods(config: Table1Config) -> List[MethodSpec]:
    """The engine method set of the Table 1 sweep (RIP + three baselines)."""
    methods = [MethodSpec.rip_method(config=config.rip)]
    for granularity in config.baseline_granularities:
        methods.append(
            MethodSpec.dp_baseline(
                baseline_method_name(granularity), _baseline_library(config, granularity)
            )
        )
    return methods


def _row_from_net(net_result: NetDesignResult, config: Table1Config) -> Table1Row:
    """Aggregate one net's engine records into its Table 1 row."""
    rip_records = net_result.records_for("rip")
    rip_widths = [record.total_width if record.feasible else None for record in rip_records]

    delta_max: Dict[float, float] = {}
    delta_mean: Dict[float, float] = {}
    violations: Dict[float, int] = {}
    baseline_runtimes: Dict[float, float] = {}
    for granularity in config.baseline_granularities:
        method = baseline_method_name(granularity)
        baseline_records = net_result.records_for(method)
        baseline_runtimes[granularity] = net_result.method_runtimes[method]
        savings: List[float] = []
        missing = 0
        for baseline_record, rip_width in zip(baseline_records, rip_widths):
            if not baseline_record.feasible:
                missing += 1
                continue
            if rip_width is None:
                continue
            savings.append(savings_percent(baseline_record.total_width, rip_width))
        delta_max[granularity] = max(savings) if savings else 0.0
        delta_mean[granularity] = mean(savings)
        violations[granularity] = missing

    return Table1Row(
        net_name=net_result.net_name,
        tau_min=net_result.tau_min,
        delta_max=delta_max,
        delta_mean=delta_mean,
        violations=violations,
        rip_violations=sum(1 for width in rip_widths if width is None),
        rip_mean_runtime=net_result.method_runtimes["rip"],
        baseline_runtimes=baseline_runtimes,
    )


def run_table1(
    config: Optional[Table1Config] = None,
    *,
    engine: Optional[DesignEngine] = None,
    workers: int = 0,
) -> Table1Result:
    """Run the full Table 1 experiment and return the per-net rows."""
    config = config or Table1Config()
    require(len(config.baseline_granularities) > 0, "need at least one baseline granularity")
    started = time.perf_counter()

    if engine is None:
        engine = DesignEngine(
            config.protocol.technology, rip_config=config.rip, workers=workers
        )
    cases = ExperimentProtocol(config.protocol, store=engine.store).cases()
    population = engine.design_population(cases, table1_methods(config))

    # Infeasible nets are reported per-net by the engine; the table
    # aggregates the nets that designed cleanly.
    rows = tuple(
        _row_from_net(net_result, config)
        for net_result in population.nets
        if not net_result.failed
    )
    require(len(rows) > 0, "every net of the population failed to design")

    granularities = tuple(config.baseline_granularities)
    average_delta_max = {
        g: mean([row.delta_max[g] for row in rows]) for g in granularities
    }
    average_delta_mean = {
        g: mean([row.delta_mean[g] for row in rows]) for g in granularities
    }
    average_violations = {
        g: mean([row.violations[g] for row in rows]) for g in granularities
    }
    return Table1Result(
        rows=rows,
        granularities=granularities,
        average_delta_max=average_delta_max,
        average_delta_mean=average_delta_mean,
        average_violations=average_violations,
        total_runtime_seconds=time.perf_counter() - started,
    )
