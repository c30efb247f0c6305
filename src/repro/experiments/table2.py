"""Reproduction of Table 2: quality/runtime trade-off of the baseline DP.

The baseline DP is given the full width range (10u, 400u) and its width
granularity ``g_DP`` is swept from 40u down to 10u.  For each granularity
the table reports

* the average power saving of RIP over that DP (expected to shrink towards
  zero as the DP library approaches RIP's effective resolution),
* the average DP runtime per net,
* the average RIP runtime per design (net x target),
* the speedup (DP runtime / RIP runtime), which the paper shows growing by
  roughly two orders of magnitude as ``g_DP`` reaches 10u.

The whole sweep is one :class:`repro.engine.DesignEngine` population run:
RIP is a single method shared by every granularity row, each granularity is
one ``dp`` method (one frontier run per net answering all targets), and the
per-net work can fan out over worker processes.

Runtime accounting: the baseline DP is frontier-based, so one run per net
serves every timing target; its per-net wall-clock time is what we report
(this *favours* the baseline relative to the paper, which re-ran the DP per
target).  RIP's runtime includes its coarse DP pass for every design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.rip import RipConfig
from repro.engine.design import DesignEngine, MethodSpec
from repro.experiments.protocol import (
    ExperimentProtocol,
    ProtocolConfig,
    mean,
    savings_percent,
)
from repro.tech.library import RepeaterLibrary
from repro.utils.validation import require


@dataclass(frozen=True)
class Table2Config:
    """Configuration of the Table 2 experiment.

    Attributes
    ----------
    protocol:
        Net population / timing-target protocol.
    granularities:
        Values of ``g_DP`` to sweep (units of u).
    width_range:
        Width range of every baseline library (the paper uses (10u, 400u)).
    rip:
        Configuration of the RIP flow under test.
    """

    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    granularities: Tuple[float, ...] = (40.0, 30.0, 20.0, 10.0)
    width_range: Tuple[float, float] = (10.0, 400.0)
    rip: RipConfig = field(default_factory=RipConfig)


@dataclass(frozen=True)
class Table2Row:
    """One granularity row of Table 2."""

    granularity: float
    library_size: int
    average_saving_percent: float
    dp_runtime_seconds: float
    rip_runtime_seconds: float
    speedup: float
    dp_violations: int


@dataclass(frozen=True)
class Table2Result:
    """All rows of the reproduced Table 2."""

    rows: Tuple[Table2Row, ...]
    num_nets: int
    targets_per_net: int
    total_runtime_seconds: float


def run_table2(
    config: Optional[Table2Config] = None,
    *,
    engine: Optional[DesignEngine] = None,
    workers: int = 0,
) -> Table2Result:
    """Run the Table 2 sweep and return one row per DP granularity."""
    config = config or Table2Config()
    started = time.perf_counter()

    if engine is None:
        engine = DesignEngine(
            config.protocol.technology, rip_config=config.rip, workers=workers
        )
    cases = ExperimentProtocol(config.protocol, store=engine.store).cases()

    low, high = config.width_range
    libraries = {
        granularity: RepeaterLibrary.uniform(low, high, granularity)
        for granularity in config.granularities
    }
    methods = [MethodSpec.rip_method(config=config.rip)] + [
        MethodSpec.dp_baseline(f"dp-g{granularity:g}", library)
        for granularity, library in libraries.items()
    ]
    population = engine.design_population(cases, methods)

    # Infeasible nets are reported per-net by the engine; aggregate the
    # nets that designed cleanly.
    designed_nets = [net for net in population.nets if not net.failed]
    require(len(designed_nets) > 0, "every net of the population failed to design")
    rip_runtime = mean(
        [record.runtime_seconds for net in designed_nets for record in net.records_for("rip")]
    )

    rows: List[Table2Row] = []
    for granularity in config.granularities:
        method = f"dp-g{granularity:g}"
        savings: List[float] = []
        runtimes: List[float] = []
        violations = 0
        for net_result in designed_nets:
            runtimes.append(net_result.method_runtimes[method])
            rip_records = net_result.records_for("rip")
            for dp_record, rip_record in zip(net_result.records_for(method), rip_records):
                if not dp_record.feasible:
                    violations += 1
                    continue
                if not rip_record.feasible:
                    continue
                savings.append(
                    savings_percent(dp_record.total_width, rip_record.total_width)
                )
        dp_runtime = mean(runtimes)
        rows.append(
            Table2Row(
                granularity=granularity,
                library_size=len(libraries[granularity]),
                average_saving_percent=mean(savings),
                dp_runtime_seconds=dp_runtime,
                rip_runtime_seconds=rip_runtime,
                speedup=dp_runtime / rip_runtime if rip_runtime > 0 else float("inf"),
                dp_violations=violations,
            )
        )

    return Table2Result(
        rows=tuple(rows),
        num_nets=len(cases),
        targets_per_net=config.protocol.targets_per_net,
        total_runtime_seconds=time.perf_counter() - started,
    )
