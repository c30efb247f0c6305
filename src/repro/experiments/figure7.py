"""Reproduction of Figure 7: power savings versus timing target.

The paper plots, for one net and a size-10 baseline library, the power
saving of RIP over the baseline DP as a function of the timing constraint:

* **(a)** granularity 10u — three zones appear: at tight targets the DP has
  no valid solution at all (zone I, plotted here as missing points), in a
  middle band RIP wins clearly (zone II), at loose targets the two schemes
  converge and the DP occasionally wins slightly (zone III);
* **(b)** granularity 40u — RIP wins everywhere and the savings grow as the
  target loosens, because the coarse library lacks the small repeaters that
  cheap, slow designs want.

The sweep is a one-net :class:`repro.engine.DesignEngine` run with a denser
:class:`~repro.engine.design.TargetSpec` than the tables use; the population
(and ``tau_min``) comes from the same shared protocol store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.rip import RipConfig
from repro.engine.design import DesignEngine, MethodSpec, TargetSpec
from repro.experiments.protocol import (
    ExperimentProtocol,
    ProtocolConfig,
    savings_percent,
)
from repro.tech.library import RepeaterLibrary
from repro.utils.validation import require


@dataclass(frozen=True)
class Figure7Config:
    """Configuration of the Figure 7 sweep.

    Attributes
    ----------
    protocol:
        Net population protocol; only ``net_index`` of it is swept.
    net_index:
        Which net of the population to sweep (the paper uses one
        representative net).
    num_points:
        Number of timing targets in the sweep (denser than Table 1 so the
        zone structure is visible).
    min_target_factor / max_target_factor:
        Sweep range as multiples of the net's ``tau_min``.
    granularities:
        Baseline library granularities — one series per entry; the paper
        shows 10u (subfigure a) and 40u (subfigure b).
    baseline_library_size / baseline_min_width:
        Construction of the size-10 baseline libraries, as in Table 1.
    rip:
        Configuration of the RIP flow under test.
    """

    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    net_index: int = 0
    num_points: int = 40
    min_target_factor: float = 1.02
    max_target_factor: float = 2.2
    granularities: Tuple[float, ...] = (10.0, 40.0)
    baseline_library_size: int = 10
    baseline_min_width: float = 10.0
    rip: RipConfig = field(default_factory=RipConfig)


@dataclass(frozen=True)
class Figure7Point:
    """One point of a Figure 7 series.

    ``improvement_percent`` is ``None`` where the baseline DP has no feasible
    solution (zone I of Figure 7(a)).
    """

    timing_target: float
    target_factor: float
    dp_width: Optional[float]
    rip_width: Optional[float]
    improvement_percent: Optional[float]


@dataclass(frozen=True)
class Figure7Result:
    """All series of the reproduced figure, keyed by baseline granularity."""

    net_name: str
    tau_min: float
    series: dict
    total_runtime_seconds: float

    def zone_counts(self, granularity: float) -> Tuple[int, int, int]:
        """(#targets DP infeasible, #targets RIP strictly better, #ties-or-worse)."""
        infeasible = better = other = 0
        for point in self.series[granularity]:
            if point.improvement_percent is None:
                infeasible += 1
            elif point.improvement_percent > 1e-9:
                better += 1
            else:
                other += 1
        return infeasible, better, other


def run_figure7(
    config: Optional[Figure7Config] = None,
    *,
    engine: Optional[DesignEngine] = None,
    workers: int = 0,
) -> Figure7Result:
    """Run the Figure 7 sweep and return one series per baseline granularity."""
    config = config or Figure7Config()
    started = time.perf_counter()

    if engine is None:
        engine = DesignEngine(
            config.protocol.technology, rip_config=config.rip, workers=workers
        )
    cases = ExperimentProtocol(config.protocol, store=engine.store).cases()
    require(
        0 <= config.net_index < len(cases),
        f"net_index {config.net_index} outside the population of {len(cases)} nets",
    )
    case = cases[config.net_index]

    methods = [MethodSpec.rip_method(config=config.rip)] + [
        MethodSpec.dp_baseline(
            f"dp-g{granularity:g}",
            RepeaterLibrary.uniform_count(
                min_width=config.baseline_min_width,
                granularity=granularity,
                count=config.baseline_library_size,
            ),
        )
        for granularity in config.granularities
    ]
    population = engine.design_population(
        [case],
        methods,
        targets=TargetSpec(
            count=config.num_points,
            min_factor=config.min_target_factor,
            max_factor=config.max_target_factor,
        ),
    )
    net_result = population.nets[0]
    require(
        not net_result.failed,
        f"net {net_result.net_name!r} failed to design: {net_result.error}",
    )
    rip_records = net_result.records_for("rip")

    series = {}
    for granularity in config.granularities:
        points = []
        for dp_record, rip_record in zip(
            net_result.records_for(f"dp-g{granularity:g}"), rip_records
        ):
            dp_width = dp_record.total_width if dp_record.feasible else None
            rip_width = rip_record.total_width if rip_record.feasible else None
            if dp_width is None or rip_width is None:
                improvement = None
            else:
                improvement = savings_percent(dp_width, rip_width)
            points.append(
                Figure7Point(
                    timing_target=dp_record.target,
                    target_factor=dp_record.target_factor,
                    dp_width=dp_width,
                    rip_width=rip_width,
                    improvement_percent=improvement,
                )
            )
        series[granularity] = tuple(points)

    return Figure7Result(
        net_name=case.net.name,
        tau_min=case.tau_min,
        series=series,
        total_runtime_seconds=time.perf_counter() - started,
    )
