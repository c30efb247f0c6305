"""Metric collection, host-speed calibration and the result line."""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile (0.01 steps), interpolated as ``statistics.quantiles``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


class Report:
    """Metrics of one run, kept raw until the host-speed scale is known.

    Time metrics are multiplied by the scale and rates divided by it
    (``scale = reference probe / median probe``); every other metric is
    reported as measured.
    """

    def __init__(self, context) -> None:
        self.context = context
        self.lines: List[str] = context.lines
        self._metrics: Dict[str, Tuple[float, str, Optional[int]]] = {}
        self.gate = None

    def _put(self, name: str, raw: float, unit: str, power: Optional[int]) -> None:
        if name in self._metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self._metrics[name] = (float(raw), unit, power)

    def time_s(self, name: str, raw: float) -> None:
        self._put(name, raw, "s", 1)

    def time_ms(self, name: str, raw: float) -> None:
        self._put(name, raw, "ms", 1)

    def rate(self, name: str, raw: float, unit: str) -> None:
        self._put(name, raw, unit, -1)

    def plain(self, name: str, value: float, unit: str) -> None:
        self._put(name, value, unit, None)

    def peak_rss_self(self) -> None:
        """Peak resident set of this process (Linux reports KiB)."""
        self.plain("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    def result(self, expected: List[dict], scale: float) -> dict:
        """The result object; every metric named in ``expected`` must be present."""
        names = [entry["name"] for entry in expected]
        missing = [name for name in names if name not in self._metrics]
        extra = [name for name in self._metrics if name not in names]
        if missing or extra:
            raise RuntimeError(f"metrics missing {missing} / unexpected {extra}")
        metrics = {}
        for entry in expected:
            raw, unit, power = self._metrics[entry["name"]]
            if unit != entry["unit"]:
                raise RuntimeError(f"{entry['name']} measured in {unit}, declared in {entry['unit']}")
            value = raw if power is None else raw * scale**power
            metrics[entry["name"]] = {"value": value, "unit": unit}
            calibration = "" if power is None else f" (raw {raw:.6g}, scale {scale:.4f})"
            self.lines.append(f"metric {entry['name']} = {value:.6g} {unit}{calibration}")
        gate = self.gate
        return {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": metrics,
        }
