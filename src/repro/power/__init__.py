"""Repeater power models (Eq. 3/4 of the paper)."""

from repro.power.model import (
    PowerReport,
    repeater_power,
    solution_power_report,
    total_width,
)

__all__ = [
    "PowerReport",
    "repeater_power",
    "solution_power_report",
    "total_width",
]
