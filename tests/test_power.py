"""Tests for the repeater power models."""

import pytest

from repro.power.model import repeater_power, solution_power_report, total_width
from repro.utils.validation import ValidationError


def test_total_width_sums():
    assert total_width([10.0, 20.0, 30.0]) == pytest.approx(60.0)
    assert total_width([]) == 0.0


def test_total_width_rejects_negative():
    with pytest.raises(ValidationError):
        total_width([10.0, -1.0])


def test_repeater_power_matches_technology(tech):
    widths = [80.0, 120.0]
    assert repeater_power(tech, widths) == pytest.approx(tech.repeater_power(200.0))


def test_power_proportional_to_total_width(tech):
    # Eq. (4): power is affine (here linear) in the total width, so the split
    # of the same total across repeaters does not matter.
    assert repeater_power(tech, [200.0]) == pytest.approx(repeater_power(tech, [50.0] * 4))


def test_power_report_components(tech):
    report = solution_power_report(tech, [100.0, 100.0], wire_capacitance=2e-12)
    assert report.total_width == pytest.approx(200.0)
    assert report.repeater_power == pytest.approx(report.dynamic_power + report.leakage_power)
    assert report.total_power == pytest.approx(report.repeater_power + report.wire_dynamic_power)
    assert report.wire_dynamic_power > 0.0


def test_power_report_empty_solution(tech):
    report = solution_power_report(tech, [])
    assert report.total_width == 0.0
    assert report.repeater_power == 0.0
