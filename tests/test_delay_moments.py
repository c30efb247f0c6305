"""Tests for RC-ladder moments and net discretization."""

import pytest

from repro.delay.elmore import unbuffered_net_delay
from repro.delay.moments import discretize_net, ladder_moments
from repro.utils.validation import ValidationError


def test_single_rc_moments_exact():
    # One resistor R into one capacitor C: m1 = -RC, m2 = (RC)^2.
    r, c = 1000.0, 1e-12
    m1, m2 = ladder_moments([r], [c], order=2)
    assert m1 == pytest.approx(-r * c)
    assert m2 == pytest.approx((r * c) ** 2)


def test_two_stage_ladder_m1_is_minus_elmore():
    resistances = [100.0, 200.0]
    capacitances = [1e-12, 2e-12]
    m1 = ladder_moments(resistances, capacitances, order=1)[0]
    elmore = 100.0 * (1e-12 + 2e-12) + 200.0 * 2e-12
    assert m1 == pytest.approx(-elmore)


def test_empty_ladder_gives_zero_moments():
    assert ladder_moments([], [], order=3) == [0.0, 0.0, 0.0]


def test_mismatched_lists_rejected():
    with pytest.raises(ValidationError):
        ladder_moments([1.0], [], order=1)


def test_net_moments_m1_tracks_elmore(tech, mixed_net):
    # The first moment of the discretised net approaches (minus) the exact
    # pi-model Elmore delay as the discretisation refines.
    resistances, capacitances = discretize_net(mixed_net, tech, lumps_per_segment=50)
    moments = ladder_moments(resistances, capacitances, order=1)
    exact = unbuffered_net_delay(mixed_net, tech)
    assert -moments[0] == pytest.approx(exact, rel=0.02)


def test_discretize_net_totals(tech, mixed_net):
    resistances, capacitances = discretize_net(mixed_net, tech, lumps_per_segment=7)
    wire_resistance = sum(resistances[1:])  # first entry is the driver
    assert wire_resistance == pytest.approx(mixed_net.total_resistance)
    receiver_cap = tech.repeater.input_capacitance(mixed_net.receiver_width)
    driver_cap = tech.repeater.output_capacitance(mixed_net.driver_width)
    assert sum(capacitances) == pytest.approx(
        mixed_net.total_capacitance + receiver_cap + driver_cap
    )
