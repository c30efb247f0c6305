"""Fault-injection and transparency tests for ``REPRO_SANITIZE=1`` (ISSUE 7).

The sanitizer must (a) catch a kernel that emits a dominated state, a NaN
delay or aliased scratch views — naming the rule and the level in its
diagnostic — and (b) be **bit-transparent** when nothing is
injected: identical frontiers/records with and without the mode, with the
check counters threaded through :class:`EngineStatistics` (including across
the worker pool's pickle channel).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.dp.powerdp as powerdp_module
from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizeError
from repro.dp.powerdp import PowerAwareDp
from repro.dp.vanginneken import DelayOptimalDp
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.design import DesignEngine, MethodSpec
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM

from tests.conftest import build_uniform_net

LIBRARY = RepeaterLibrary.uniform(40.0, 400.0, 120.0)
CANDIDATES = [i * 1000.0e-6 for i in range(1, 8)]
POPULATION = ProtocolConfig(num_nets=1, targets_per_net=1, seed=2005)


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")


@pytest.fixture(scope="module")
def tiny_cases():
    return ProtocolStore().cases(POPULATION)


def _run_power(tech):
    net = build_uniform_net(tech)
    return PowerAwareDp(tech, core="fused").run(net, LIBRARY, CANDIDATES)


def _frontier_signature(result):
    return [
        (point.delay, point.total_width, point.solution.positions, point.solution.widths)
        for point in result.frontier.points
    ]


def _record_signature(result):
    return [
        (
            record.net_name,
            record.method,
            record.target,
            record.feasible,
            record.total_width,
            record.delay,
            record.num_repeaters,
        )
        for net in result.nets
        for record in net.records
    ]


def _inject_into_fused_level(mutate):
    """Wrap the real fused kernel, applying ``mutate`` to the first level's
    surviving ``(caps, delays, widths, keep)`` front."""
    real = powerdp_module.fused_level
    state = {"armed": True}

    def wrapper(scratch, interval, caps, delays, widths, **kwargs):
        out = real(scratch, interval, caps, delays, widths, **kwargs)
        if not state["armed"]:
            return out
        state["armed"] = False
        out_caps, out_delays, out_widths, keep, m, count = out
        return (*mutate(out_caps, out_delays, out_widths, keep), m, count)

    return wrapper


# --------------------------------------------------------------------------- #
# Fault injection through the real DP driver


def test_injected_dominated_state_names_rule_and_level(tech, sanitized, monkeypatch):
    def duplicate_last_row(caps, delays, widths, keep):
        return (
            np.append(caps, caps[-1]),
            np.append(delays, delays[-1]),
            np.append(widths, widths[-1]),
            np.append(keep, keep[-1]),
        )

    monkeypatch.setattr(
        powerdp_module, "fused_level", _inject_into_fused_level(duplicate_last_row)
    )
    with pytest.raises(SanitizeError) as excinfo:
        _run_power(tech)
    error = excinfo.value
    assert error.rule == "dominance"
    assert "level 0" in error.where
    assert "PowerAwareDp(fused)" in error.where


def test_injected_nan_delay_names_rule_and_level(tech, sanitized, monkeypatch):
    def poison_delay(caps, delays, widths, keep):
        poisoned = delays.copy()
        poisoned[0] = np.nan
        return caps, poisoned, widths, keep

    monkeypatch.setattr(
        powerdp_module, "fused_level", _inject_into_fused_level(poison_delay)
    )
    with pytest.raises(SanitizeError) as excinfo:
        _run_power(tech)
    error = excinfo.value
    assert error.rule == "nan-guard"
    assert "level 0" in error.where
    assert "'delays'" in error.detail


def test_injected_aliased_views_are_caught(tech, sanitized, monkeypatch):
    def alias_delays_to_caps(caps, delays, widths, keep):
        return caps, caps, widths, keep

    monkeypatch.setattr(
        powerdp_module, "fused_level", _inject_into_fused_level(alias_delays_to_caps)
    )
    with pytest.raises(SanitizeError) as excinfo:
        _run_power(tech)
    assert excinfo.value.rule == "scratch-overlap"


def test_nothing_injected_is_bit_transparent(tech, monkeypatch):
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    plain_power = _frontier_signature(_run_power(tech))
    net = build_uniform_net(tech)
    plain_2d = DelayOptimalDp(tech).run(net, LIBRARY, CANDIDATES)

    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    before = sanitize.statistics()
    assert _frontier_signature(_run_power(tech)) == plain_power
    checked_2d = DelayOptimalDp(tech).run(net, LIBRARY, CANDIDATES)
    assert (checked_2d.delay, checked_2d.assignments) == (
        plain_2d.delay,
        plain_2d.assignments,
    )
    delta = sanitize.statistics().since(before)
    assert delta.checks_run > 0
    assert delta.violations == 0


# --------------------------------------------------------------------------- #
# Direct check semantics


def test_check_front_dominance_flags_handcrafted_front(sanitized):
    caps = np.array([1.0, 2.0])
    delays = np.array([4.0, 5.0])  # row 1: higher cap AND higher delay
    widths = np.array([3.0, 3.0])
    with pytest.raises(SanitizeError, match="dominance"):
        sanitize.check_front_dominance(
            caps, delays, widths, width_tolerance=1e-9, where="test"
        )
    # A genuine trade-off front (delay falls as cap rises) passes.
    sanitize.check_front_dominance(
        caps, np.array([5.0, 4.0]), widths, width_tolerance=1e-9, where="test"
    )


def test_check_front_dominance_2d(sanitized):
    with pytest.raises(SanitizeError, match="dominance"):
        sanitize.check_front_dominance_2d(
            np.array([1.0, 2.0]), np.array([4.0, 5.0]), where="test"
        )
    sanitize.check_front_dominance_2d(
        np.array([1.0, 2.0]), np.array([5.0, 4.0]), where="test"
    )


def test_check_scratch_views_and_finite(sanitized):
    buffer = np.zeros(8)
    with pytest.raises(SanitizeError, match="scratch-overlap"):
        sanitize.check_scratch_views("test", a=buffer[:4], b=buffer[2:6])
    sanitize.check_scratch_views("test", a=buffer[:4], b=buffer[4:])
    with pytest.raises(SanitizeError, match="nan-guard"):
        sanitize.check_finite("test", values=np.array([0.0, np.inf]))


def test_sanitize_error_survives_pickling():
    error = SanitizeError("dominance", "net 'n' level 3", "1 dominated state")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, SanitizeError)
    assert (clone.rule, clone.where, clone.detail) == (
        error.rule,
        error.where,
        error.detail,
    )


# --------------------------------------------------------------------------- #
# Engine statistics threading


def _methods():
    return [
        MethodSpec.dp_baseline("dp", RepeaterLibrary.uniform_count(10.0, 40.0, 4))
    ]


def test_engine_serial_threads_sanitizer_statistics(tiny_cases, monkeypatch):
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    with DesignEngine(NODE_180NM, workers=0, store=ProtocolStore()) as engine:
        plain = engine.design_population(tiny_cases, _methods())
    assert plain.statistics.sanitizer is None

    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    with DesignEngine(NODE_180NM, workers=0, store=ProtocolStore()) as engine:
        checked = engine.design_population(tiny_cases, _methods())
    stats = checked.statistics.sanitizer
    assert stats is not None
    assert stats.checks_run > 0
    assert stats.violations == 0
    assert _record_signature(checked) == _record_signature(plain)


def test_engine_parallel_threads_sanitizer_statistics(tiny_cases, sanitized):
    # Worker-side deltas must survive the pool's pickle channel.
    with DesignEngine(NODE_180NM, workers=2, store=ProtocolStore()) as engine:
        result = engine.design_population(tiny_cases, _methods())
    stats = result.statistics.sanitizer
    assert stats is not None
    assert stats.checks_run > 0
    assert stats.violations == 0
