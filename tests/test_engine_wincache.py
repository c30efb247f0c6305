"""Tests for the window-compilation cache and its RIP integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rip import Rip
from repro.dp.candidates import window_candidates
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.compiled import CompiledNet
from repro.engine.design import DesignEngine, MethodSpec
from repro.engine.wincache import (
    WindowCompilationCache,
    dp_context_fingerprint,
    net_fingerprint,
    resolve_window_cache,
)
from repro.tech.library import RepeaterLibrary
from repro.utils.units import from_microns
from repro.utils.validation import ValidationError
from tests.conftest import build_uniform_net

TINY = ProtocolConfig(num_nets=2, targets_per_net=6, seed=13)


@pytest.fixture(scope="module")
def tiny_cases():
    return ProtocolStore().cases(TINY)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
def test_net_fingerprint_stable_and_value_based(tech):
    net_a = build_uniform_net(tech, length_um=9000.0)
    net_b = build_uniform_net(tech, length_um=9000.0)
    net_c = build_uniform_net(tech, length_um=9500.0)
    assert net_fingerprint(net_a) == net_fingerprint(net_a)
    assert net_fingerprint(net_a) == net_fingerprint(net_b)  # equal values share
    assert net_fingerprint(net_a) != net_fingerprint(net_c)


def test_dp_context_distinguishes_technology_and_pruning(tech):
    from repro.dp.pruning import PruningConfig
    from repro.tech.nodes import NODE_90NM

    base = dp_context_fingerprint(tech, PruningConfig())
    assert base == dp_context_fingerprint(tech, PruningConfig())
    assert base != dp_context_fingerprint(NODE_90NM, PruningConfig())
    assert base != dp_context_fingerprint(tech, PruningConfig(width_tolerance=5.0))
    assert base != dp_context_fingerprint(tech, PruningConfig(delay_tolerance=0.0))


# --------------------------------------------------------------------------- #
# cache layers
# --------------------------------------------------------------------------- #
def test_window_candidates_layer_matches_direct_call(zoned_net):
    cache = WindowCompilationCache()
    centers = [0.3 * zoned_net.total_length, 0.7 * zoned_net.total_length]
    pitch = from_microns(50.0)
    direct = tuple(window_candidates(zoned_net, centers, window=6, pitch=pitch))
    first = cache.window_candidates(zoned_net, centers, window=6, pitch=pitch)
    second = cache.window_candidates(zoned_net, centers, window=6, pitch=pitch)
    assert first == direct
    assert second is first  # served from cache
    stats = cache.statistics
    assert stats.candidate_hits == 1 and stats.candidate_misses == 1


def test_compiled_layer_reuses_and_matches_fresh_compilation(mixed_net):
    cache = WindowCompilationCache()
    positions = [1e-3, 2e-3, 3e-3]
    compiled = cache.compiled(mixed_net, positions)
    again = cache.compiled(mixed_net, positions)
    assert again is compiled
    fresh = CompiledNet(mixed_net, positions)
    assert compiled.positions == fresh.positions
    for a, b in zip(compiled.intervals, fresh.intervals):
        assert a.upstream == b.upstream and a.downstream == b.downstream
        assert np.array_equal(a.piece_resistance, b.piece_resistance)
        assert np.array_equal(a.piece_capacitance, b.piece_capacitance)


def test_frontier_layer_skips_factory_on_hit(mixed_net):
    cache = WindowCompilationCache()
    calls = []

    def factory():
        calls.append(1)
        return "frontier"

    for _ in range(3):
        result = cache.final_dp_result(mixed_net, "ctx", (10.0, 20.0), (1e-3,), factory)
        assert result == "frontier"
    assert len(calls) == 1
    assert cache.statistics.frontier_hits == 2
    # A different context must not share the entry.
    cache.final_dp_result(mixed_net, "other", (10.0, 20.0), (1e-3,), factory)
    assert len(calls) == 2


def test_lru_eviction_bounds_entries(mixed_net):
    cache = WindowCompilationCache(max_entries=2)
    for index in range(4):
        cache.compiled(mixed_net, [1e-3 * (index + 1)])
    stats = cache.statistics
    assert stats.entries <= 2
    assert stats.evictions == 2
    # The oldest key was evicted: looking it up again is a miss.
    cache.compiled(mixed_net, [1e-3])
    assert cache.statistics.compiled_misses == 5


def test_resolve_window_cache_modes():
    cache = WindowCompilationCache()
    assert resolve_window_cache(cache) is cache
    assert resolve_window_cache(False) is None
    assert isinstance(resolve_window_cache(None), WindowCompilationCache)
    assert isinstance(resolve_window_cache(True), WindowCompilationCache)
    with pytest.raises(ValidationError):
        WindowCompilationCache(max_entries=0)


# --------------------------------------------------------------------------- #
# RIP integration: bit-identical with the cache on vs. off
# --------------------------------------------------------------------------- #
def _outcome_key(result):
    return (
        result.feasible,
        result.fallback_used,
        result.total_width,
        result.delay,
        tuple(result.final_candidates),
        tuple(result.final_library.widths),
        tuple(result.solution.positions),
        tuple(result.solution.widths),
        result.states_generated,
    )


def test_rip_results_bit_identical_with_cache_on_and_off(tech, tiny_cases):
    rip_on = Rip(tech)
    rip_off = Rip(tech, window_cache=False)
    for case in tiny_cases:
        prepared_on = rip_on.prepare(case.net)
        prepared_off = rip_off.prepare(case.net)
        for target in case.targets:
            on = rip_on.run_prepared(prepared_on, target)
            off = rip_off.run_prepared(prepared_off, target)
            assert _outcome_key(on) == _outcome_key(off)
    stats = rip_on.window_cache.statistics
    assert stats.misses > 0  # the cache was really exercised
    assert rip_off.window_cache is None


def test_rip_repeated_target_hits_all_layers(tech, tiny_cases):
    case = tiny_cases[0]
    rip = Rip(tech)
    prepared = rip.prepare(case.net)
    target = case.targets[0]
    first = rip.run_prepared(prepared, target)
    before = rip.window_cache.statistics
    second = rip.run_prepared(prepared, target)
    after = rip.window_cache.statistics
    assert _outcome_key(first) == _outcome_key(second)
    assert after.candidate_hits > before.candidate_hits
    assert after.frontier_hits > before.frontier_hits


def test_rip_shared_cache_across_differing_configs_stays_correct(tech, tiny_cases):
    # A default inserter and one whose injected DP prunes at other
    # tolerances share one cache.  The dp context is read off each
    # inserter's DP, so their frontier entries stay apart and every design
    # matches the inserter's own uncached run.  (RIP's libraries lie on a
    # 10u grid, where a width tolerance below 10u prunes as the default
    # does; 15u changes the designs.)
    from repro.dp.powerdp import PowerAwareDp
    from repro.dp.pruning import PruningConfig

    def tolerant_dp():
        return PowerAwareDp(tech, PruningConfig(width_tolerance=15.0))

    def designs(rip):
        return [
            _outcome_key(outcome)
            for case in tiny_cases
            for outcome in rip.run_prepared_batch(rip.prepare(case.net), case.targets)
        ]

    shared = WindowCompilationCache()
    assert designs(Rip(tech, window_cache=shared)) == designs(
        Rip(tech, window_cache=False)
    )
    assert designs(Rip(tech, dp=tolerant_dp(), window_cache=shared)) == designs(
        Rip(tech, dp=tolerant_dp(), window_cache=False)
    )


# --------------------------------------------------------------------------- #
# engine-level acceptance: sweep records identical, cache on vs. off
# --------------------------------------------------------------------------- #
def test_engine_sweep_records_identical_with_cache_on_and_off(tech, tiny_cases):
    methods = [
        MethodSpec.rip_method(),
        MethodSpec.dp_baseline("dp-g40", RepeaterLibrary.uniform_count(10.0, 40.0, 10)),
    ]

    def run(window_cache):
        engine = DesignEngine(
            tech, workers=0, store=ProtocolStore(), window_cache=window_cache
        )
        return [
            (r.net_name, r.method, r.target, r.feasible, r.total_width, r.delay)
            for r in engine.design_population(tiny_cases, methods).records()
        ]

    assert run(True) == run(False)
