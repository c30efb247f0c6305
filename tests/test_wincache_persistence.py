"""Persistent frontier tier of the window cache + the shared engine cache.

Covers the ISSUE 3 satellite contracts:

* frontier disk entries round-trip **bit-for-bit**, including through a
  fresh interpreter;
* corrupted / stale-version / mis-keyed frontier files are evicted and
  rebuilt, never trusted and never fatal;
* `DesignEngine` shares one window cache per engine (serial) or per worker
  process (parallel) instead of one per net task, with per-task counter
  deltas merged onto `EngineStatistics`;
* the `rip sweep` CLI surfaces the cache and protocol-store counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.rip import Rip
from repro.dp.powerdp import PowerAwareDp
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.design import (
    DesignEngine,
    MethodSpec,
    WindowCacheSpec,
    _attach_window_cache,
)
from repro.engine.wincache import (
    FRONTIER_FORMAT_VERSION,
    WindowCompilationCache,
    dp_context_fingerprint,
    dp_result_from_payload,
    dp_result_to_payload,
)
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM

TINY = ProtocolConfig(num_nets=2, targets_per_net=4, seed=13)


@pytest.fixture(scope="module")
def tiny_cases():
    return ProtocolStore().cases(TINY)


def _run_frontier(net, cache):
    dp = PowerAwareDp(NODE_180NM)
    library = RepeaterLibrary.uniform_count(10.0, 40.0, 8)
    candidates = (1e-3, 2e-3, 3e-3, 4e-3)
    context = dp_context_fingerprint(NODE_180NM, dp._pruning)
    return cache.final_dp_result(
        net,
        context,
        library.widths,
        candidates,
        lambda: dp.run(net, library, candidates),
    )


def _frontier_key(result):
    return [
        (p.delay, p.total_width, p.solution.positions, p.solution.widths)
        for p in result.frontier.points
    ]


# --------------------------------------------------------------------------- #
# disk round-trip
# --------------------------------------------------------------------------- #
def test_frontier_disk_roundtrip_bit_for_bit(mixed_net, tmp_path):
    computed = _run_frontier(mixed_net, WindowCompilationCache(cache_dir=tmp_path))
    assert list(tmp_path.glob("frontier-*.json"))

    fresh = WindowCompilationCache(cache_dir=tmp_path)
    loaded = _run_frontier(mixed_net, fresh)
    stats = fresh.statistics
    assert stats.disk_hits == 1 and stats.frontier_misses == 1
    assert _frontier_key(loaded) == _frontier_key(computed)
    assert loaded.statistics == computed.statistics
    # Second lookup on the same instance is an in-memory hit.
    again = _run_frontier(mixed_net, fresh)
    assert again is loaded
    assert fresh.statistics.frontier_hits == 1


def test_dp_result_payload_roundtrip_is_exact(mixed_net):
    result = _run_frontier(mixed_net, WindowCompilationCache())
    clone = dp_result_from_payload(json.loads(json.dumps(dp_result_to_payload(result))))
    assert _frontier_key(clone) == _frontier_key(result)
    assert clone.statistics == result.statistics
    # Frontier query behaviour is preserved exactly.
    for point in result.frontier.points:
        best = clone.best_for_delay(point.delay)
        assert best is not None and best.total_width == point.total_width


def test_frontier_roundtrip_through_fresh_interpreter(tmp_path):
    """A frontier written by one interpreter is reproduced bit-for-bit by
    another (process-stable keys + exact JSON float round-trip)."""
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    tests_dir = str(Path(__file__).resolve().parent.parent)
    code = f"""
import json, sys
sys.path.insert(0, {tests_dir!r})
from repro.engine.wincache import WindowCompilationCache
from repro.dp.powerdp import PowerAwareDp
from repro.engine.wincache import dp_context_fingerprint
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM
from tests.conftest import build_mixed_net

net = build_mixed_net(NODE_180NM)
cache = WindowCompilationCache(cache_dir={str(tmp_path)!r})
dp = PowerAwareDp(NODE_180NM)
library = RepeaterLibrary.uniform_count(10.0, 40.0, 8)
candidates = (1e-3, 2e-3, 3e-3, 4e-3)
context = dp_context_fingerprint(NODE_180NM, dp._pruning)
result = cache.final_dp_result(net, context, library.widths, candidates,
                               lambda: dp.run(net, library, candidates))
print(json.dumps({{
    "points": [[p.delay, p.total_width, list(p.solution.positions),
                list(p.solution.widths)] for p in result.frontier.points],
    "disk_hits": cache.statistics.disk_hits,
}}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["disk_hits"] == 0  # first interpreter computed
    assert outputs[1]["disk_hits"] == 1  # second one read the disk tier
    assert outputs[0]["points"] == outputs[1]["points"]  # bit-for-bit


# --------------------------------------------------------------------------- #
# eviction discipline
# --------------------------------------------------------------------------- #
def _frontier_file(tmp_path):
    [path] = list(tmp_path.glob("frontier-*.json"))
    return path


def test_corrupted_frontier_file_is_evicted_and_rebuilt(mixed_net, tmp_path):
    computed = _run_frontier(mixed_net, WindowCompilationCache(cache_dir=tmp_path))
    path = _frontier_file(tmp_path)
    path.write_text("{definitely not json", encoding="utf-8")

    fresh = WindowCompilationCache(cache_dir=tmp_path)
    rebuilt = _run_frontier(mixed_net, fresh)
    stats = fresh.statistics
    assert stats.disk_evictions == 1 and stats.disk_hits == 0
    assert _frontier_key(rebuilt) == _frontier_key(computed)
    # The rebuilt entry was re-persisted and is valid again.
    assert json.loads(path.read_text(encoding="utf-8"))["format_version"] == (
        FRONTIER_FORMAT_VERSION
    )


def test_stale_version_and_mismatched_key_frontiers_are_evicted(mixed_net, tmp_path):
    _run_frontier(mixed_net, WindowCompilationCache(cache_dir=tmp_path))
    path = _frontier_file(tmp_path)
    good = json.loads(path.read_text(encoding="utf-8"))

    stale = dict(good, format_version=FRONTIER_FORMAT_VERSION - 1)
    path.write_text(json.dumps(stale), encoding="utf-8")
    fresh = WindowCompilationCache(cache_dir=tmp_path)
    _run_frontier(mixed_net, fresh)
    assert fresh.statistics.disk_evictions == 1

    # Content that does not belong to its file name (foreign embedded key).
    foreign = dict(good, key="0" * len(good["key"]))
    path.write_text(json.dumps(foreign), encoding="utf-8")
    fresh2 = WindowCompilationCache(cache_dir=tmp_path)
    _run_frontier(mixed_net, fresh2)
    assert fresh2.statistics.disk_evictions == 1

    # Structurally broken result payload.
    broken = dict(good)
    broken["result"] = {"points": "nope"}
    path.write_text(json.dumps(broken), encoding="utf-8")
    fresh3 = WindowCompilationCache(cache_dir=tmp_path)
    rebuilt = _run_frontier(mixed_net, fresh3)
    assert fresh3.statistics.disk_evictions == 1
    assert not rebuilt.frontier.is_empty()


def test_non_dp_results_are_not_persisted(mixed_net, tmp_path):
    cache = WindowCompilationCache(cache_dir=tmp_path)
    value = cache.final_dp_result(mixed_net, "ctx", (10.0,), (1e-3,), lambda: "opaque")
    assert value == "opaque"
    assert not list(tmp_path.glob("frontier-*.json"))


# --------------------------------------------------------------------------- #
# one shared cache per engine / per worker process
# --------------------------------------------------------------------------- #
def _methods():
    return [
        MethodSpec.rip_method(),
        MethodSpec.dp_baseline("dp-g40", RepeaterLibrary.uniform_count(10.0, 40.0, 10)),
    ]


def _record_key(result):
    return [
        (r.net_name, r.method, r.target, r.feasible, r.total_width, r.delay)
        for r in result.records()
    ]


def test_engine_shares_one_cache_across_tasks_and_calls(tiny_cases, tech):
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    first = engine.design_population(tiny_cases, _methods())
    assert engine.window_cache is not None
    stats_first = first.statistics.window_cache
    assert stats_first is not None and stats_first.frontier_misses > 0

    # A second sweep on the same engine reuses the very same cache: every
    # frontier comes from memory and the records are bit-identical.
    second = engine.design_population(tiny_cases, _methods())
    stats_second = second.statistics.window_cache
    assert stats_second.frontier_hits > 0
    assert _record_key(first) == _record_key(second)
    # Per-task deltas merge to the engine totals for this sweep.
    assert stats_second.frontier_hits == sum(
        net.cache_statistics.frontier_hits for net in second.nets
    )


def test_engine_disk_backed_cache_survives_engine_restart(tiny_cases, tech, tmp_path):
    def build():
        return DesignEngine(
            tech,
            workers=0,
            store=ProtocolStore(cache_dir=tmp_path),
        )

    cold_engine = build()
    assert cold_engine.window_cache_spec.cache_dir == str(tmp_path / "wincache")
    cold = cold_engine.design_population(tiny_cases, _methods())
    assert list((tmp_path / "wincache").glob("frontier-*.json"))

    warm_engine = build()
    warm = warm_engine.design_population(tiny_cases, _methods())
    assert _record_key(cold) == _record_key(warm)
    assert warm.statistics.window_cache.disk_hits > 0
    # The warm engine answered REFINE from the persisted records too.
    assert warm.statistics.wall_clock_seconds < cold.statistics.wall_clock_seconds


def test_parallel_workers_share_disk_tier_and_match_serial(tiny_cases, tech, tmp_path):
    kwargs = dict(store=ProtocolStore(cache_dir=tmp_path))
    serial = DesignEngine(tech, workers=0, **kwargs).design_population(
        tiny_cases, _methods()
    )
    parallel = DesignEngine(tech, workers=2, **kwargs).design_population(
        tiny_cases, _methods()
    )
    assert _record_key(serial) == _record_key(parallel)
    assert parallel.statistics.window_cache is not None
    assert parallel.statistics.window_cache.disk_hits > 0  # workers read the tier


@pytest.mark.parametrize("workers", [0, 2])
def test_second_pass_answers_refine_from_the_memo(tiny_cases, tech, tmp_path, workers):
    """The same cases twice through one engine: the second pass computes no
    REFINE run and repeats the first pass's records, runtime aside.

    Serially the engine-lifetime memo answers from memory.  A worker pool
    lives for one sweep, so with ``workers=2`` the second pass's fresh
    workers reach the first pass's records through the memo's disk tier.
    """

    def rows(result):
        return [
            {k: v for k, v in asdict(r).items() if k != "runtime_seconds"}
            for r in result.records()
        ]

    store = ProtocolStore(cache_dir=tmp_path if workers else None)
    engine = DesignEngine(tech, workers=workers, store=store)
    try:
        first = engine.design_population(tiny_cases, [MethodSpec.rip_method()])
        second = engine.design_population(tiny_cases, [MethodSpec.rip_method()])
    finally:
        engine.close()
    designs = len(first.records())
    assert designs == len(tiny_cases) * TINY.targets_per_net
    assert first.statistics.window_cache.refine_cold_runs == designs
    assert second.statistics.window_cache.refine_cold_runs == 0
    assert second.statistics.window_cache.refine_hits == designs
    assert rows(second) == rows(first)


def test_attach_window_cache_is_idempotent_per_process(tmp_path):
    spec = WindowCacheSpec(enabled=True, cache_dir=str(tmp_path), max_entries=64)
    first = _attach_window_cache(spec)
    second = _attach_window_cache(spec)
    assert second is first
    other = _attach_window_cache(WindowCacheSpec(enabled=True, cache_dir=None))
    assert other is not first
    assert _attach_window_cache(WindowCacheSpec(enabled=False)) is None
    # Equal budgets, no directory: distinct partitions still get distinct caches.
    tenant = _attach_window_cache(WindowCacheSpec(partition="teamA"))
    assert tenant is not _attach_window_cache(WindowCacheSpec(partition="teamB"))


def test_engine_statistics_surface_store_counters(tech, tmp_path):
    engine = DesignEngine(tech, workers=0, store=ProtocolStore(cache_dir=tmp_path))
    result = engine.design_population(
        methods=[MethodSpec.rip_method()],
        technologies=[tech],
        protocol=TINY,
    )
    # The population was built inside the sweep: one build, no hits yet.
    assert result.statistics.store.builds == 1
    again = engine.design_population(
        methods=[MethodSpec.rip_method()],
        technologies=[tech],
        protocol=TINY,
    )
    assert again.statistics.store.builds == 0
    assert again.statistics.store.memory_hits == 1
    assert engine.store_statistics.builds == 1


# --------------------------------------------------------------------------- #
# CLI observability
# --------------------------------------------------------------------------- #
def test_cli_sweep_prints_cache_counters(tmp_path, capsys):
    from repro.cli.main import main

    argv = [
        "sweep",
        "--nets",
        "1",
        "--targets",
        "3",
        "--seed",
        "13",
        "--methods",
        "rip",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert "window cache:" in cold_out
    assert "protocol store: 1 builds" in cold_out

    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    assert "disk hits" in warm_out
    assert "protocol store: 0 builds" in warm_out


def test_rip_window_cache_disk_tier_serves_repeated_runs(tmp_path, tiny_cases, tech):
    """Rip + explicit disk-backed cache: the service restart scenario."""
    case = tiny_cases[0]

    def run():
        rip = Rip(tech, window_cache=WindowCompilationCache(cache_dir=tmp_path))
        prepared = rip.prepare(case.net)
        outcomes = [
            (
                t,
                r.feasible,
                r.total_width,
                r.delay,
                r.solution.positions,
                r.solution.widths,
                r.states_generated,
            )
            for t, r in ((t, rip.run_prepared(prepared, t)) for t in case.targets)
        ]
        return outcomes, rip.window_cache.statistics

    cold, cold_stats = run()
    warm, warm_stats = run()
    assert warm == cold
    assert cold_stats.disk_hits == 0
    assert warm_stats.disk_hits > 0


# --------------------------------------------------------------------------- #
# frontier disk budget (LRU, mtime recency)
# --------------------------------------------------------------------------- #
def _write_frontiers(cache, net, count):
    """Persist ``count`` distinct frontier entries for ``net``."""
    dp = PowerAwareDp(NODE_180NM)
    library = RepeaterLibrary.uniform_count(10.0, 40.0, 4)
    context = dp_context_fingerprint(NODE_180NM, dp._pruning)
    for k in range(count):
        candidates = (1e-3 + k * 1e-4, 2e-3 + k * 1e-4)
        cache.final_dp_result(
            net,
            context,
            library.widths,
            candidates,
            lambda candidates=candidates: dp.run(net, library, candidates),
        )


def test_frontier_disk_budget_lru(mixed_net, tmp_path):
    cache = WindowCompilationCache(cache_dir=tmp_path, max_files=3)
    _write_frontiers(cache, mixed_net, 6)
    files = sorted(tmp_path.glob("frontier-*.json"))
    assert len(files) == 3
    assert cache.statistics.disk_evictions >= 3
    # The budget keeps the most recently used files: re-running the last
    # three candidates is served from disk, not recomputed.
    fresh = WindowCompilationCache(cache_dir=tmp_path, max_files=3)
    dp = PowerAwareDp(NODE_180NM)
    library = RepeaterLibrary.uniform_count(10.0, 40.0, 4)
    context = dp_context_fingerprint(NODE_180NM, dp._pruning)
    for k in range(3, 6):
        candidates = (1e-3 + k * 1e-4, 2e-3 + k * 1e-4)
        fresh.final_dp_result(
            mixed_net,
            context,
            library.widths,
            candidates,
            lambda candidates=candidates: dp.run(mixed_net, library, candidates),
        )
    assert fresh.statistics.disk_hits == 3


def test_frontier_disk_budget_saved_file_survives(mixed_net, tmp_path):
    """Even with max_files=1 the file just saved survives its own save."""
    cache = WindowCompilationCache(cache_dir=tmp_path, max_files=1)
    _write_frontiers(cache, mixed_net, 4)
    files = list(tmp_path.glob("frontier-*.json"))
    assert len(files) == 1


def test_frontier_disk_budget_max_bytes(mixed_net, tmp_path):
    cache = WindowCompilationCache(cache_dir=tmp_path, max_bytes=1)
    _write_frontiers(cache, mixed_net, 3)
    # The size budget keeps only the most recent (just-saved) file.
    assert len(list(tmp_path.glob("frontier-*.json"))) == 1


def test_frontier_gc_on_demand(mixed_net, tmp_path):
    unbounded = WindowCompilationCache(cache_dir=tmp_path, max_files=None)
    _write_frontiers(unbounded, mixed_net, 5)
    assert len(list(tmp_path.glob("frontier-*.json"))) == 5
    collector = WindowCompilationCache(cache_dir=tmp_path, max_files=2)
    evicted = collector.gc()
    assert evicted == 3
    assert len(list(tmp_path.glob("frontier-*.json"))) == 2
    # A second GC is a no-op.
    assert collector.gc() == 0


def test_frontier_budget_disabled(mixed_net, tmp_path):
    cache = WindowCompilationCache(cache_dir=tmp_path, max_files=None)
    _write_frontiers(cache, mixed_net, 5)
    assert len(list(tmp_path.glob("frontier-*.json"))) == 5
    assert cache.gc() == 0
