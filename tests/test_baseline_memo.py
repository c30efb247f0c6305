"""The window cache's baseline memo: ``dp-g*`` answers kept in memory and on disk.

A ``dp-g*`` method's per-target answers on one net are a pure function of
(net, dp context, library, candidates, targets), so the window cache keeps
them as a third kind of DP-memo entry beside RIP's frontiers and the tree
solutions, through the same keyed-memo path and disk tier.  Covers:

* the bit-exact round trip, null (infeasible) answers and statistics
  included, and the engine-level restart, whose records equal the cold
  ones field for field (the stored runtime is replayed);
* evict-on-corruption and a miss whenever one key part changes;
* pooled sweeps equal serial ones in records and counters;
* frontier and tree files in the layout written before the memo had
  three kinds still hit;
* Table 2 run twice on one cache directory.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest

from repro.dp.powerdp import DpStatistics, PowerAwareDp
from repro.dp.pruning import PruningConfig
from repro.engine import design as design_module
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.compiled import CompiledNet
from repro.engine.design import DesignEngine, MethodSpec, build_htree_cases
from repro.engine.wincache import (
    FRONTIER_FORMAT_VERSION,
    BaselineAnswers,
    WindowCompilationCache,
    dp_context_fingerprint,
    dp_result_to_payload,
    net_fingerprint,
    tree_fingerprint,
    tree_solutions_to_payload,
)
from repro.experiments.table2 import Table2Config, run_table2
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_90NM, NODE_180NM
from repro.tree.buffering import TreePowerDp
from repro.utils.canonical import stable_digest

TINY = ProtocolConfig(num_nets=2, targets_per_net=4, seed=13)
DP_G10 = MethodSpec.dp_baseline("dp-g10", RepeaterLibrary.uniform(10.0, 400.0, 10.0))
DP_G40 = MethodSpec.dp_baseline("dp-g40", RepeaterLibrary.uniform(10.0, 400.0, 40.0))


@pytest.fixture(scope="module")
def tiny_cases():
    return ProtocolStore().cases(TINY)


def _never():
    raise AssertionError("the memo should have answered")


def _answers(case, library, targets):
    """What ``_design_dp`` computes on a miss (with a fixed runtime)."""
    dp = PowerAwareDp(NODE_180NM)
    compiled = CompiledNet(case.net, case.candidates)
    points, statistics = dp.run_many(case.net, library, targets, compiled=compiled)
    return BaselineAnswers(tuple(points), statistics, 0.125)


def _lookup(
    cache, case, library, targets, factory, *, pruning=None, technology=NODE_180NM
):
    context = dp_context_fingerprint(technology, pruning or PruningConfig())
    return cache.baseline_answers(
        case.net, context, library.widths, case.candidates, targets, factory
    )


def _files(directory):
    return sorted(directory.glob("frontier-*.json"))


# --------------------------------------------------------------------------- #
# round trip
# --------------------------------------------------------------------------- #
def test_round_trip_is_bit_exact_with_null_answers(tiny_cases, tmp_path):
    case = tiny_cases[0]
    # Half of tau_min is below anything the library reaches: a null answer.
    targets = (0.5 * case.tau_min,) + case.targets
    library = DP_G10.library  # 40 widths: the incumbent + bounded passes
    computed = _lookup(
        WindowCompilationCache(cache_dir=tmp_path),
        case,
        library,
        targets,
        lambda: _answers(case, library, targets),
    )
    assert computed.points[0] is None
    assert all(point is not None for point in computed.points[1:])
    [path] = _files(tmp_path)
    assert json.loads(path.read_text(encoding="utf-8"))["kind"] == "baseline"

    fresh = WindowCompilationCache(cache_dir=tmp_path)
    loaded = _lookup(fresh, case, library, targets, _never)
    assert fresh.statistics.disk_hits == 1 and fresh.statistics.frontier_misses == 1
    # Dataclass equality: every point (delay, width, positions, widths), the
    # DpStatistics and the runtime, bit for bit.
    assert loaded == computed
    assert _lookup(fresh, case, library, targets, _never) is loaded
    assert fresh.statistics.frontier_hits == 1


def _record_rows(result):
    return [dataclasses.asdict(record) for record in result.records()]


def test_restart_replays_records_runtime_and_states(
    tiny_cases, tech, tmp_path, monkeypatch
):
    def sweep():
        engine = DesignEngine(tech, workers=0, store=ProtocolStore(cache_dir=tmp_path))
        try:
            return engine.design_population(tiny_cases, [DP_G10, DP_G40])
        finally:
            engine.close()

    cold = sweep()
    runs = []

    class CountingDp(design_module.PowerAwareDp):
        def run_many(self, *args, **kwargs):
            runs.append(args[0].name)
            return super().run_many(*args, **kwargs)

    monkeypatch.setattr(design_module, "PowerAwareDp", CountingDp)
    warm = sweep()
    assert runs == []
    # Records equal field for field, runtime included: a hit replays the
    # runtime of the run that computed the answers.
    assert _record_rows(warm) == _record_rows(cold)
    for warm_net, cold_net in zip(warm.nets, cold.nets):
        assert warm_net.method_runtimes == cold_net.method_runtimes
        assert warm_net.states_generated == cold_net.states_generated
    stats = warm.statistics.window_cache
    assert stats.disk_hits == 2 * len(tiny_cases)
    # Compilation happens on a miss only.
    assert stats.compiled_hits == stats.compiled_misses == 0


# --------------------------------------------------------------------------- #
# eviction discipline
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("damage", ["corrupt", "stale-version", "foreign-key"])
def test_damaged_file_is_evicted_and_rebuilt(tiny_cases, tmp_path, damage):
    case = tiny_cases[1]
    library = DP_G40.library
    targets = case.targets
    computed = _lookup(
        WindowCompilationCache(cache_dir=tmp_path),
        case,
        library,
        targets,
        lambda: _answers(case, library, targets),
    )
    [path] = _files(tmp_path)
    good = json.loads(path.read_text(encoding="utf-8"))
    if damage == "corrupt":
        path.write_text("{not json", encoding="utf-8")
    elif damage == "stale-version":
        path.write_text(json.dumps(dict(good, format_version=0)), encoding="utf-8")
    else:
        # Content that does not belong to its file name.
        foreign = dict(good, targets=[2.0 * target for target in good["targets"]])
        path.write_text(json.dumps(foreign), encoding="utf-8")

    fresh = WindowCompilationCache(cache_dir=tmp_path)
    rebuilt = _lookup(fresh, case, library, targets, lambda: computed)
    stats = fresh.statistics
    assert (stats.disk_evictions, stats.disk_hits, stats.disk_misses) == (1, 0, 1)
    assert rebuilt == computed
    assert json.loads(path.read_text(encoding="utf-8")) == good  # re-persisted


# --------------------------------------------------------------------------- #
# key parts
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "part", ["library", "candidates", "targets", "pruning", "technology"]
)
def test_any_key_part_change_misses(tiny_cases, tmp_path, part):
    case = tiny_cases[0]
    library, targets = DP_G40.library, case.targets
    stored = BaselineAnswers((None,) * len(targets), DpStatistics(1, 1, 1, 1, 0.5), 1.0)
    cache = WindowCompilationCache(cache_dir=tmp_path)
    _lookup(cache, case, library, targets, lambda: stored)

    kwargs = {}
    if part == "library":
        library = RepeaterLibrary.uniform(10.0, 400.0, 30.0)
    elif part == "candidates":
        case = dataclasses.replace(case, candidates=case.candidates[1:])
    elif part == "targets":
        targets = targets[:-1]
    elif part == "pruning":
        kwargs["pruning"] = PruningConfig(width_tolerance=5.0)
    else:
        kwargs["technology"] = NODE_90NM
    calls = []
    fresh = WindowCompilationCache(cache_dir=tmp_path)
    _lookup(fresh, case, library, targets, lambda: calls.append(1) or stored, **kwargs)
    assert calls == [1]
    assert fresh.statistics.disk_hits == 0
    assert len(_files(tmp_path)) == 2


def test_engine_keys_by_its_pruning_and_technology(
    tiny_cases, tech, tmp_path, monkeypatch
):
    """The engine keys each baseline by the DP that computes it.  No
    setting builds a DP at other tolerances, so the test swaps one in."""

    def disk_hits(technology=tech):
        engine = DesignEngine(tech, workers=0, store=ProtocolStore(cache_dir=tmp_path))
        try:
            result = engine.design_population(
                tiny_cases[:1], [DP_G40], technology=technology
            )
        finally:
            engine.close()
        return result.statistics.window_cache.disk_hits

    assert disk_hits() == 0
    assert disk_hits() == 1
    assert disk_hits(technology=NODE_90NM) == 0
    monkeypatch.setattr(
        design_module,
        "PowerAwareDp",
        functools.partial(PowerAwareDp, pruning=PruningConfig(width_tolerance=5.0)),
    )
    assert disk_hits() == 0


# --------------------------------------------------------------------------- #
# pooled == serial
# --------------------------------------------------------------------------- #
def test_pooled_equals_serial_in_records_and_counters(tiny_cases, tech, tmp_path):
    def two_passes(workers, directory):
        rows, counters = [], []
        for _ in range(2):
            engine = DesignEngine(
                tech, workers=workers, store=ProtocolStore(cache_dir=directory)
            )
            try:
                result = engine.design_population(tiny_cases, [DP_G10, DP_G40])
            finally:
                engine.close()
            rows.append(
                [
                    {
                        k: v
                        for k, v in dataclasses.asdict(r).items()
                        if k != "runtime_seconds"
                    }
                    for r in result.records()
                ]
            )
            # ``entries`` is a per-process gauge; every counter compares.
            counters.append(
                dataclasses.replace(result.statistics.window_cache, entries=0)
            )
        return rows, counters

    serial_rows, serial_counters = two_passes(0, tmp_path / "serial")
    pooled_rows, pooled_counters = two_passes(2, tmp_path / "pooled")
    assert pooled_rows == serial_rows
    assert serial_rows[0] == serial_rows[1]
    assert pooled_counters == serial_counters
    assert serial_counters[1].disk_hits == 2 * len(tiny_cases)


# --------------------------------------------------------------------------- #
# files in the pre-existing layouts still hit
# --------------------------------------------------------------------------- #
def _write_by_hand(directory, fields, result_payload):
    """A DP-memo file exactly as the frontier and tree tiers have written
    it: the ``kind`` tag (trees only) after ``format_version``, then the
    digest of the other fields, the fields and the result."""
    digest = stable_digest(fields)
    payload = {"format_version": FRONTIER_FORMAT_VERSION}
    if "kind" in fields:
        payload["kind"] = fields["kind"]
    payload["key"] = digest
    payload.update((name, value) for name, value in fields.items() if name != "kind")
    payload["result"] = result_payload
    path = directory / f"frontier-{digest}.json"
    text = json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return path, text


def test_hand_written_frontier_file_hits(mixed_net, tmp_path):
    dp = PowerAwareDp(NODE_180NM)
    library = RepeaterLibrary.uniform_count(10.0, 40.0, 8)
    candidates = (1e-3, 2e-3, 3e-3, 4e-3)
    context = dp_context_fingerprint(NODE_180NM, dp._pruning)
    result = dp.run(mixed_net, library, candidates)
    fields = {
        "net": net_fingerprint(mixed_net),
        "context": context,
        "library": list(library.widths),
        "candidates": list(candidates),
    }
    path, text = _write_by_hand(tmp_path, fields, dp_result_to_payload(result))

    cache = WindowCompilationCache(cache_dir=tmp_path)
    loaded = cache.final_dp_result(
        mixed_net, context, library.widths, candidates, _never
    )
    assert cache.statistics.disk_hits == 1
    assert loaded.frontier.points == result.frontier.points
    # A computed entry is written byte for byte in the same layout.
    path.unlink()
    WindowCompilationCache(cache_dir=tmp_path).final_dp_result(
        mixed_net, context, library.widths, candidates, lambda: result
    )
    assert path.read_text(encoding="utf-8") == text


def test_hand_written_tree_file_hits(tech, tmp_path):
    [case] = build_htree_cases(tech, count=1, levels=2)
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    solutions = TreePowerDp(
        tech, site_pitch=case.site_pitch, max_states_per_node=case.max_states_per_node
    ).run_many(case.tree, library, case.targets)
    context = "tree-context"
    fields = {
        "kind": "tree",
        "tree": tree_fingerprint(case.tree),
        "context": context,
        "targets": list(case.targets),
    }
    path, text = _write_by_hand(tmp_path, fields, tree_solutions_to_payload(solutions))

    cache = WindowCompilationCache(cache_dir=tmp_path)
    loaded = cache.tree_solutions(case.tree, context, case.targets, _never)
    assert cache.statistics.disk_hits == 1
    assert loaded == solutions
    path.unlink()
    WindowCompilationCache(cache_dir=tmp_path).tree_solutions(
        case.tree, context, case.targets, lambda: solutions
    )
    assert path.read_text(encoding="utf-8") == text


# --------------------------------------------------------------------------- #
# Table 2 on a warm cache directory
# --------------------------------------------------------------------------- #
def test_table2_rerun_replays_dp_runtimes_without_dp_runs(tmp_path, monkeypatch):
    config = Table2Config(
        protocol=ProtocolConfig(num_nets=2, targets_per_net=3, seed=7),
        granularities=(40.0, 20.0),
    )

    def table2():
        engine = DesignEngine(
            config.protocol.technology,
            rip_config=config.rip,
            store=ProtocolStore(cache_dir=tmp_path),
        )
        try:
            return run_table2(config, engine=engine)
        finally:
            engine.close()

    cold = table2()
    runs = []
    original = PowerAwareDp.run

    def counting_run(self, *args, **kwargs):
        runs.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PowerAwareDp, "run", counting_run)
    warm = table2()
    assert runs == []
    assert [row.dp_runtime_seconds for row in warm.rows] == [
        row.dp_runtime_seconds for row in cold.rows
    ]
    assert [row.average_saving_percent for row in warm.rows] == [
        row.average_saving_percent for row in cold.rows
    ]
