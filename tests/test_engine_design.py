"""Tests for the batch DesignEngine, the protocol store and the CLI sweep."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.rip import InfeasibleNetError, PreparedNet, Rip, RipConfig
from repro.dp.candidates import uniform_candidates
from repro.dp.frontier import DelayWidthFrontier
from repro.dp.powerdp import DpStatistics, PowerAwareDp, PowerDpResult
from repro.dp.vanginneken import DelayOptimalDp
from repro.engine.cache import (
    ProtocolConfig,
    ProtocolStore,
    default_store,
    protocol_key,
    timing_targets,
)
from repro.engine.design import DesignEngine, MethodSpec, TargetSpec, build_htree_cases
from repro.tech.library import RepeaterLibrary
from repro.utils.validation import ValidationError

TINY = ProtocolConfig(num_nets=2, targets_per_net=4, seed=13)


@pytest.fixture(scope="module")
def tiny_store():
    return ProtocolStore()


@pytest.fixture(scope="module")
def tiny_cases(tiny_store):
    return tiny_store.cases(TINY)


def _methods():
    return [
        MethodSpec.rip_method(),
        MethodSpec.dp_baseline("dp-g40", RepeaterLibrary.uniform_count(10.0, 40.0, 10)),
    ]


TREE_METHOD = MethodSpec.tree_method("tree-g40", RepeaterLibrary.uniform(40.0, 240.0, 40.0))


@pytest.fixture(scope="module")
def mixed_cases(tiny_cases, tech):
    """Two nets and two H-trees, interleaved, in one population."""
    trees = build_htree_cases(tech, count=2, levels=2)
    return [tiny_cases[0], trees[0], tiny_cases[1], trees[1]]


def _sweep(tech, cases, methods, workers=0):
    with DesignEngine(tech, workers=workers, store=ProtocolStore()) as engine:
        return engine.design_population(cases, methods)


def _stripped(nets):
    """Per-entry record dicts minus runtime_seconds (nondeterministic)."""
    return [
        [
            {k: v for k, v in dataclasses.asdict(r).items() if k != "runtime_seconds"}
            for r in net.records
        ]
        for net in nets
    ]


# --------------------------------------------------------------------------- #
# protocol store
# --------------------------------------------------------------------------- #
def test_store_builds_cases_with_tau_min(tiny_cases, tech):
    assert len(tiny_cases) == TINY.num_nets
    delay_dp = DelayOptimalDp(tech)
    for case in tiny_cases:
        assert case.targets == timing_targets(case.tau_min, count=TINY.targets_per_net)
        direct = delay_dp.minimum_delay(
            case.net, TINY.tau_min_library, uniform_candidates(case.net, TINY.tau_min_pitch)
        )
        assert case.tau_min == direct


def test_store_memoizes_in_memory(tiny_store, tiny_cases):
    assert tiny_store.cases(TINY) is tiny_cases


def test_store_disk_roundtrip_is_exact(tmp_path, tiny_cases):
    first = ProtocolStore(cache_dir=tmp_path)
    built = first.cases(TINY)
    assert (tmp_path / f"protocol-{protocol_key(TINY)}.json").is_file()
    second = ProtocolStore(cache_dir=tmp_path)
    loaded = second.cases(TINY)
    assert loaded is not built
    for a, b in zip(built, loaded):
        assert a.tau_min == b.tau_min
        assert a.targets == b.targets
        assert a.candidates == b.candidates
        assert a.net.segments == b.net.segments
        assert a.net.forbidden_zones == b.net.forbidden_zones


def test_protocol_key_distinguishes_configs():
    base = protocol_key(TINY)
    assert protocol_key(dataclasses.replace(TINY, seed=14)) != base
    assert protocol_key(dataclasses.replace(TINY, num_nets=3)) != base
    assert protocol_key(TINY) == base


def test_protocol_key_stable_across_interpreter_runs():
    """Regression: keys must be byte-identical across processes.

    The old ``json.dumps(..., default=repr)`` serializer embedded memory
    addresses for bare objects, so a key could change between interpreter
    runs.  Two fresh interpreters (with different hash randomization, which
    must not matter either) must agree with each other and with this
    process.
    """
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from repro.engine.cache import ProtocolConfig, protocol_key;"
        "print(protocol_key(ProtocolConfig(num_nets=2, targets_per_net=4, seed=13)))"
    )
    keys = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        keys.append(result.stdout.strip())
    assert keys[0] == keys[1] == protocol_key(TINY)


def test_protocol_key_rejects_unserializable_technology():
    """The strict serializer raises instead of hashing an unstable repr."""
    from repro.utils.canonical import CanonicalizationError

    class OpaquePower:
        pass

    technology = dataclasses.replace(TINY.technology, power=OpaquePower())
    with pytest.raises(CanonicalizationError):
        protocol_key(dataclasses.replace(TINY, technology=technology))


def _store_path(tmp_path):
    return tmp_path / f"protocol-{protocol_key(TINY)}.json"


def test_store_evicts_stale_format_version(tmp_path):
    store = ProtocolStore(cache_dir=tmp_path)
    path = _store_path(tmp_path)
    path.write_text(json.dumps({"format_version": -1, "cases": []}), encoding="utf-8")
    cases = store.cases(TINY)  # evicts, then rebuilds and re-saves
    assert len(cases) == TINY.num_nets
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["format_version"] == ProtocolStore.FORMAT_VERSION
    assert len(data["cases"]) == TINY.num_nets


def test_store_evicts_corrupted_cache_file(tmp_path):
    store = ProtocolStore(cache_dir=tmp_path)
    path = _store_path(tmp_path)
    path.write_text("{not json at all", encoding="utf-8")
    cases = store.cases(TINY)
    assert len(cases) == TINY.num_nets
    assert json.loads(path.read_text(encoding="utf-8"))["key"] == protocol_key(TINY)


def test_store_evicts_key_and_net_version_mismatches(tmp_path):
    from repro.engine.cache import NET_FORMAT_VERSION

    # A payload whose embedded key does not match its file name.
    store = ProtocolStore(cache_dir=tmp_path)
    path = _store_path(tmp_path)
    path.write_text(
        json.dumps(
            {
                "format_version": ProtocolStore.FORMAT_VERSION,
                "net_format_version": NET_FORMAT_VERSION,
                "key": "not-the-right-key",
                "cases": [],
            }
        ),
        encoding="utf-8",
    )
    assert len(store.cases(TINY)) == TINY.num_nets

    # An entry written before a net-serialization bump.
    store2 = ProtocolStore(cache_dir=tmp_path)
    path.write_text(
        json.dumps(
            {
                "format_version": ProtocolStore.FORMAT_VERSION,
                "net_format_version": NET_FORMAT_VERSION - 1,
                "key": protocol_key(TINY),
                "cases": [],
            }
        ),
        encoding="utf-8",
    )
    assert len(store2.cases(TINY)) == TINY.num_nets
    assert (
        json.loads(path.read_text(encoding="utf-8"))["net_format_version"]
        == NET_FORMAT_VERSION
    )


def test_default_store_follows_repro_cache_dir(monkeypatch, tmp_path):
    """The process-wide store tracks the variable instead of latching it."""
    from repro.tech.nodes import NODE_180NM

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert default_store().cache_dir == tmp_path
    assert default_store() is default_store()  # unchanged value: one memo
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_store().cache_dir is None
    assert DesignEngine(NODE_180NM).store.cache_dir is None


# --------------------------------------------------------------------------- #
# engine vs. a hand-rolled seed-style harness (golden equivalence)
# --------------------------------------------------------------------------- #
def test_engine_records_match_hand_rolled_loop(tiny_cases, tech):
    rip_config = RipConfig()
    engine = DesignEngine(tech, rip_config=rip_config, workers=0, store=ProtocolStore())
    methods = _methods()
    population = engine.design_population(tiny_cases, methods)

    rip = Rip(tech, rip_config)
    dp = PowerAwareDp(tech, pruning=rip_config.pruning)
    library = methods[1].library
    for case, net_result in zip(tiny_cases, population.nets):
        frontier = dp.run(case.net, library, case.candidates)
        prepared = rip.prepare(case.net)
        for record_rip, record_dp, target in zip(
            net_result.records_for("rip"), net_result.records_for("dp-g40"), case.targets
        ):
            outcome = rip.run_prepared(prepared, target)
            assert record_rip.feasible == outcome.feasible
            if outcome.feasible:
                assert record_rip.total_width == outcome.total_width
                assert record_rip.delay == outcome.delay
            point = frontier.best_for_delay(target)
            assert record_dp.feasible == (point is not None)
            if point is not None:
                assert record_dp.total_width == point.total_width
                assert record_dp.delay == point.delay


def test_engine_parallel_matches_serial(mixed_cases, tech):
    """Nets and trees share one pool; both classes must match the serial run."""
    methods = _methods() + [TREE_METHOD]
    serial = _sweep(tech, mixed_cases, methods, workers=0)
    parallel = _sweep(tech, mixed_cases, methods, workers=2)
    assert parallel.methods == serial.methods
    assert _stripped(parallel.nets) == _stripped(serial.nets)
    assert [net.states_generated for net in parallel.nets] == [
        net.states_generated for net in serial.nets
    ]
    assert [sorted(net.method_runtimes) for net in parallel.nets] == [
        sorted(net.method_runtimes) for net in serial.nets
    ]
    # Workers compile what they design through their own window caches, so
    # every cache counter matches the serial sweep; only the ``entries``
    # gauge is per process.
    assert dataclasses.replace(
        parallel.statistics.window_cache, entries=0
    ) == dataclasses.replace(serial.statistics.window_cache, entries=0)


def test_mixed_population_matches_single_class_sweeps(mixed_cases, tech):
    """Each entry is designed by its own class's methods only, exactly as a
    sweep of that class alone designs it."""
    mixed = _sweep(tech, mixed_cases, _methods() + [TREE_METHOD])
    assert [net.population_class for net in mixed.nets] == [
        "twopin", "tree", "twopin", "tree"
    ]
    for net in mixed.nets:
        own = {"rip", "dp-g40"} if net.population_class == "twopin" else {"tree-g40"}
        assert not net.failed
        assert {record.method for record in net.records} == own
        assert set(net.method_runtimes) == own
    nets = _sweep(tech, mixed_cases[0::2], _methods())
    trees = _sweep(tech, mixed_cases[1::2], [TREE_METHOD])
    assert _stripped(mixed.nets[0::2]) == _stripped(nets.nets)
    assert _stripped(mixed.nets[1::2]) == _stripped(trees.nets)
    assert [net.states_generated for net in mixed.nets] == [
        nets.nets[0].states_generated, trees.nets[0].states_generated,
        nets.nets[1].states_generated, trees.nets[1].states_generated,
    ]


def test_engine_target_spec_resweeps(tiny_cases, tech):
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    spec = TargetSpec(count=3, min_factor=1.2, max_factor=1.8)
    population = engine.design_population(tiny_cases[:1], _methods(), targets=spec)
    net_result = population.nets[0]
    assert net_result.targets == spec.targets_for(net_result.tau_min)
    assert len(net_result.records_for("rip")) == 3


def test_engine_statistics(tiny_cases, tech):
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    population = engine.design_population(tiny_cases, _methods())
    stats = population.statistics
    assert stats.num_designs == len(population.records())
    assert stats.states_generated > 0
    assert stats.states_per_second > 0
    assert population.net(tiny_cases[0].net.name).net_name == tiny_cases[0].net.name
    with pytest.raises(KeyError):
        population.net("nope")


def test_engine_close_runs_cache_gc(tmp_path, tiny_cases, tech):
    calls = []
    with DesignEngine(
        tech,
        workers=0,
        store=ProtocolStore(),
        window_cache_dir=str(tmp_path / "wincache"),
    ) as engine:
        cache = engine.window_cache
        assert cache is not None and cache.cache_dir is not None
        original_gc = cache.gc
        cache.gc = lambda: calls.append(True) or original_gc()
        engine.design_population(tiny_cases[:1], _methods())
    assert calls  # __exit__ → close() applied the disk budgets


def test_engine_close_is_idempotent(tech):
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    engine.close()
    engine.close()


def test_method_spec_validation():
    with pytest.raises(ValidationError):
        MethodSpec(name="dp", kind="dp")  # dp without library
    with pytest.raises(ValidationError):
        MethodSpec(name="x", kind="magic")
    engine_methods = [MethodSpec.rip_method(), MethodSpec.rip_method()]
    from repro.tech.nodes import NODE_180NM

    engine = DesignEngine(NODE_180NM)
    with pytest.raises(ValidationError):
        engine.design_population([], engine_methods)  # duplicate names


# --------------------------------------------------------------------------- #
# multi-technology sweeps
# --------------------------------------------------------------------------- #
MULTI = ProtocolConfig(num_nets=1, targets_per_net=3, seed=13)


@pytest.fixture(scope="module")
def multi_tech_result(tech):
    from repro.tech.nodes import NODE_90NM

    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    return engine, engine.design_population(
        methods=_methods(), technologies=[tech, NODE_90NM], protocol=MULTI
    )


def test_multi_technology_sweep_covers_every_node(multi_tech_result):
    _, result = multi_tech_result
    assert result.technologies == ("cmos180", "cmos90")
    for name in result.technologies:
        nets = result.for_technology(name)
        assert len(nets) == MULTI.num_nets
        for net_result in nets:
            assert net_result.technology == name
            assert not net_result.failed
            assert all(record.technology == name for record in net_result.records)
            # rip + dp methods, each answering every target
            assert len(net_result.records) == 2 * MULTI.targets_per_net
    with pytest.raises(KeyError):
        result.for_technology("cmos3")


def test_multi_technology_primary_slice_matches_single_tech_run(multi_tech_result, tech):
    engine, result = multi_tech_result
    single = engine.design_population(engine.build_cases(MULTI), _methods())
    key = lambda nets: [
        (r.net_name, r.method, r.target, r.feasible, r.total_width, r.delay)
        for net in nets
        for r in net.records
    ]
    assert key(result.for_technology(tech.name)) == key(single.nets)


def test_multi_technology_parallel_matches_serial(tech):
    from repro.tech.nodes import NODE_90NM

    kwargs = dict(methods=_methods(), technologies=[tech, NODE_90NM], protocol=MULTI)
    store = ProtocolStore()
    serial = DesignEngine(tech, workers=0, store=store).design_population(**kwargs)
    parallel = DesignEngine(tech, workers=2, store=store).design_population(**kwargs)
    key = lambda result: [
        (r.technology, r.net_name, r.method, r.target, r.feasible, r.total_width, r.delay)
        for r in result.records()
    ]
    assert key(serial) == key(parallel)


def test_multi_technology_stores_sit_side_by_side(tmp_path, tech):
    from repro.engine.cache import protocol_key as key_of
    from repro.tech.nodes import NODE_90NM

    engine = DesignEngine(tech, workers=0, store=ProtocolStore(cache_dir=tmp_path))
    engine.design_population(
        methods=[MethodSpec.rip_method()], technologies=[tech, NODE_90NM], protocol=MULTI
    )
    primary_key = key_of(MULTI)
    scaled_key = key_of(engine.protocol_for(MULTI, NODE_90NM))
    assert (tmp_path / f"protocol-{primary_key}.json").is_file()
    assert (tmp_path / "cmos90" / f"protocol-{scaled_key}.json").is_file()
    assert engine.store_for(NODE_90NM).cache_dir == tmp_path / "cmos90"


def test_protocol_for_adapts_layers_to_scaled_nodes(tech):
    from repro.tech.nodes import NODE_90NM

    adapted = DesignEngine.protocol_for(MULTI, NODE_90NM)
    assert adapted.technology is NODE_90NM
    assert all(layer in NODE_90NM.layers for layer in adapted.net_config.layers)
    assert len(adapted.net_config.layers) == len(MULTI.net_config.layers)
    # The primary node keeps its configured layers untouched.
    assert DesignEngine.protocol_for(MULTI, tech).net_config.layers == (
        MULTI.net_config.layers
    )


def test_design_population_argument_validation(tech):
    from repro.tech.nodes import NODE_90NM

    engine = DesignEngine(tech, store=ProtocolStore())
    with pytest.raises(ValidationError):
        engine.design_population(methods=_methods())  # no cases, no technologies
    with pytest.raises(ValidationError):
        engine.design_population(
            methods=_methods(), technologies=[NODE_90NM], protocol=None
        )
    with pytest.raises(ValidationError):
        engine.design_population(
            [], _methods(), technologies=[NODE_90NM], protocol=MULTI
        )
    with pytest.raises(ValidationError):
        engine.design_population(
            methods=_methods(), technologies=[tech, tech], protocol=MULTI
        )


# --------------------------------------------------------------------------- #
# InfeasibleNetError (satellite bugfix)
# --------------------------------------------------------------------------- #
def _empty_dp_result():
    statistics = DpStatistics(
        num_candidates=0,
        library_size=0,
        states_generated=0,
        max_front_size=0,
        runtime_seconds=0.0,
    )
    return PowerDpResult(frontier=DelayWidthFrontier([]), statistics=statistics)


def _empty_prepared(net):
    return PreparedNet(
        net=net, coarse_result=_empty_dp_result(), coarse_candidates=(), preparation_seconds=0.0
    )


def test_rip_raises_infeasible_on_empty_coarse_frontier(tech, uniform_net):
    rip = Rip(tech)
    with pytest.raises(InfeasibleNetError) as excinfo:
        rip.run_prepared(_empty_prepared(uniform_net), 1e-9)
    assert excinfo.value.net_name == uniform_net.name
    assert "coarse" in excinfo.value.stage


def test_rip_raises_infeasible_on_empty_final_frontier(tech, uniform_net, monkeypatch):
    rip = Rip(tech)
    prepared = rip.prepare(uniform_net)
    monkeypatch.setattr(rip._dp, "run", lambda *args, **kwargs: _empty_dp_result())
    with pytest.raises(InfeasibleNetError) as excinfo:
        rip.run_prepared(prepared, 1e-9)
    assert "final" in excinfo.value.stage


def test_infeasible_error_survives_pickling():
    """Regression: the error must round-trip through a worker process.

    The default exception reduction replays ``args`` (the formatted
    message) into ``__init__(net_name, stage)``, which used to die with a
    ``TypeError`` when a ``ProcessPoolExecutor`` shipped the error back.
    """
    error = InfeasibleNetError("net7", "final DP pass")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, InfeasibleNetError)
    assert clone.net_name == "net7"
    assert clone.stage == "final DP pass"
    assert str(clone) == str(error)


def test_design_population_reports_infeasible_nets_per_net(tech, tiny_cases, monkeypatch):
    """A net that cannot be designed must not abort the sweep."""
    import repro.engine.design as design_module

    poisoned = tiny_cases[0].net.name

    class PoisonedRip(Rip):
        def prepare(self, net):
            if net.name == poisoned:
                raise InfeasibleNetError(net.name, "coarse DP pass")
            return super().prepare(net)

    monkeypatch.setattr(design_module, "Rip", PoisonedRip)
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    result = engine.design_population(tiny_cases, _methods())

    assert len(result.nets) == len(tiny_cases)
    failures = result.failures()
    assert [failure.net_name for failure in failures] == [poisoned]
    assert failures[0].failed and poisoned in failures[0].error
    # The healthy nets designed normally.
    healthy = [net for net in result.nets if not net.failed]
    assert len(healthy) == len(tiny_cases) - 1
    assert all(net.records for net in healthy)
    # Flattened records only contain designed rows.
    assert all(record.net_name != poisoned for record in result.records())


def test_failed_net_mid_sweep_drops_partial_records(tech, tiny_cases, monkeypatch):
    """A failure after some targets designed must not leave partial rows:
    records()/num_designs stay consistent with the table aggregations,
    which skip failed nets wholesale."""
    import repro.engine.design as design_module

    poisoned = tiny_cases[0].net.name
    calls = {"count": 0}

    class MidFailRip(Rip):
        def run_prepared(self, prepared, target):
            if prepared.net.name == poisoned:
                calls["count"] += 1
                if calls["count"] >= 2:  # fail from the second target on
                    raise InfeasibleNetError(prepared.net.name, "final DP pass")
            return super().run_prepared(prepared, target)

    monkeypatch.setattr(design_module, "Rip", MidFailRip)
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    result = engine.design_population(tiny_cases, _methods())

    failed = result.failures()[0]
    assert failed.net_name == poisoned
    assert failed.records == () and failed.method_runtimes == {}
    assert all(record.net_name != poisoned for record in result.records())
    assert result.statistics.num_designs == len(result.records())


# --------------------------------------------------------------------------- #
# integer-step candidate grid (satellite bugfix)
# --------------------------------------------------------------------------- #
def test_legal_positions_are_exact_grid_products(tech):
    from tests.conftest import build_uniform_net

    net = build_uniform_net(tech, length_um=12000.0)
    pitch = 37e-6  # deliberately not representable as a clean binary fraction
    positions = net.legal_positions(pitch)
    assert positions
    for index, position in enumerate(positions):
        assert position == (index + 1) * pitch  # exact, not approx
    assert positions[-1] < net.total_length


def test_legal_positions_no_drift_on_long_fine_grids(tech):
    from tests.conftest import build_uniform_net

    net = build_uniform_net(tech, length_um=10000.0)
    pitch = 1e-6
    positions = np.asarray(net.legal_positions(pitch))
    assert len(positions) == 9999
    expected = pitch * np.arange(1, len(positions) + 1)
    assert np.array_equal(positions, expected)
