"""Fault-injection tests: per-net isolation, pool-safe exceptions, teardown.

A population sweep must treat one net's crash the way it treats one net's
infeasibility: record it, drop the net's partial records, and keep
designing the siblings — serially and across the worker pool.  These tests
poison exactly one net of a small population and assert the blast radius:

* the sweep completes and reports the poisoned net in ``failures()`` with
  ``failure_kind == "crashed"``;
* every sibling net's records are bit-identical to an all-healthy sweep
  (runtime excluded — the only nondeterministic field);
* flat record counts and ``statistics.num_designs`` stay consistent;
* a pooled crash under ``REPRO_SANITIZE=1`` is isolated like any other.

Pooled variants rely on the ``fork`` start method: a class monkeypatched in
the parent before the pool spawns is inherited by the workers.  Worker-side
exceptions additionally have to survive the pickle channel — the
``ensure_pool_safe`` wrapper turns a non-picklable third-party exception
into a :class:`~repro.engine.design.WorkerTaskError` instead of letting the
pool die on an opaque pickling failure.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.analysis import sanitize
from repro.core.rip import InfeasibleNetError
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.design import (
    DesignEngine,
    MethodSpec,
    WorkerTaskError,
    build_htree_cases,
    ensure_pool_safe,
)
import repro.engine.design as design_module
from repro.tech.library import RepeaterLibrary

TINY = ProtocolConfig(num_nets=3, targets_per_net=3, seed=13)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pooled injection needs fork-inherited monkeypatches",
)


@pytest.fixture(scope="module")
def tiny_cases():
    return ProtocolStore().cases(TINY)


@pytest.fixture(scope="module")
def healthy(tiny_cases, tech):
    """The all-healthy oracle sweep every poisoned sweep is compared to."""
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    try:
        return engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()


def _methods():
    return [
        MethodSpec.rip_method(),
        MethodSpec.dp_baseline("dp-g40", RepeaterLibrary.uniform_count(10.0, 40.0, 10)),
    ]


def _record_key(record):
    return (
        record.technology,
        record.net_name,
        record.method,
        round(record.target, 18),
        record.feasible,
        record.total_width,
    )


class UnpicklableError(Exception):
    """Third-party-style exception that cannot cross a pickle channel."""

    def __init__(self, message, context):
        super().__init__(f"{message} ({context})")
        self.context = context  # two args, no __reduce__: pickle replay fails


def _poison(monkeypatch, net_name, error_factory):
    """Make RIP's prepare() raise for exactly one net, in-process or forked."""

    class PoisonedRip(design_module.Rip):
        def prepare(self, net):
            if net.name == net_name:
                raise error_factory(net.name)
            return super().prepare(net)

    monkeypatch.setattr(design_module, "Rip", PoisonedRip)


def _assert_isolated(population, healthy, poisoned_name, error_fragment):
    (failure,) = population.failures()
    assert failure.net_name == poisoned_name
    assert failure.failure_kind == "crashed"
    assert population.failures(kind="crashed") == (failure,)
    assert population.failures(kind="infeasible") == ()
    assert error_fragment in failure.error
    # A failed net carries no partial records, so the flat count, the
    # statistics and the table aggregations all agree.
    assert failure.records == ()
    assert len(population.records()) == population.statistics.num_designs

    healthy_by_net = {}
    for record in healthy.records():
        healthy_by_net.setdefault(record.net_name, []).append(_record_key(record))
    for net_result in population.nets:
        if net_result.net_name == poisoned_name:
            continue
        assert [
            _record_key(record) for record in net_result.records
        ] == healthy_by_net[net_result.net_name]


# --------------------------------------------------------------------------- #
# serial isolation
# --------------------------------------------------------------------------- #
def test_serial_crash_is_isolated_to_the_net(tiny_cases, healthy, tech, monkeypatch):
    poisoned = tiny_cases[1].net.name
    _poison(monkeypatch, poisoned, lambda name: ValueError(f"poisoned {name}"))
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()
    _assert_isolated(population, healthy, poisoned, "ValueError")
    assert f"poisoned {poisoned}" in population.failures()[0].error


def test_serial_unpicklable_crash_is_isolated(tiny_cases, healthy, tech, monkeypatch):
    poisoned = tiny_cases[0].net.name
    _poison(monkeypatch, poisoned, lambda name: UnpicklableError("bad state", name))
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()
    _assert_isolated(population, healthy, poisoned, "UnpicklableError")


def test_infeasible_and_crashed_are_distinguished(tiny_cases, tech, monkeypatch):
    from repro.core.rip import InfeasibleNetError

    infeasible_name = tiny_cases[0].net.name
    crashed_name = tiny_cases[1].net.name

    class SplitPoisonRip(design_module.Rip):
        def prepare(self, net):
            if net.name == infeasible_name:
                raise InfeasibleNetError(net.name, "coarse DP pass")
            if net.name == crashed_name:
                raise RuntimeError("cosmic ray")
            return super().prepare(net)

    monkeypatch.setattr(design_module, "Rip", SplitPoisonRip)
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()
    assert {f.net_name for f in population.failures()} == {
        infeasible_name,
        crashed_name,
    }
    (infeasible,) = population.failures(kind="infeasible")
    (crashed,) = population.failures(kind="crashed")
    assert infeasible.net_name == infeasible_name
    assert crashed.net_name == crashed_name
    assert "RuntimeError" in crashed.error
    # Infeasibility keeps the original message shape (no type prefix).
    assert "RuntimeError" not in infeasible.error


@pytest.mark.parametrize(
    "workers", [0, pytest.param(2, marks=fork_only)], ids=["serial", "pooled"]
)
@pytest.mark.parametrize(
    "error_factory, kind",
    [
        (lambda name: ValueError(f"poisoned {name}"), "crashed"),
        (lambda name: InfeasibleNetError(name, "tree DP"), "infeasible"),
    ],
    ids=["crashed", "infeasible"],
)
def test_tree_failure_is_isolated_to_the_tree(
    tech, monkeypatch, workers, error_factory, kind
):
    """A tree entry gets the same isolation boundary as a net: the failing
    tree is classified and carries no records, its siblings are unchanged."""
    # build_htree_cases probes tau_min with TreePowerDp: build before patching.
    trees = build_htree_cases(tech, count=3, levels=2)
    methods = [
        MethodSpec.tree_method("tree-g40", RepeaterLibrary.uniform(40.0, 240.0, 40.0))
    ]

    def sweep():
        engine = DesignEngine(tech, workers=workers, store=ProtocolStore())
        try:
            return engine.design_population(trees, methods)
        finally:
            engine.close()

    healthy = sweep()
    poisoned = trees[1].tree.name

    class PoisonedTreeDp(design_module.TreePowerDp):
        def run_many(self, tree, *args, **kwargs):
            if tree.name == poisoned:
                raise error_factory(tree.name)
            return super().run_many(tree, *args, **kwargs)

    monkeypatch.setattr(design_module, "TreePowerDp", PoisonedTreeDp)
    population = sweep()
    (failure,) = population.failures()
    assert failure.net_name == poisoned
    assert failure.failure_kind == kind
    assert failure.population_class == "tree"
    assert failure.records == () and failure.method_runtimes == {}
    assert len(population.records()) == population.statistics.num_designs
    for net, oracle in zip(population.nets, healthy.nets):
        if net.net_name != poisoned:
            assert [_record_key(r) for r in net.records] == [
                _record_key(r) for r in oracle.records
            ]
            assert len(net.records) == 20


# --------------------------------------------------------------------------- #
# pooled isolation
# --------------------------------------------------------------------------- #
@fork_only
def test_pooled_crash_is_isolated_to_the_net(tiny_cases, healthy, tech, monkeypatch):
    poisoned = tiny_cases[2].net.name
    _poison(monkeypatch, poisoned, lambda name: ValueError(f"poisoned {name}"))
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()
    _assert_isolated(population, healthy, poisoned, "ValueError")
    assert population.statistics.workers == 2


@fork_only
def test_pooled_unpicklable_crash_is_isolated(tiny_cases, healthy, tech, monkeypatch):
    """The per-net catch runs worker-side, so the bad exception never needs
    to cross the pickle channel at all — only its description does."""
    poisoned = tiny_cases[1].net.name
    _poison(monkeypatch, poisoned, lambda name: UnpicklableError("bad state", name))
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()
    _assert_isolated(population, healthy, poisoned, "UnpicklableError")


@fork_only
def test_pooled_infrastructure_failure_crosses_pool_as_wrapper(
    tiny_cases, tech, monkeypatch
):
    """An exception *outside* the per-net isolation (task plumbing) must
    reach the parent as a picklable WorkerTaskError, not a pickling crash."""

    def exploding_task(*args, **kwargs):
        raise UnpicklableError("infrastructure down", "worker")

    monkeypatch.setattr(design_module, "_design_case", exploding_task)
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        with pytest.raises(WorkerTaskError) as excinfo:
            engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()
    assert excinfo.value.kind == "UnpicklableError"
    assert "infrastructure down" in excinfo.value.message
    assert "UnpicklableError" in excinfo.value.details  # carries the traceback


@fork_only
def test_pooled_crash_is_isolated_under_sanitizer(tiny_cases, tech, monkeypatch):
    poisoned = tiny_cases[0].net.name
    _poison(monkeypatch, poisoned, lambda name: ValueError("boom"))
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
        assert len(population.failures()) == 1
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# pool-safe exception plumbing (unit level)
# --------------------------------------------------------------------------- #
def test_worker_task_error_roundtrips_pickle():
    error = WorkerTaskError("ValueError", "boom", details="trace...")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, WorkerTaskError)
    assert (clone.kind, clone.message, clone.details) == (
        "ValueError",
        "boom",
        "trace...",
    )
    assert "ValueError: boom" in str(clone)


def test_ensure_pool_safe_passes_picklable_through():
    original = ValueError("plain")
    assert ensure_pool_safe(original) is original


def test_ensure_pool_safe_wraps_unpicklable():
    try:
        raise UnpicklableError("bad state", "ctx")
    except UnpicklableError as caught:
        wrapped = ensure_pool_safe(caught)
    assert isinstance(wrapped, WorkerTaskError)
    assert wrapped.kind == "UnpicklableError"
    assert "bad state" in wrapped.message
    assert "test_fault_isolation" in wrapped.details  # traceback attached
    pickle.loads(pickle.dumps(wrapped))
