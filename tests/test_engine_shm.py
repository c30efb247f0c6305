"""Tests for the zero-copy shared-memory population transport (ISSUE 6).

Covers the :class:`repro.engine.shm.SharedPopulationArena` round trip (the
rebuilt jobs are bit-identical and genuinely zero-copy), the engine's
pool-path parity against the serial path, and the teardown hygiene contract:
``DesignEngine.close()`` / ``__exit__`` must unlink the shared block and run
the window cache's disk ``gc()`` even when a worker was killed mid-task.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

import repro.engine.design as design_module
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.compiled import CompiledNet
from repro.engine.design import DesignEngine, MethodSpec
from repro.engine.shm import SharedPopulationArena
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM

POPULATION = ProtocolConfig(num_nets=2, targets_per_net=2, seed=2005)


@pytest.fixture(scope="module")
def cases():
    return ProtocolStore().cases(POPULATION)


def _record_signature(result):
    """Per-record identity minus wall-clock noise (runtime_seconds)."""
    return [
        (
            record.net_name,
            record.method,
            record.target,
            record.feasible,
            record.total_width,
            record.delay,
            record.num_repeaters,
            record.fallback_used,
            record.technology,
        )
        for net in result.nets
        for record in net.records
    ]


# --------------------------------------------------------------------------- #
# arena round trip
# --------------------------------------------------------------------------- #
def test_arena_publish_attach_round_trip(cases):
    jobs = [(NODE_180NM, case) for case in cases]
    with SharedPopulationArena.publish(jobs) as arena:
        assert len(arena) == len(jobs)
        attached = SharedPopulationArena.attach(arena.name)
        try:
            for index, (technology, case) in enumerate(jobs):
                job = attached.job(index)
                assert job.technology.name == technology.name
                assert job.case == case
                reference = CompiledNet(case.net, case.candidates)
                assert job.compiled is not None
                assert job.compiled.positions == reference.positions
                assert job.compiled.num_levels == reference.num_levels
                for mine, theirs in zip(
                    job.compiled.intervals, reference.intervals
                ):
                    assert mine.upstream == theirs.upstream
                    assert mine.downstream == theirs.downstream
                    assert np.array_equal(
                        mine.piece_resistance, theirs.piece_resistance
                    )
                    assert np.array_equal(
                        mine.piece_capacitance, theirs.piece_capacitance
                    )
                    assert np.array_equal(
                        mine.piece_half_capacitance, theirs.piece_half_capacitance
                    )
        finally:
            attached.close()


def test_arena_jobs_are_zero_copy_views(cases):
    jobs = [(NODE_180NM, case) for case in cases]
    with SharedPopulationArena.publish(jobs) as arena:
        attached = SharedPopulationArena.attach(arena.name)
        try:
            interval = attached.job(0).compiled.intervals[0]
            # Views into the shared block, not per-worker copies …
            assert interval.piece_resistance.base is not None
            assert interval.piece_capacitance.base is not None
            assert interval.piece_half_capacitance.base is not None
            # … and immutable: nobody can scribble on the population.
            assert not interval.piece_resistance.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                interval.piece_resistance[0] = 1.0
        finally:
            attached.close()


def test_arena_without_compilation(cases):
    jobs = [(NODE_180NM, case) for case in cases]
    with SharedPopulationArena.publish(jobs, compile_nets=False) as arena:
        job = arena.job(0)
        assert job.compiled is None
        assert job.case == cases[0]


def test_arena_close_is_idempotent_and_unlinks(cases):
    arena = SharedPopulationArena.publish([(NODE_180NM, cases[0])])
    name = arena.name
    assert not arena.closed
    arena.close()
    arena.close()  # idempotent
    assert arena.closed
    with pytest.raises(ValueError):
        arena.name
    with pytest.raises(ValueError):
        arena.job(0)
    # The owner's close unlinked the OS segment: nobody can attach anymore.
    with pytest.raises(FileNotFoundError):
        SharedPopulationArena.attach(name)


# --------------------------------------------------------------------------- #
# engine pool path
# --------------------------------------------------------------------------- #
def _methods():
    return [
        MethodSpec.rip_method(),
        MethodSpec.dp_baseline("dp-g120", RepeaterLibrary.uniform(40.0, 400.0, 120.0)),
    ]


def test_pool_path_matches_serial_and_reaps_arena(cases):
    serial = DesignEngine(NODE_180NM, workers=0, store=ProtocolStore())
    golden = _record_signature(serial.design_population(cases, _methods()))
    with DesignEngine(NODE_180NM, workers=2, store=ProtocolStore()) as engine:
        result = engine.design_population(cases, _methods())
        assert _record_signature(result) == golden
        # The sweep's ``finally`` already closed and unlinked its arena.
        assert engine._arenas == []


def test_engine_close_unlinks_crashed_pool_arena(cases):
    """A worker killed mid-task must not leak the shared block.

    Every task SIGKILLs its worker, so the supervisor quarantines each net
    as ``poisoned`` across pool rebuilds instead of aborting the sweep; the
    sweep's ``finally`` still unlinks the arena, and anything that somehow
    survives is reaped by ``close()``/``__exit__``.  Simulated by SIGKILLing
    the worker from inside the (fork-inherited, monkeypatched) task function.
    """
    published = []
    real_publish = SharedPopulationArena.publish.__func__

    def capturing_publish(cls, jobs, **kwargs):
        arena = real_publish(cls, jobs, **kwargs)
        published.append(arena.name)
        return arena

    def suicide(*args, **kwargs):  # runs inside the worker process
        os.kill(os.getpid(), signal.SIGKILL)

    original_publish = SharedPopulationArena.publish
    original_case = design_module._design_case
    SharedPopulationArena.publish = classmethod(capturing_publish)
    design_module._design_case = suicide
    try:
        with DesignEngine(NODE_180NM, workers=2, store=ProtocolStore()) as engine:
            population = engine.design_population(cases, _methods())
            assert all(net.failure_kind == "poisoned" for net in population.nets)
            assert all(net.attempts == 2 for net in population.nets)
            assert engine.recovery.snapshot()["rebuilds"] >= 1
            # The sweep's ``finally`` reaped the arena despite the crashes.
            assert engine._arenas == []
        assert len(published) == 1
    finally:
        SharedPopulationArena.publish = original_publish
        design_module._design_case = original_case
    # The block is gone from the OS: re-attach must fail.
    with pytest.raises(FileNotFoundError):
        SharedPopulationArena.attach(published[0])


def test_engine_close_runs_cache_gc(tmp_path, cases):
    calls = []
    with DesignEngine(
        NODE_180NM,
        workers=0,
        store=ProtocolStore(),
        window_cache_dir=str(tmp_path / "wincache"),
    ) as engine:
        cache = engine.window_cache
        assert cache is not None and cache.cache_dir is not None
        original_gc = cache.gc
        cache.gc = lambda: calls.append(True) or original_gc()
        engine.design_population(cases[:1], _methods())
    assert calls  # __exit__ → close() applied the disk budgets


def test_engine_close_is_idempotent():
    engine = DesignEngine(NODE_180NM, workers=0, store=ProtocolStore())
    engine.close()
    engine.close()
