"""The REFINE exact-hit memo: continuations and their persistence.

The contract under test (the design-state layer):

* byte-identical repeated queries are answered from the per-net
  :class:`RefineContinuation` record verbatim (idempotent service
  semantics);
* the records round-trip through the :class:`RefineRecordStore` disk tier
  bit-for-bit, under its LRU count and byte budgets.
"""

from __future__ import annotations

import json

import pytest

from repro.core.refine import (
    REFINE_RECORD_FORMAT_VERSION,
    Refine,
    RefineConfig,
    RefineContinuation,
    RefineRecordStore,
    refine_result_from_payload,
    refine_result_to_payload,
)
from repro.core.rip import Rip, refine_context_fingerprint
from repro.core.solution import InsertionSolution
from repro.delay.elmore import unbuffered_net_delay
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.tech.nodes import NODE_90NM

from tests.conftest import build_uniform_net

POPULATION = ProtocolConfig(num_nets=4, targets_per_net=8, seed=2005)


@pytest.fixture(scope="module")
def population():
    return ProtocolStore().cases(POPULATION)


# --------------------------------------------------------------------------- #
# RIP level: repeated queries through the exact-hit memo
# --------------------------------------------------------------------------- #
def test_warm_repeated_sweep_is_bit_identical_and_memoized(tech, population):
    case = population[0]
    rip = Rip(tech, window_cache=False)
    prepared = rip.prepare(case.net)
    first = [rip.run_prepared(prepared, target) for target in case.targets]
    before = rip.continuation_statistics
    assert before.exact_hits == 0
    assert before.cold_runs == len(case.targets)
    second = [rip.run_prepared(prepared, target) for target in case.targets]
    after = rip.continuation_statistics
    assert after.exact_hits == len(case.targets)
    for a, b in zip(first, second):
        assert a.refined is b.refined  # served from the record, not re-run
        assert a.total_width == b.total_width
        assert a.delay == b.delay
        assert a.solution.positions == b.solution.positions
        assert a.solution.widths == b.solution.widths
    rip.reset_continuations()
    assert rip.continuation_statistics.runs == 0


# --------------------------------------------------------------------------- #
# continuation record unit behaviour
# --------------------------------------------------------------------------- #
def _result_for(tech, net, target, count=2):
    positions = [net.total_length * (i + 1) / (count + 1) for i in range(count)]
    initial = InsertionSolution.from_lists(positions, [160.0] * count)
    return initial, Refine(tech).run(net, initial, target)


def test_continuation_lru_bound_and_exports(tech):
    net = build_uniform_net(tech, length_um=9000.0, name="lru")
    target = 0.9 * unbuffered_net_delay(net, tech)
    initial, result = _result_for(tech, net, target)
    continuation = RefineContinuation(max_entries=2)
    for index in range(4):
        continuation.record(target * (1.0 + index), initial, result)
    assert len(continuation) == 2
    entries = continuation.export_records()
    assert len(entries) == 2
    clone = RefineContinuation()
    for entry in entries:
        clone.record(
            entry["target"],
            InsertionSolution.from_lists(
                entry["initial_positions"], entry["initial_widths"]
            ),
            refine_result_from_payload(entry["result"]),
        )
    assert clone.exact(entries[0]["target"], initial) is not None


def test_refine_result_payload_roundtrip_is_exact(tech):
    net = build_uniform_net(tech, length_um=11000.0, name="payload")
    target = 0.85 * unbuffered_net_delay(net, tech)
    _, result = _result_for(tech, net, target, count=3)
    clone = refine_result_from_payload(
        json.loads(json.dumps(refine_result_to_payload(result)))
    )
    assert clone.solution.positions == result.solution.positions
    assert clone.solution.widths == result.solution.widths
    assert clone.lagrange_multiplier == result.lagrange_multiplier
    assert clone.delay == float(result.delay)
    assert clone.total_width == result.total_width
    assert clone.feasible == bool(result.feasible)
    assert clone.width_history == tuple(float(w) for w in result.width_history)


# --------------------------------------------------------------------------- #
# RefineRecordStore: the disk tier
# --------------------------------------------------------------------------- #
def _store_with_records(tech, tmp_path):
    net = build_uniform_net(tech, length_um=13000.0, segments=5, name="disk")
    target = 0.8 * unbuffered_net_delay(net, tech)
    initial, result = _result_for(tech, net, target)
    continuation = RefineContinuation()
    continuation.record(target, initial, result)
    context = refine_context_fingerprint(tech, RefineConfig())
    store = RefineRecordStore(tmp_path, context)
    store.save("net-fp", continuation)
    return store, continuation, target, initial


def test_refine_store_roundtrip_bit_for_bit(tech, tmp_path):
    store, continuation, target, initial = _store_with_records(tech, tmp_path)
    loaded = RefineContinuation()
    assert store.load("net-fp", loaded) == 1
    original = continuation.exact(target, initial)
    clone = loaded.exact(target, initial)
    assert clone.solution.positions == original.solution.positions
    assert clone.solution.widths == original.solution.widths
    assert clone.lagrange_multiplier == original.lagrange_multiplier
    assert clone.delay == float(original.delay)


def test_refine_store_evicts_corrupted_and_stale_files(tech, tmp_path):
    store, _, _, _ = _store_with_records(tech, tmp_path)
    [path] = list(tmp_path.glob("refine-*.json"))

    path.write_text("{broken", encoding="utf-8")
    assert store.load("net-fp", RefineContinuation()) == 0
    assert not path.exists()  # evicted, never trusted

    path.write_text(
        json.dumps(
            {
                "format_version": REFINE_RECORD_FORMAT_VERSION - 1,
                "net": "net-fp",
                "context": "x",
                "records": [],
            }
        ),
        encoding="utf-8",
    )
    assert store.load("net-fp", RefineContinuation()) == 0
    assert not path.exists()


def _record_payload(store, continuation, fingerprint, target, initial):
    """The exact recorded result a survivor file must keep reproducing."""
    loaded = RefineContinuation()
    assert store.load(fingerprint, loaded) == 1
    result = loaded.exact(target, initial)
    assert result is not None
    return refine_result_to_payload(result)


def test_refine_store_disk_budget_evicts_lru_files(tech, tmp_path):
    import os
    import time

    net = build_uniform_net(tech, length_um=13000.0, segments=5, name="budget")
    target = 0.8 * unbuffered_net_delay(net, tech)
    initial, result = _result_for(tech, net, target)
    continuation = RefineContinuation()
    continuation.record(target, initial, result)

    store = RefineRecordStore(tmp_path, "ctx", max_files=2)
    base = time.time() - 100.0
    for index, fingerprint in enumerate(["net-a", "net-b", "net-c"]):
        store.save(fingerprint, continuation)
        # Pin a deterministic LRU order (oldest = net-a).
        os.utime(store._path(fingerprint), times=(base + index, base + index))
    store.save("net-d", continuation)

    # Each save beyond the budget evicted the least recently used file
    # (net-a on the third save, net-b on the fourth); the survivors are
    # untouched and still load bit-for-bit.
    assert store.evictions == 2
    assert len(list(tmp_path.glob("refine-*.json"))) == 2
    assert store.load("net-a", RefineContinuation()) == 0
    assert store.load("net-b", RefineContinuation()) == 0
    expected = refine_result_to_payload(result)
    for survivor in ("net-c", "net-d"):
        assert _record_payload(store, continuation, survivor, target, initial) == expected


def test_refine_store_load_marks_files_recently_used(tech, tmp_path):
    import os
    import time

    net = build_uniform_net(tech, length_um=12000.0, segments=4, name="touch")
    target = 0.85 * unbuffered_net_delay(net, tech)
    initial, result = _result_for(tech, net, target)
    continuation = RefineContinuation()
    continuation.record(target, initial, result)

    store = RefineRecordStore(tmp_path, "ctx", max_files=2)
    base = time.time() - 100.0
    for index, fingerprint in enumerate(["net-a", "net-b"]):
        store.save(fingerprint, continuation)
        os.utime(store._path(fingerprint), times=(base + index, base + index))
    # Reading net-a promotes it: the next eviction takes net-b instead.
    assert store.load("net-a", RefineContinuation()) == 1
    store.save("net-c", continuation)
    assert store.load("net-b", RefineContinuation()) == 0
    expected = refine_result_to_payload(result)
    for survivor in ("net-a", "net-c"):
        assert _record_payload(store, continuation, survivor, target, initial) == expected


def test_refine_store_byte_budget_keeps_newest(tech, tmp_path):
    net = build_uniform_net(tech, length_um=11000.0, segments=4, name="bytes")
    target = 0.9 * unbuffered_net_delay(net, tech)
    initial, result = _result_for(tech, net, target)
    continuation = RefineContinuation()
    continuation.record(target, initial, result)

    import os
    import time

    # A budget smaller than a single record still keeps the newest file.
    store = RefineRecordStore(tmp_path, "ctx", max_bytes=1)
    store.save("net-a", continuation)
    assert len(list(tmp_path.glob("refine-*.json"))) == 1
    stale = time.time() - 50.0
    os.utime(store._path("net-a"), times=(stale, stale))
    store.save("net-b", continuation)
    files = list(tmp_path.glob("refine-*.json"))
    assert len(files) == 1
    assert store.load("net-b", RefineContinuation()) == 1
    assert store.load("net-a", RefineContinuation()) == 0


def test_refine_store_budget_validation(tmp_path):
    from repro.utils.validation import ValidationError

    with pytest.raises(ValidationError):
        RefineRecordStore(tmp_path, "ctx", max_files=0)
    with pytest.raises(ValidationError):
        RefineRecordStore(tmp_path, "ctx", max_bytes=0)


def test_refine_context_distinguishes_technology_and_config(tech):
    base = refine_context_fingerprint(tech, RefineConfig())
    assert base == refine_context_fingerprint(tech, RefineConfig())
    assert base != refine_context_fingerprint(NODE_90NM, RefineConfig())
    assert base != refine_context_fingerprint(tech, RefineConfig(movement_step=25e-6))


def test_rip_refine_records_survive_process_restart_simulation(tech, tmp_path, population):
    """Fresh Rip + fresh cache on the same directory reproduce the sweep
    bit-for-bit with REFINE answered from the disk records."""
    from repro.engine.wincache import WindowCompilationCache

    case = population[0]

    def sweep():
        rip = Rip(tech, window_cache=WindowCompilationCache(cache_dir=tmp_path))
        prepared = rip.prepare(case.net)
        outcomes = [
            (
                target,
                result.feasible,
                result.total_width,
                result.delay,
                result.solution.positions,
                result.solution.widths,
                result.states_generated,
            )
            for target, result in (
                (t, rip.run_prepared(prepared, t)) for t in case.targets
            )
        ]
        return outcomes, rip.continuation_statistics

    cold, cold_stats = sweep()
    warm, warm_stats = sweep()
    assert warm == cold  # bit-identical across the simulated restart
    assert cold_stats.exact_hits == 0
    assert warm_stats.exact_hits == len(case.targets)  # all served from disk
