"""The shared ``since``/``merged`` arithmetic of the counter snapshots.

Each statistics type is checked against its arithmetic written out field
by field: counters subtract in ``since`` and add in ``merged``; the one
gauge, ``CacheStatistics.entries``, keeps the later snapshot's value in
``since`` and takes the maximum in ``merged``.  The two snapshots differ
in every field, and the earlier gauge is the larger one, so a gauge
treated as a counter (or the other way round) cannot pass.
"""

from __future__ import annotations

from repro.analysis.sanitize import SanitizerStatistics
from repro.engine.cache import StoreStatistics
from repro.engine.wincache import CacheStatistics


def test_cache_statistics_since_and_merged():
    later = CacheStatistics(
        candidate_hits=40,
        candidate_misses=41,
        compiled_hits=42,
        compiled_misses=43,
        frontier_hits=44,
        frontier_misses=45,
        entries=7,
        evictions=47,
        disk_hits=48,
        disk_misses=49,
        disk_evictions=50,
        refine_hits=51,
        refine_cold_runs=52,
    )
    earlier = CacheStatistics(
        candidate_hits=1,
        candidate_misses=2,
        compiled_hits=3,
        compiled_misses=4,
        frontier_hits=5,
        frontier_misses=6,
        entries=9,
        evictions=8,
        disk_hits=9,
        disk_misses=10,
        disk_evictions=11,
        refine_hits=12,
        refine_cold_runs=13,
    )
    assert later.since(earlier) == CacheStatistics(
        candidate_hits=39,
        candidate_misses=39,
        compiled_hits=39,
        compiled_misses=39,
        frontier_hits=39,
        frontier_misses=39,
        entries=7,
        evictions=39,
        disk_hits=39,
        disk_misses=39,
        disk_evictions=39,
        refine_hits=39,
        refine_cold_runs=39,
    )
    merged = CacheStatistics(
        candidate_hits=41,
        candidate_misses=43,
        compiled_hits=45,
        compiled_misses=47,
        frontier_hits=49,
        frontier_misses=51,
        entries=9,
        evictions=55,
        disk_hits=57,
        disk_misses=59,
        disk_evictions=61,
        refine_hits=63,
        refine_cold_runs=65,
    )
    assert later.merged(earlier) == merged
    assert earlier.merged(later) == merged


def test_store_statistics_since_and_merged():
    later = StoreStatistics(memory_hits=20, disk_hits=21, builds=22, evictions=23)
    earlier = StoreStatistics(memory_hits=1, disk_hits=3, builds=5, evictions=7)
    assert later.since(earlier) == StoreStatistics(
        memory_hits=19, disk_hits=18, builds=17, evictions=16
    )
    assert later.merged(earlier) == StoreStatistics(
        memory_hits=21, disk_hits=24, builds=27, evictions=30
    )


def test_sanitizer_statistics_since_and_merged():
    later = SanitizerStatistics(checks_run=30, violations=4)
    earlier = SanitizerStatistics(checks_run=12, violations=1)
    assert later.since(earlier) == SanitizerStatistics(checks_run=18, violations=3)
    assert later.merged(earlier) == SanitizerStatistics(checks_run=42, violations=5)
