"""Smoke benchmark of the batch DesignEngine — writes ``BENCH_engine.json``.

Ten sections, all but ``tree_dp`` and ``fault_recovery`` on the shared
protocol-store population:

* **kernels** — the Table-1-style sweep (RIP + three size-10 baselines)
  through the production engine vs. a serial **oracle** pass over the same
  methods (``PowerAwareDp(core="staged")`` for the ``dp-g*`` baselines,
  ``Rip(dp=<staged>, width_solver=<walked>)`` for RIP); verifies identical
  records and reports the speedup.  The ``vectorized_*``/``reference_*``
  keys name the production and oracle sides.
* **window_cache** — the RIP multi-target sweep with the shared
  :class:`~repro.engine.wincache.WindowCompilationCache` off, cold and
  warm (the repeated-sweep/service scenario: same nets and targets hit a
  warm cache and skip REFINE and the final DP pass entirely);
  verifies bit-identical design outcomes on vs. off.
* **fused_dp** — the fused expand-traverse-prune DP core + compiled
  REFINE vs. the staged per-level core and the walked width solver, on the
  full first-contact cold design (tau_min + coarse DP + REFINE + final
  DP): bit-identical outcomes, >= 2x asserted, plus the pure power-DP
  states/sec of the fused core.
* **persistence** — the design-state layer on disk: a cold disk-backed
  sweep, a *restart* sweep (fresh inserters + fresh cache attached to the
  same directory — REFINE records and frontiers read back from disk) and a
  *resident* warm sweep (same inserters, second pass).  Verifies all three
  are bit-identical and asserts the warm repeated sweep is >= 2x faster
  than the cold run.  Its ``baseline`` pair runs ``dp-g10`` through
  ``DesignEngine`` cold and then restarted on the same directory (the
  baseline memo's files answer); ``records_identical`` covers the whole
  records, runtime included, of that pair too.
* **cold_design** — *first-contact* REFINE with the compiled
  per-(net, positions) Elmore evaluator vs. the walked oracle
  (``Rip(width_solver=DualBisectionWidthSolver(evaluator="walked"))``):
  the whole cold RIP flow must be bit-identical between the two, and the
  REFINE stage itself must clear the >= 2x acceptance bar (asserted).
* **baseline_bound** — the baseline power DP bounded by a sub-library
  incumbent (``PowerAwareDp.run_many``) against a plain ``run`` +
  ``best_for_delay`` per target, for ``dp-g10`` and ``dp-g40`` on the same
  compiled candidates: seconds, DP states, and ``records_identical`` over
  every per-target answer (width, delay, positions, widths).  No speed bar.
* **tree_dp** — multi-sink routing trees on the compiled engine (ISSUE 8):
  the fused per-edge/merge kernels vs. the Python reference tree DP, on an
  H-tree clock population — bit-identical
  solutions (assignments, delay, width, feasibility) and per-solve
  statistics, >= 5x asserted for the fused core, with tree-DP states/sec.
* **technologies** — a multi-node population sweep through
  ``DesignEngine.design_population(technologies=[...])``, with per-node
  record/state counts so `EngineStatistics` trends are comparable across
  CI runs per technology.
* **service** — the ``rip serve`` daemon (ISSUE 9) under 32 concurrent
  HTTP clients: requests/s, p50/p95 latency, micro-batch dedup counters —
  and the oracle gate that every streamed response is bit-identical to a
  direct serial ``design_population`` sweep of the same requests.
* **fault_recovery** — the self-healing sweep (ISSUE 10): a 32-net
  parallel sweep with ``REPRO_FAULTS`` injecting a transient SIGKILL, a
  repeating SIGKILL and a hang — gated on zero lost results, >= 1 pool
  rebuild, exactly the injected nets failing (``poisoned``/``timeout``)
  and every surviving record bit-identical to the all-healthy serial
  sweep.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--nets N] [--targets M]
        [--workers W] [--tech NODE ...] [--output BENCH_engine.json]

Defaults are the reduced benchmark population (6 nets x 10 targets);
``REPRO_FULL=1`` or ``--nets 20 --targets 20`` runs the paper-sized sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import faults  # noqa: E402
from repro.analytical.width_solver import DualBisectionWidthSolver  # noqa: E402
from repro.core.rip import Rip  # noqa: E402
from repro.dp.powerdp import PowerAwareDp  # noqa: E402
from repro.engine.cache import ProtocolConfig, ProtocolStore  # noqa: E402
from repro.engine.design import DesignEngine, MethodSpec  # noqa: E402
from repro.engine.wincache import WindowCompilationCache  # noqa: E402
from repro.experiments.table1 import Table1Config, table1_methods  # noqa: E402
from repro.tech.library import RepeaterLibrary  # noqa: E402
from repro.tech.nodes import NODE_180NM, get_node  # noqa: E402

FULL_SCALE = os.environ.get("REPRO_FULL", "0") not in ("0", "", "false", "False")


def _record_key(record):
    return (
        record.technology,
        record.net_name,
        record.method,
        round(record.target, 18),
        record.feasible,
        record.total_width,
    )


def bench_kernels(store, protocol, technology, workers):
    """The production engine vs. a serial oracle pass on the Table-1 sweep."""
    methods = table1_methods(Table1Config(protocol=protocol))
    cases = store.cases(protocol)

    engine = DesignEngine(technology, workers=workers, store=store)
    outcome = engine.design_population(cases, methods)
    stats = outcome.statistics
    production_records = [_record_key(r) for r in outcome.records()]
    print(
        f"[production] {stats.wall_clock_seconds:7.2f}s  "
        f"{stats.states_generated:>12,} states  "
        f"{stats.states_per_second:>12,.0f} states/s  workers={stats.workers}"
    )

    # The oracle side replays every (net, method, target) serially, with the
    # record fields the engine derives from each solver's outcome.
    oracle_records = []
    started = time.perf_counter()
    for case in cases:
        for method in methods:
            if method.kind == "rip":
                # RIP on the oracles of both solver layers.
                rip = Rip(
                    technology,
                    method.rip,
                    dp=PowerAwareDp(technology, pruning=method.rip.pruning, core="staged"),
                    width_solver=DualBisectionWidthSolver(technology, evaluator="walked"),
                    window_cache=False,
                )
                prepared = rip.prepare(case.net)
                outcomes = [
                    (result.feasible, result.total_width if result.feasible else None)
                    for result in rip.run_prepared_batch(prepared, case.targets)
                ]
            else:
                result = PowerAwareDp(technology, core="staged").run(
                    case.net, method.library, case.candidates
                )
                points = [result.best_for_delay(target) for target in case.targets]
                outcomes = [
                    (point is not None, None if point is None else point.total_width)
                    for point in points
                ]
            oracle_records.extend(
                (technology.name, case.net.name, method.name, round(target, 18), *outcome)
                for target, outcome in zip(case.targets, outcomes)
            )
    oracle_seconds = time.perf_counter() - started
    print(f"[    oracle] {oracle_seconds:7.2f}s  serial")

    matches = production_records == oracle_records
    speedup = (
        oracle_seconds / stats.wall_clock_seconds
        if stats.wall_clock_seconds > 0
        else float("inf")
    )
    print(f"records identical: {matches}; speedup (oracle/production): {speedup:.2f}x")
    return {
        "num_designs": stats.num_designs,
        "vectorized_wall_clock_seconds": stats.wall_clock_seconds,
        "reference_wall_clock_seconds": oracle_seconds,
        "speedup": speedup,
        "states_generated": stats.states_generated,
        "states_per_second": stats.states_per_second,
        "records_identical": matches,
    }


def bench_window_cache(store, protocol, technology):
    """RIP multi-target sweep: window-compilation cache off / cold / warm."""
    cases = store.cases(protocol)

    def sweep(rips, prepared):
        started = time.perf_counter()
        outcomes = []
        for case in cases:
            rip = rips[case.net.name]
            for target in case.targets:
                result = rip.run_prepared(prepared[case.net.name], target)
                outcomes.append(
                    (
                        case.net.name,
                        round(target, 18),
                        result.feasible,
                        result.total_width,
                        result.delay,
                    )
                )
        return time.perf_counter() - started, outcomes

    rips_off = {case.net.name: Rip(technology, window_cache=False) for case in cases}
    prepared_off = {
        case.net.name: rips_off[case.net.name].prepare(case.net) for case in cases
    }
    off_seconds, off_outcomes = sweep(rips_off, prepared_off)

    rips_on = {case.net.name: Rip(technology) for case in cases}
    prepared_on = {
        case.net.name: rips_on[case.net.name].prepare(case.net) for case in cases
    }
    cold_seconds, cold_outcomes = sweep(rips_on, prepared_on)
    warm_seconds, warm_outcomes = sweep(rips_on, prepared_on)

    identical = off_outcomes == cold_outcomes == warm_outcomes
    hits = misses = 0
    for rip in rips_on.values():
        statistics = rip.window_cache.statistics
        hits += statistics.hits
        misses += statistics.misses
    warm_speedup = off_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(
        f"[win-cache ] off {off_seconds:5.2f}s  cold {cold_seconds:5.2f}s  "
        f"warm {warm_seconds:5.2f}s  warm speedup {warm_speedup:.2f}x  "
        f"hit rate {hits / (hits + misses):.0%}  identical: {identical}"
    )
    return {
        "num_designs": len(off_outcomes),
        "off_wall_clock_seconds": off_seconds,
        "cold_wall_clock_seconds": cold_seconds,
        "warm_wall_clock_seconds": warm_seconds,
        "warm_speedup": warm_speedup,
        "cache_hits": hits,
        "cache_misses": misses,
        "records_identical": identical,
    }


def _rip_sweep(cases, rips, prepared):
    """One multi-target RIP sweep; returns (seconds, outcome rows)."""
    started = time.perf_counter()
    outcomes = []
    for case in cases:
        rip = rips[case.net.name]
        for target in case.targets:
            result = rip.run_prepared(prepared[case.net.name], target)
            outcomes.append(
                (
                    case.net.name,
                    round(target, 18),
                    result.feasible,
                    result.total_width,
                    result.delay,
                    result.states_generated,
                )
            )
    return time.perf_counter() - started, outcomes


def bench_persistence(store, protocol, technology):
    """The on-disk design-state layer: cold vs. restart vs. resident warm."""
    cases = store.cases(protocol)

    with tempfile.TemporaryDirectory(prefix="repro-wincache-") as cache_dir:

        def attach():
            cache = WindowCompilationCache(cache_dir=cache_dir)
            rips = {case.net.name: Rip(technology, window_cache=cache) for case in cases}
            started = time.perf_counter()
            prepared = {
                case.net.name: rips[case.net.name].prepare(case.net) for case in cases
            }
            prepare_seconds = time.perf_counter() - started
            return cache, rips, prepared, prepare_seconds

        # Cold: empty directory, everything computed and persisted.
        cache, rips, prepared, cold_prepare = attach()
        cold_sweep, cold_outcomes = _rip_sweep(cases, rips, prepared)
        cold_seconds = cold_prepare + cold_sweep

        # Resident warm: the same inserters answer the same sweep again
        # (REFINE continuations + in-memory frontier layer).
        resident_sweep, resident_outcomes = _rip_sweep(cases, rips, prepared)
        resident_seconds = resident_sweep

        # Restart warm: fresh inserters + fresh cache attach to the same
        # directory — the process-restart / service-redeploy scenario.
        restart_cache, rips, prepared, restart_prepare = attach()
        restart_sweep, restart_outcomes = _rip_sweep(cases, rips, prepared)
        restart_seconds = restart_prepare + restart_sweep
        disk_hits = restart_cache.statistics.disk_hits

        # The dp-g10 baseline through DesignEngine: a cold engine fills the
        # baseline memo, a fresh one on the same directory reads it back.
        # A hit replays the stored runtime, so whole records must match.
        dp_g10 = MethodSpec.dp_baseline(
            "dp-g10", RepeaterLibrary.uniform(10.0, 400.0, 10.0)
        )

        def dp_sweep():
            engine = DesignEngine(technology, store=store, window_cache_dir=cache_dir)
            try:
                result = engine.design_population(cases, [dp_g10])
            finally:
                engine.close()
            return result.statistics, [asdict(record) for record in result.records()]

        dp_cold, dp_cold_records = dp_sweep()
        dp_restart, dp_restart_records = dp_sweep()

    identical = cold_outcomes == resident_outcomes == restart_outcomes
    dp_identical = dp_cold_records == dp_restart_records
    warm_speedup = cold_seconds / resident_seconds if resident_seconds > 0 else float("inf")
    restart_speedup = cold_seconds / restart_seconds if restart_seconds > 0 else float("inf")
    dp_speedup = (
        dp_cold.wall_clock_seconds / dp_restart.wall_clock_seconds
        if dp_restart.wall_clock_seconds > 0
        else float("inf")
    )
    print(
        f"[persist   ] cold {cold_seconds:5.2f}s  resident {resident_seconds:5.2f}s "
        f"({warm_speedup:.1f}x)  restart {restart_seconds:5.2f}s "
        f"({restart_speedup:.1f}x)  disk hits {disk_hits}  identical: {identical}"
    )
    print(
        f"[persist dp] dp-g10 cold {dp_cold.wall_clock_seconds:5.2f}s  restart "
        f"{dp_restart.wall_clock_seconds:5.2f}s ({dp_speedup:.1f}x)  disk hits "
        f"{dp_restart.window_cache.disk_hits}  identical: {dp_identical}"
    )
    return {
        "num_designs": len(cold_outcomes),
        "cold_wall_clock_seconds": cold_seconds,
        "resident_warm_wall_clock_seconds": resident_seconds,
        "restart_warm_wall_clock_seconds": restart_seconds,
        "warm_speedup": warm_speedup,
        "restart_speedup": restart_speedup,
        "disk_hits": disk_hits,
        "baseline": {
            "method": dp_g10.name,
            "num_designs": dp_cold.num_designs,
            "cold_wall_clock_seconds": dp_cold.wall_clock_seconds,
            "restart_wall_clock_seconds": dp_restart.wall_clock_seconds,
            "restart_speedup": dp_speedup,
            "disk_hits": dp_restart.window_cache.disk_hits,
            "records_identical": dp_identical,
        },
        "records_identical": identical and dp_identical,
    }


def bench_cold_design(store, protocol, technology):
    """First-contact REFINE: compiled vs. walked Elmore evaluation."""
    from repro.core.refine import Refine
    from repro.core.solution import InsertionSolution

    cases = store.cases(protocol)

    def full_sweep(evaluator):
        solver = DualBisectionWidthSolver(technology, evaluator=evaluator)
        rips = {
            case.net.name: Rip(technology, width_solver=solver, window_cache=False)
            for case in cases
        }
        started = time.perf_counter()
        prepared = {
            case.net.name: rips[case.net.name].prepare(case.net) for case in cases
        }
        prepare_seconds = time.perf_counter() - started
        sweep_seconds, outcomes = _rip_sweep(cases, rips, prepared)
        return prepare_seconds + sweep_seconds, outcomes

    walked_seconds, walked_outcomes = full_sweep("walked")
    compiled_seconds, compiled_outcomes = full_sweep("compiled")
    identical = walked_outcomes == compiled_outcomes
    flow_speedup = (
        walked_seconds / compiled_seconds if compiled_seconds > 0 else float("inf")
    )

    # The acceptance bar is on the REFINE stage itself (the coarse/final DP
    # passes are evaluator-independent): refine every first-contact
    # (net, coarse solution, target) problem through both evaluators.
    rip = Rip(technology, window_cache=False)
    problems = []
    for case in cases:
        prepared = rip.prepare(case.net)
        for target in case.targets:
            point = prepared.coarse_result.best_for_delay(target)
            if point is None:
                point = prepared.coarse_result.frontier.points[0]
            problems.append((case.net, InsertionSolution.from_dp(point.solution), target))

    def refine_sweep(evaluator):
        refine = Refine(
            technology, DualBisectionWidthSolver(technology, evaluator=evaluator)
        )
        started = time.perf_counter()
        results = [refine.run(net, initial, target) for net, initial, target in problems]
        return time.perf_counter() - started, [
            (r.feasible, r.solution.positions, r.solution.widths, r.delay)
            for r in results
        ]

    refine_walked_seconds, refine_walked = refine_sweep("walked")
    refine_compiled_seconds, refine_compiled = refine_sweep("compiled")
    refine_identical = refine_walked == refine_compiled
    refine_speedup = (
        refine_walked_seconds / refine_compiled_seconds
        if refine_compiled_seconds > 0
        else float("inf")
    )
    print(
        f"[cold      ] flow walked {walked_seconds:5.2f}s  compiled "
        f"{compiled_seconds:5.2f}s ({flow_speedup:.2f}x)  refine walked "
        f"{refine_walked_seconds:5.2f}s  compiled {refine_compiled_seconds:5.2f}s "
        f"({refine_speedup:.2f}x)  identical: {identical and refine_identical}"
    )
    return {
        "num_designs": len(walked_outcomes),
        "walked_wall_clock_seconds": walked_seconds,
        "compiled_wall_clock_seconds": compiled_seconds,
        "flow_speedup": flow_speedup,
        "refine_walked_wall_clock_seconds": refine_walked_seconds,
        "refine_compiled_wall_clock_seconds": refine_compiled_seconds,
        "refine_speedup": refine_speedup,
        "records_identical": identical,
        "refine_results_identical": refine_identical,
    }


def bench_fused_dp(store, protocol, technology):
    """The fused DP core + compiled analytical kernels on the cold path.

    Measures the *first-contact* cold design of every net — ``tau_min``
    (the delay-optimal DP that anchors every timing target; the protocol
    store caches it precisely because a cold net pays it), the coarse DP,
    REFINE and the per-target final DP — on production (fused DPs,
    compiled REFINE) against the oracles of both solver layers (the
    staged DP core and the walked width solver).  Outcomes must be
    bit-for-bit identical and the production path must clear the >= 2x
    acceptance bar.  A pure power-DP throughput run
    reports the states/sec jump of the fused core on its own.
    """
    from repro.dp.candidates import uniform_candidates
    from repro.dp.vanginneken import DelayOptimalDp
    from repro.engine.cache import timing_targets

    cases = store.cases(protocol)
    tau_library = RepeaterLibrary.uniform(10.0, 400.0, 10.0)

    def cold_designs(core, evaluator):
        rows = []
        started = time.perf_counter()
        for case in cases:
            tau_min = DelayOptimalDp(technology, core=core).minimum_delay(
                case.net, tau_library, uniform_candidates(case.net, 50.0e-6)
            )
            targets = timing_targets(tau_min, count=len(case.targets))
            rip = Rip(
                technology,
                dp=PowerAwareDp(technology, core=core),
                width_solver=DualBisectionWidthSolver(technology, evaluator=evaluator),
                window_cache=False,
            )
            prepared = rip.prepare(case.net)
            for target in targets:
                result = rip.run_prepared(prepared, target)
                rows.append(
                    (
                        case.net.name,
                        tau_min,
                        round(target, 18),
                        result.feasible,
                        result.total_width,
                        result.delay,
                        result.refined.solution.positions,
                        result.refined.solution.widths,
                    )
                )
        return time.perf_counter() - started, rows

    staged_seconds, staged_rows = cold_designs("staged", "walked")
    fused_seconds, fused_rows = cold_designs("fused", "compiled")
    staged_seconds = min(staged_seconds, cold_designs("staged", "walked")[0])
    fused_seconds = min(fused_seconds, cold_designs("fused", "compiled")[0])
    designs_identical = staged_rows == fused_rows
    speedup = staged_seconds / fused_seconds if fused_seconds > 0 else float("inf")

    # Pure DP throughput: the fused core's states/sec on the paper-style
    # baseline sweep, frontier-identical to the staged core.
    def dp_pass(core):
        dp = PowerAwareDp(technology, core=core)
        states = 0
        frontiers = []
        started = time.perf_counter()
        for case in cases:
            result = dp.run(case.net, tau_library, case.candidates)
            states += result.statistics.states_generated
            frontiers.append(
                [
                    (p.delay, p.total_width, p.solution.positions, p.solution.widths)
                    for p in result.frontier.points
                ]
            )
        return time.perf_counter() - started, states, frontiers

    staged_dp_seconds, _, staged_frontiers = dp_pass("staged")
    fused_dp_seconds, fused_states, fused_frontiers = dp_pass("fused")
    frontiers_identical = staged_frontiers == fused_frontiers
    states_per_second = fused_states / fused_dp_seconds if fused_dp_seconds > 0 else 0.0
    dp_speedup = (
        staged_dp_seconds / fused_dp_seconds if fused_dp_seconds > 0 else float("inf")
    )

    records_identical = designs_identical and frontiers_identical
    print(
        f"[fused-dp  ] cold design staged {staged_seconds:5.2f}s  fused "
        f"{fused_seconds:5.2f}s ({speedup:.2f}x)  dp kernels {dp_speedup:.2f}x "
        f"{states_per_second:,.0f} states/s  identical: {records_identical}"
    )
    return {
        "num_designs": len(fused_rows),
        "staged_wall_clock_seconds": staged_seconds,
        "fused_wall_clock_seconds": fused_seconds,
        "speedup": speedup,
        "dp_staged_wall_clock_seconds": staged_dp_seconds,
        "dp_fused_wall_clock_seconds": fused_dp_seconds,
        "dp_speedup": dp_speedup,
        "states_generated": fused_states,
        "states_per_second": states_per_second,
        "records_identical": records_identical,
    }


def bench_baseline_bound(store, protocol, technology):
    """Plain baseline DP vs. the incumbent-bounded ``run_many``, per library.

    ``dp-g40`` has 10 widths, below the four-width sub-library the stride
    needs, so its ``run_many`` is one plain run: it prices the fallback.
    """
    from repro.engine.compiled import CompiledNet

    cases = store.cases(protocol)
    dp = PowerAwareDp(technology)
    section = {}
    for name, granularity in (("dp-g10", 10.0), ("dp-g40", 40.0)):
        library = RepeaterLibrary.uniform(10.0, 400.0, granularity)
        plain_seconds = bounded_seconds = 0.0
        plain_states = bounded_states = 0
        identical = True
        for case in cases:
            compiled = CompiledNet(case.net, case.candidates)
            started = time.perf_counter()
            result = dp.run(case.net, library, compiled=compiled)
            plain = [result.best_for_delay(target) for target in case.targets]
            plain_done = time.perf_counter()
            answers, statistics = dp.run_many(
                case.net, library, case.targets, compiled=compiled
            )
            bounded_seconds += time.perf_counter() - plain_done
            plain_seconds += plain_done - started
            plain_states += result.statistics.states_generated
            bounded_states += statistics.states_generated
            identical &= answers == plain
        speedup = plain_seconds / bounded_seconds if bounded_seconds > 0 else float("inf")
        print(
            f"[bound {name}] plain {plain_seconds:5.2f}s {plain_states:,} states  "
            f"run_many {bounded_seconds:5.2f}s {bounded_states:,} states "
            f"({speedup:.2f}x)  identical: {identical}"
        )
        section[name] = {
            "plain_seconds": plain_seconds,
            "run_many_seconds": bounded_seconds,
            "speedup": speedup,
            "plain_states": plain_states,
            "run_many_states": bounded_states,
            "records_identical": identical,
        }
    section["records_identical"] = all(
        entry["records_identical"] for entry in section.values()
    )
    return section


def bench_tree_dp(technology):
    """Fused tree DP vs. the Python reference oracle on H-trees.

    The population is the deterministic H-tree clock workload
    (:func:`repro.engine.design.build_htree_cases`): every sink is
    equidistant from the driver, each case sweeps skew-aware shared targets
    anchored at the tree's own ``tau_min``.  Both cores walk the
    same :class:`~repro.engine.compiled.CompiledTree` edge schedules, so
    any divergence is a kernel bug, not a discretisation artefact: the
    per-solution signature (buffer assignments, worst-sink delay, total
    width, feasibility) and the per-solve statistics must be bit-for-bit
    identical, and the fused core must clear the >= 5x acceptance bar.
    """
    from repro.engine.compiled import CompiledTree
    from repro.engine.design import build_htree_cases
    from repro.tree.buffering import TreePowerDp

    count, levels = (4, 3) if FULL_SCALE else (3, 2)
    cases = build_htree_cases(technology, count=count, levels=levels)
    library = RepeaterLibrary.uniform(20.0, 400.0, 20.0)
    compiled = {
        case.tree.name: CompiledTree(case.tree, case.site_pitch) for case in cases
    }

    def signature(solutions):
        return [
            (
                tuple(
                    (a.parent, a.child, a.distance_from_child, a.width)
                    for a in solution.assignments
                ),
                solution.worst_delay,
                solution.total_width,
                solution.feasible,
            )
            for solution in solutions
        ]

    def solve_pass(core):
        rows = []
        states = 0
        started = time.perf_counter()
        for case in cases:
            dp = TreePowerDp(
                technology,
                site_pitch=case.site_pitch,
                max_states_per_node=case.max_states_per_node,
                core=core,
            )
            solutions = dp.run_many(
                case.tree, library, case.targets, compiled=compiled[case.tree.name]
            )
            states += solutions[0].statistics.states_generated
            rows.extend(signature(solutions))
        return time.perf_counter() - started, rows, states

    reference_seconds, reference_rows, reference_states = solve_pass("reference")
    fused_seconds, fused_rows, fused_states = solve_pass("fused")
    for _ in range(2):  # best-of-3 timing; results are deterministic
        reference_seconds = min(reference_seconds, solve_pass("reference")[0])
        fused_seconds = min(fused_seconds, solve_pass("fused")[0])

    identical = reference_rows == fused_rows and reference_states == fused_states
    speedup = reference_seconds / fused_seconds if fused_seconds > 0 else float("inf")
    states_per_second = fused_states / fused_seconds if fused_seconds > 0 else 0.0
    print(
        f"[tree-dp   ] reference {reference_seconds:5.2f}s  fused "
        f"{fused_seconds:5.2f}s ({speedup:.1f}x)  {fused_states:,} states  "
        f"{states_per_second:,.0f} states/s  identical: {identical}"
    )
    return {
        "num_trees": len(cases),
        "htree_levels": levels,
        "num_solutions": len(fused_rows),
        "reference_wall_clock_seconds": reference_seconds,
        "fused_wall_clock_seconds": fused_seconds,
        "speedup": speedup,
        "states_generated": fused_states,
        "states_per_second": states_per_second,
        "records_identical": identical,
    }


def bench_technologies(store, protocol, technology, workers, tech_names):
    """Multi-technology population sweep with per-node statistics."""
    engine = DesignEngine(technology, workers=workers, store=store)
    table1 = table1_methods(Table1Config(protocol=protocol))
    methods = [
        MethodSpec.rip_method(),
        next(method for method in table1 if method.name == "dp-g10"),
    ]
    technologies = [get_node(name) for name in tech_names]
    started = time.perf_counter()
    outcome = engine.design_population(
        methods=methods, technologies=technologies, protocol=protocol
    )
    wall_clock = time.perf_counter() - started
    section = {"wall_clock_seconds": wall_clock, "nodes": {}}
    for name in outcome.technologies:
        nets = outcome.for_technology(name)
        records = [record for net in nets for record in net.records]
        states = sum(net.states_generated for net in nets)
        infeasible = sum(1 for record in records if not record.feasible)
        failures = sum(1 for net in nets if net.failed)
        section["nodes"][name] = {
            "num_nets": len(nets),
            "num_designs": len(records),
            "states_generated": states,
            "infeasible_designs": infeasible,
            "failed_nets": failures,
        }
        print(
            f"[{name:>10}] {len(records):4d} designs over {len(nets)} nets  "
            f"{states:>12,} states  {infeasible} infeasible  {failures} failed"
        )
    return section


def bench_service(store, protocol, technology):
    """The design service under concurrent HTTP clients, oracle-gated.

    One engine-lifetime serial ``DesignEngine`` behind the asyncio daemon;
    32 concurrent clients POST the population's nets (cycled, so identical
    concurrent requests exercise the micro-batcher's dedup).  Every
    response's records must be bit-identical to a direct serial
    ``design_population`` sweep of the same parsed requests.
    """
    import http.client
    from concurrent.futures import ThreadPoolExecutor

    from repro.net.io import net_to_dict
    from repro.service.schema import parse_request
    from repro.service.server import serve_in_background

    clients = 32
    cases = store.cases(protocol)
    payloads = [
        {
            "tenant": "bench",
            "technology": technology.name,
            "methods": ["rip"],
            "net": net_to_dict(case.net),
            "targets": list(case.targets),
            "tau_min": case.tau_min,
        }
        for case in cases
    ]
    bodies = [payloads[i % len(payloads)] for i in range(clients)]

    def strip(record_dict):
        return {k: v for k, v in record_dict.items() if k != "runtime_seconds"}

    # Direct serial oracle of the same requests (deduplicated by digest).
    oracle = {}
    unique = []
    for body in bodies:
        request = parse_request(body)
        if request.digest not in oracle:
            oracle[request.digest] = None
            unique.append(request)
    oracle_engine = DesignEngine(technology, workers=0, store=ProtocolStore())
    try:
        population = oracle_engine.design_population(
            [request.case for request in unique], unique[0].methods()
        )
    finally:
        oracle_engine.close()
    for request, net_result in zip(unique, population.nets):
        oracle[request.digest] = [strip(asdict(r)) for r in net_result.records]

    def client(body):
        started = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=300)
        try:
            conn.request(
                "POST", "/design", body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        return time.perf_counter() - started, response.status, payload

    engine = DesignEngine(technology, workers=0, store=ProtocolStore())
    bg = serve_in_background(engine, max_batch=clients)
    try:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            outcomes = list(pool.map(client, bodies))
        wall_clock = time.perf_counter() - started
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
        conn.request("GET", "/metrics")
        metrics = json.loads(conn.getresponse().read())
        conn.close()
    finally:
        bg.stop()

    identical = True
    for (latency, status, payload), body in zip(outcomes, bodies):
        if status != 200 or payload.get("status") != "ok":
            identical = False
            continue
        expected = oracle[parse_request(body).digest]
        identical &= [strip(r) for r in payload["records"]] == expected

    latencies = sorted(outcome[0] for outcome in outcomes)
    p50 = latencies[len(latencies) // 2]
    p95 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))]
    requests_per_second = clients / wall_clock if wall_clock > 0 else 0.0
    print(
        f"[service   ] {clients} clients in {wall_clock:5.2f}s  "
        f"{requests_per_second:6.1f} req/s  p50 {p50 * 1e3:6.1f}ms  "
        f"p95 {p95 * 1e3:6.1f}ms  dedup {metrics['requests_deduplicated']}  "
        f"identical: {identical}"
    )
    return {
        "concurrent_clients": clients,
        "wall_clock_seconds": wall_clock,
        "requests_per_second": requests_per_second,
        "p50_latency_ms": p50 * 1e3,
        "p95_latency_ms": p95 * 1e3,
        "requests_served": metrics["requests_served"],
        "requests_deduplicated": metrics["requests_deduplicated"],
        "batches_drained": metrics["batches_drained"],
        "records_identical": identical,
    }


def bench_fault_recovery(technology):
    """Self-healing sweep under injected worker faults (ISSUE 10).

    A 32-net parallel sweep with ``REPRO_FAULTS`` injecting a transient
    SIGKILL (retried on a rebuilt pool), a repeating SIGKILL (quarantined
    as ``poisoned``) and a hang (reaped at the task deadline as
    ``timeout``).  The sweep must complete with exactly the injected nets
    failing, zero lost results, at least one pool rebuild, and every
    surviving record bit-identical (runtime excluded) to an all-healthy
    serial sweep of the same population.
    """

    chaos_protocol = ProtocolConfig(
        technology=technology, num_nets=32, targets_per_net=2, seed=2005
    )
    store = ProtocolStore()
    cases = store.cases(chaos_protocol)
    methods = [
        MethodSpec.dp_baseline(
            "dp-g40", RepeaterLibrary.uniform_count(10.0, 40.0, 10)
        )
    ]

    oracle_engine = DesignEngine(technology, workers=0, store=ProtocolStore())
    try:
        started = time.perf_counter()
        oracle = oracle_engine.design_population(cases, methods)
        serial_seconds = time.perf_counter() - started
    finally:
        oracle_engine.close()

    def strip(net_result):
        return [
            {k: v for k, v in asdict(r).items() if k != "runtime_seconds"}
            for r in net_result.records
        ]

    transient, poisoned, hung = "net5", "net9", "net13"
    injected = {poisoned: "poisoned", hung: "timeout"}
    spec = ",".join(
        [
            f"design.case@{technology.name}/{transient}:sigkill:1",
            f"design.case@{technology.name}/{poisoned}:sigkill:2",
            f"design.case@{technology.name}/{hung}:hang:99",
        ]
    )
    previous = os.environ.get(faults.ENV_VAR)
    os.environ[faults.ENV_VAR] = spec
    faults.reset()
    engine = DesignEngine(
        technology, workers=4, store=ProtocolStore(), task_timeout_s=10.0
    )
    try:
        started = time.perf_counter()
        population = engine.design_population(cases, methods)
        chaos_seconds = time.perf_counter() - started
        recovery = engine.recovery.snapshot()
    finally:
        engine.close()
        if previous is None:
            os.environ.pop(faults.ENV_VAR, None)
        else:
            os.environ[faults.ENV_VAR] = previous
        faults.reset()

    oracle_by_net = {net.net_name: strip(net) for net in oracle.nets}
    failure_kinds = {
        failure.net_name: failure.failure_kind for failure in population.failures()
    }
    lost = sum(
        1
        for net in population.nets
        if not net.records and net.failure_kind is None
    )
    identical = failure_kinds == injected
    for net in population.nets:
        if net.net_name in injected:
            identical &= net.records == ()
        else:
            identical &= strip(net) == oracle_by_net[net.net_name]
    (retried,) = [net for net in population.nets if net.net_name == transient]

    print(
        f"[fault-rec ] {len(cases)} nets under chaos in {chaos_seconds:5.2f}s  "
        f"rebuilds {recovery['rebuilds']}  retries {recovery['retries']}  "
        f"quarantined {recovery['quarantined']}  timeouts {recovery['timeouts']}  "
        f"lost {lost}  identical: {identical}"
    )
    return {
        "num_nets": len(cases),
        "workers": 4,
        "task_timeout_seconds": 10.0,
        "injected_spec": spec,
        "serial_wall_clock_seconds": serial_seconds,
        "chaos_wall_clock_seconds": chaos_seconds,
        "pool_rebuilds": recovery["rebuilds"],
        "retries": recovery["retries"],
        "quarantined": recovery["quarantined"],
        "timeouts": recovery["timeouts"],
        "failure_kinds": failure_kinds,
        "transient_attempts": retried.attempts,
        "lost_results": lost,
        "records_identical": identical,
    }


def run(num_nets, targets_per_net, workers, tech_names, output):
    technology = NODE_180NM
    protocol = ProtocolConfig(
        technology=technology, num_nets=num_nets, targets_per_net=targets_per_net, seed=2005
    )
    store = ProtocolStore()

    build_started = time.perf_counter()
    store.cases(protocol)
    population_build_seconds = time.perf_counter() - build_started

    kernels = bench_kernels(store, protocol, technology, workers)
    window_cache = bench_window_cache(store, protocol, technology)
    persistence = bench_persistence(store, protocol, technology)
    cold_design = bench_cold_design(store, protocol, technology)
    fused_dp = bench_fused_dp(store, protocol, technology)
    baseline_bound = bench_baseline_bound(store, protocol, technology)
    tree_dp = bench_tree_dp(technology)
    technologies = bench_technologies(store, protocol, technology, workers, tech_names)
    service = bench_service(store, protocol, technology)
    fault_recovery = bench_fault_recovery(technology)

    payload = {
        "benchmark": "engine-population-sweep",
        "scale": "paper" if (FULL_SCALE or num_nets >= 20) else "reduced",
        "num_nets": num_nets,
        "targets_per_net": targets_per_net,
        "population_build_seconds": population_build_seconds,
        "workers": workers,
        "kernels": kernels,
        "window_cache": window_cache,
        "persistence": persistence,
        "cold_design": cold_design,
        "fused_dp": fused_dp,
        "baseline_bound": baseline_bound,
        "tree_dp": tree_dp,
        "technologies": technologies,
        "service": service,
        "fault_recovery": fault_recovery,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    Path(output).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"wrote {output}")
    if not kernels["records_identical"]:
        raise SystemExit("production and oracle records diverged")
    if not window_cache["records_identical"]:
        raise SystemExit("window-cache on and off records diverged")
    if not persistence["records_identical"]:
        raise SystemExit("persisted/warm sweep records diverged from the cold run")
    if persistence["warm_speedup"] < 2.0:
        raise SystemExit(
            "warm repeated sweep below the 2x acceptance bar: "
            f"{persistence['warm_speedup']:.2f}x"
        )
    if not (cold_design["records_identical"] and cold_design["refine_results_identical"]):
        raise SystemExit("compiled and walked cold-design results diverged")
    if cold_design["refine_speedup"] < 2.0:
        raise SystemExit(
            "first-contact compiled REFINE below the 2x acceptance bar: "
            f"{cold_design['refine_speedup']:.2f}x"
        )
    if not fused_dp["records_identical"]:
        raise SystemExit("fused and staged DP results diverged")
    if fused_dp["speedup"] < 2.0:
        raise SystemExit(
            "fused cold single-design flow below the 2x acceptance bar: "
            f"{fused_dp['speedup']:.2f}x"
        )
    if fused_dp["states_per_second"] <= kernels["states_per_second"]:
        raise SystemExit(
            "fused DP throughput did not exceed the kernels sweep: "
            f"{fused_dp['states_per_second']:,.0f} <= "
            f"{kernels['states_per_second']:,.0f} states/s"
        )
    if not baseline_bound["records_identical"]:
        raise SystemExit("the bounded baseline DP's answers diverged from a plain run")
    if not tree_dp["records_identical"]:
        raise SystemExit("fused tree DP diverged from the reference oracle")
    if tree_dp["speedup"] < 5.0:
        raise SystemExit(
            "fused tree DP below the 5x acceptance bar: "
            f"{tree_dp['speedup']:.2f}x"
        )
    if not service["records_identical"]:
        raise SystemExit(
            "service responses diverged from the direct serial sweep"
        )
    if not fault_recovery["records_identical"]:
        raise SystemExit(
            "fault-injected sweep diverged from the all-healthy serial sweep"
        )
    if fault_recovery["lost_results"] != 0:
        raise SystemExit(
            f"fault-injected sweep lost {fault_recovery['lost_results']} results"
        )
    if fault_recovery["pool_rebuilds"] < 1:
        raise SystemExit(
            "fault-injected sweep never rebuilt the worker pool — the "
            "injected SIGKILLs did not reach it"
        )
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_nets = 20 if FULL_SCALE else 6
    default_targets = 20 if FULL_SCALE else 10
    parser.add_argument("--nets", type=int, default=default_nets)
    parser.add_argument("--targets", type=int, default=default_targets)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument(
        "--tech",
        action="append",
        default=None,
        help="technology nodes of the multi-node section (repeatable; "
        "default: cmos180 cmos90)",
    )
    parser.add_argument("--output", default="BENCH_engine.json")
    args = parser.parse_args()
    tech_names = args.tech or ["cmos180", "cmos90"]
    run(args.nets, args.targets, args.workers, tech_names, args.output)


if __name__ == "__main__":
    main()
