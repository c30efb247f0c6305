"""The sweep workloads: serial ``DesignEngine.design_population`` passes.

``sweep-cold``
    Every pass designs the population on a fresh in-memory engine: the
    two-pin nets with ``rip``, then with ``dp-g10``, then the H-trees with
    ``tree-g20``, one ``design_population`` call each.  Nothing is cached
    across passes, so every DP, REFINE solve and tree DP is computed.

``sweep-warm``
    Set-up fills a fresh cache directory with the same three calls.  Each
    measured call then restarts on that directory: a fresh
    ``ProtocolStore`` and ``DesignEngine`` (what a second ``rip sweep
    --cache-dir D`` does, minus interpreter start) with ``checkpoint=True``.
    ``rip`` and ``tree-g20`` are answered from the disk tiers while
    ``dp-g10`` is recomputed, so ``rip`` and ``tree-g20`` are restarted
    several times per pass (``warm_repeats``) to give each method
    comparable measured time.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.engine.cache import ProtocolStore
from repro.engine.design import DesignEngine

import layers
import population
from gate import Gate
from report import Report


@dataclass
class MethodTally:
    """Measured calls of one method over a run."""

    records: int = 0
    seconds: float = 0.0
    calls: int = 0
    runtimes: List[float] = field(default_factory=list)


class SweepRun:
    """State shared by both sweep workloads over one run."""

    def __init__(self, context, warm: bool) -> None:
        self.context = context
        self.spec = context.spec["sweep"]
        self.warm = warm
        self.methods = population.sweep_methods()
        self.gate = Gate()
        self.tally: Dict[str, MethodTally] = {m.name: MethodTally() for m in self.methods}
        self.reference_records: Dict[str, list] = {}
        self.cache_dir = context.scratch / "cache"
        self.last_probe = time.perf_counter()

    # ------------------------------------------------------------------ #
    def build_inputs(self, store: ProtocolStore):
        spec, seed = self.spec, self.context.seed
        cases = population.twopin_cases(store, seed, spec)
        return cases, population.htree_cases(seed, spec)

    def population_for(self, method, cases, trees):
        return trees if method.kind == "tree" else cases

    def call(self, engine, method, cases, *, measured: bool, checkpoint: bool = False) -> list:
        """Design ``cases`` with ``method``; returns the records.

        Without a journal the population goes in chunks of ``chunk`` nets,
        one ``design_population`` call each, so that the host probe can run
        every ``probe_interval_s`` while the program is being measured.
        Every call is gated, and tallied when ``measured``.
        """
        size = len(cases) if checkpoint else self.spec["chunk"]
        records = []
        for first in range(0, len(cases), size):
            started = time.perf_counter()
            result = engine.design_population(cases[first:first + size], [method], checkpoint=checkpoint)
            seconds = time.perf_counter() - started
            for net in result.nets:
                self.gate.check((method.name, net.net_name), net.records, engine_failed=net.failed)
            records.extend(result.records())
            if measured:
                tally = self.tally[method.name]
                tally.records += len(result.records())
                tally.seconds += seconds
                tally.calls += 1
                if method.kind == "rip":
                    tally.runtimes.extend(record.runtime_seconds for record in result.records())
            self.probe_when_due()
        self.reference_records.setdefault(method.name, records)
        return records

    def probe_when_due(self) -> None:
        """Sample the host probe if ``probe_interval_s`` has passed since the last one."""
        now = time.perf_counter()
        if now - self.last_probe >= self.spec["probe_interval_s"]:
            self.context.probe.sample()
            self.last_probe = time.perf_counter()

    # ------------------------------------------------------------------ #
    def setup(self) -> float:
        """Set up the run; returns the set-up seconds.

        sweep-cold builds its inputs ``setup_repeats`` times and returns the
        median.  sweep-warm's set-up is the cache-fill pass (population
        build and save, then the three calls), which runs once: repeating a
        whole cold pass would double the run.
        """
        context = self.context
        if self.warm:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            started = time.perf_counter()
            store = ProtocolStore(cache_dir=self.cache_dir)
            engine = DesignEngine(population.TECHNOLOGY, store=store)
            self.cases, self.trees = self.build_inputs(store)
            for method in self.methods:
                self.call(
                    engine, method, self.population_for(method, self.cases, self.trees),
                    measured=False, checkpoint=True,
                )
            engine.close()
            setup = time.perf_counter() - started
            context.probe.sample()
            context.lines.append(f"setup: fill pass {setup:.2f}s (population build + three calls)")
            return setup
        builds = []
        for _ in range(self.spec["setup_repeats"]):
            started = time.perf_counter()
            self.cases, self.trees = self.build_inputs(ProtocolStore())
            builds.append(time.perf_counter() - started)
            context.probe.sample()
        context.lines.append(
            "setup: population builds " + " ".join(f"{seconds:.3f}s" for seconds in builds)
        )
        return statistics.median(builds)

    def cold_pass(self) -> None:
        engine = DesignEngine(population.TECHNOLOGY, store=ProtocolStore())
        for method in self.methods:
            self.call(engine, method, self.population_for(method, self.cases, self.trees), measured=True)
        engine.close()

    def warm_pass(self) -> None:
        repeats = self.spec["warm_repeats"]
        for method in self.methods:
            for _ in range(repeats[method.name]):
                store = ProtocolStore(cache_dir=self.cache_dir)
                engine = DesignEngine(population.TECHNOLOGY, store=store)
                cases = (
                    self.trees
                    if method.kind == "tree"
                    else population.twopin_cases(store, self.context.seed, self.spec)
                )
                self.call(engine, method, cases, measured=True, checkpoint=True)
                engine.close()

    def measure(self) -> int:
        """Run passes for about ``--seconds``; returns the number of passes.

        A pass starts only while it is expected to end within the budget
        (the first pass always runs).
        """
        run_pass = self.warm_pass if self.warm else self.cold_pass
        started = time.perf_counter()
        passes = 0
        while True:
            run_pass()
            passes += 1
            elapsed = time.perf_counter() - started
            if elapsed * (passes + 1) / passes > self.context.seconds:
                return passes

    def spot_check(self) -> None:
        """Re-design the first nets and every tree after the timed window.

        Each call is gated against the measured pass, so a design that does
        not repeat bit for bit (runtime aside) fails the run.
        """
        engine = DesignEngine(population.TECHNOLOGY, store=ProtocolStore())
        nets = self.cases[: self.spec["spot_check_nets"]]
        for method in self.methods:
            self.call(engine, method, self.population_for(method, nets, self.trees), measured=False)
        engine.close()

    # ------------------------------------------------------------------ #
    def quality(self, report: Report) -> None:
        """The paper's power comparison over (net, target) pairs feasible for both."""
        rip = {(r.net_name, r.target): r for r in self.reference_records["rip"]}
        dp = {(r.net_name, r.target): r for r in self.reference_records["dp-g10"]}
        both = [key for key, record in rip.items() if record.feasible and key in dp and dp[key].feasible]
        rip_width = sum(rip[key].total_width for key in both)
        dp_width = sum(dp[key].total_width for key in both)
        report.plain("rip_width_ratio", rip_width / dp_width, "ratio")
        feasible = sum(1 for record in rip.values() if record.feasible)
        report.plain("rip_feasible_share", feasible / len(rip), "share")
        report.lines.append(
            f"quality: rip/dp-g10 width over {len(both)} pairs = {rip_width:.1f}/{dp_width:.1f}; "
            f"rip feasible {feasible}/{len(rip)}"
        )

    def end_to_end(self, report: Report, setup_seconds: float) -> None:
        targets = self.spec["targets"]
        for method in self.methods:
            tally = self.tally[method.name]
            report.rate(f"{method.kind}_designs_per_s", tally.records / tally.seconds, "designs/s")
            report.lines.append(
                f"{method.name}: {tally.records} records in {tally.calls} calls, {tally.seconds:.2f}s raw"
            )
        rip = self.tally["rip"]
        # Sweeps serve no requests: their latency is the engine's per-design
        # runtime of the rip records (what `rip sweep --json` reports), and
        # their saturation rate is how many whole-net rip requests per
        # second the serial engine completes.
        report.time_ms("latency_p50_ms", 1e3 * statistics.median(rip.runtimes))
        report.time_ms("latency_p90_ms", 1e3 * statistics.quantiles(rip.runtimes, n=10)[-1])
        report.rate("saturation_rps", rip.records / targets / rip.seconds, "req/s")
        report.time_s("setup_s", setup_seconds)
        report.peak_rss_self()
        self.quality(report)


def run(context, warm: bool) -> Report:
    sweep = SweepRun(context, warm)
    report = Report(context)
    tracer = layers.tracer_for(context)
    run_started = time.perf_counter()
    setup_seconds = sweep.setup()
    # Keep the set-up's objects (population pool, fill-pass records) out of
    # the collector's way, so the measured calls pay for garbage collection
    # of their own objects only, as in a ``rip sweep`` process.
    gc.collect()
    gc.freeze()
    if tracer is None:
        passes = sweep.measure()
        if not warm:
            sweep.spot_check()
        sweep.end_to_end(report, setup_seconds)
    else:
        window_start = tracer.mark()
        started = time.perf_counter()
        passes = sweep.measure()
        window_seconds = time.perf_counter() - started
        tracer.uninstall()
        layers.sweep_report(
            report, tracer, window_start, window_seconds, time.perf_counter() - run_started
        )
        tracer.dump(context.traces / f"{context.workload}-seed{context.seed}.jsonl")
    report.lines.append(f"passes: {passes}")
    report.gate = sweep.gate
    shutil.rmtree(context.scratch, ignore_errors=True)
    return report
