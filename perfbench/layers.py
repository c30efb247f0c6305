"""Per-layer metrics of the traced run, computed from its spans.

Every busy or self time of a layer that some workload bypasses is reported
as a share of the traced window's wall clock: a bypassed layer then reads
0 rather than a time that is exactly 0.0 s on every run.  Layers that every
workload exercises report seconds.  The seconds behind every share are
printed in the trace table.

Set-up layers (``store``, ``tau_min``, record-file saves) are counted over
the whole traced run; every other layer over the measured window only.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from report import percentile
from tracing import Tracer, install_program_wrappers

#: Spans whose ancestry decides which power-DP pass a ``PowerAwareDp.run`` is.
_DP_PASSES = (("rip.prepare", "coarse"), ("rip.targets", "final"))


def tracer_for(context) -> Optional[Tracer]:
    """A tracer with the program wrappers installed, for ``--trace 1`` runs."""
    if not context.trace:
        return None
    tracer = Tracer()
    install_program_wrappers(tracer)
    return tracer


class Spans:
    """Index over a list of spans: children, ancestry, per-name selection."""

    def __init__(self, spans: Sequence[list]) -> None:
        self.spans = spans
        self.children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(index)

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[2] - span[1]

    def child_time(self, index: int) -> float:
        return sum(self.duration(child) for child in self.children.get(index, ()))

    def ancestors(self, index: int) -> Iterable[str]:
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def select(self, name: str, indices: Iterable[int]) -> List[int]:
        return [i for i in indices if self.spans[i][0] == name]

    def busy(self, indices: Iterable[int]) -> float:
        return sum(self.duration(i) for i in indices)

    def self_time(self, indices: Iterable[int]) -> float:
        return sum(self.duration(i) - self.child_time(i) for i in indices)

    def attr(self, indices: Iterable[int], key: str) -> float:
        return sum((self.spans[i][4] or {}).get(key, 0) for i in indices)


def dp_pass(spans: Spans, index: int) -> str:
    """``coarse``, ``final`` or ``baseline`` for one ``powerdp`` span."""
    for ancestor in spans.ancestors(index):
        for name, kind in _DP_PASSES:
            if ancestor == name:
                return kind
    return "baseline"


def layer_metrics(
    report,
    spans: Spans,
    window: Sequence[int],
    window_seconds: float,
    whole_run: Sequence[int],
    run_seconds: float,
) -> None:
    """Every per-layer metric that the engine-side spans give."""
    lines = report.lines

    def share(seconds: float, base: float) -> float:
        return seconds / base if base > 0.0 else 0.0

    def table(name: str, indices: List[int], base: float, self_seconds: Optional[float] = None) -> None:
        busy = spans.busy(indices)
        extra = "" if self_seconds is None else f", self {self_seconds:.3f}s"
        lines.append(
            f"layer {name:<22} calls {len(indices):>7}  busy {busy:8.3f}s "
            f"({100.0 * share(busy, base):5.1f}%){extra}"
        )

    # engine.cache ----------------------------------------------------------
    store = spans.select("store", whole_run)
    report.time_s("store.busy_s", spans.busy(store))
    report.plain("store.builds", spans.attr(store, "builds"), "count")
    report.plain("store.disk_hits", spans.attr(store, "disk_hits"), "count")
    table("store (whole run)", store, run_seconds)
    # dp.vanginneken ---------------------------------------------------------
    tau_min = spans.select("tau_min", whole_run)
    report.plain("tau_min.calls", len(tau_min), "count")
    report.time_s("tau_min.busy_s", spans.busy(tau_min))
    table("tau_min (whole run)", tau_min, run_seconds)
    # engine.design ----------------------------------------------------------
    engine = spans.select("engine", window)
    engine_self = spans.self_time(engine)
    report.plain("engine.calls", len(engine), "count")
    report.time_s("engine.busy_s", spans.busy(engine))
    report.time_s("engine.self_s", engine_self)
    report.plain("engine.failed", spans.attr(engine, "failed"), "count")
    coverage = min((share(spans.child_time(i), spans.duration(i)) for i in engine), default=0.0)
    report.plain("engine.child_coverage_min", coverage, "share")
    table("engine", engine, window_seconds, engine_self)
    lines.append(
        f"check: layer spans cover {100.0 * coverage:.1f}% of the slowest-covered "
        f"design_population call ({'ok' if coverage >= 0.9 else 'BELOW 90%'})"
    )
    # core.rip ---------------------------------------------------------------
    prepare = spans.select("rip.prepare", window)
    targets = spans.select("rip.targets", window)
    report.plain("rip.prepare.calls", len(prepare), "count")
    report.time_s("rip.prepare.busy_s", spans.busy(prepare))
    report.time_s("rip.targets.busy_s", spans.busy(targets))
    records = spans.attr(targets, "records")
    report.plain("rip.fallback_share", share(spans.attr(targets, "fallbacks"), records), "share")
    table("rip.prepare", prepare, window_seconds)
    table("rip.targets", targets, window_seconds)
    # core.refine ------------------------------------------------------------
    refine = spans.select("refine", window)
    refine_busy = spans.busy(refine)
    refine_self = spans.self_time(refine)
    report.plain("refine.calls", len(refine), "count")
    report.plain("refine.busy_share", share(refine_busy, window_seconds), "share")
    report.plain("refine.self_share", share(refine_self, window_seconds), "share")
    table("refine", refine, window_seconds, refine_self)
    # analytical.width_solver, delay.compiled --------------------------------
    solves = spans.select("width_solver", window)
    compiles = spans.select("evaluator", window)
    compile_seconds = spans.busy(compiles)
    report.plain("width_solver.solves", len(solves), "count")
    report.plain("width_solver.iterations", spans.attr(solves, "iterations"), "count")
    report.plain("width_solver.busy_share", share(spans.busy(solves), window_seconds), "share")
    report.plain("evaluator.compiles", len(compiles), "count")
    report.plain("evaluator.refine_share", share(compile_seconds, refine_busy), "share")
    table("width_solver", solves, window_seconds)
    table("evaluator (compile)", compiles, window_seconds)
    lines.append(
        f"answer: evaluator compilation is {100.0 * share(compile_seconds, refine_busy):.1f}% of "
        f"REFINE ({compile_seconds:.3f}s of {refine_busy:.3f}s over {len(compiles)} compiles)"
    )
    # dp.powerdp + engine.kernels ---------------------------------------------
    powerdp = spans.select("powerdp", window)
    by_pass: Dict[str, List[int]] = {"coarse": [], "final": [], "baseline": []}
    for index in powerdp:
        by_pass[dp_pass(spans, index)].append(index)
    for kind, indices in by_pass.items():
        report.plain(f"powerdp.{kind}.runs", len(indices), "count")
        report.plain(f"powerdp.{kind}.busy_share", share(spans.busy(indices), window_seconds), "share")
        table(f"powerdp.{kind}", indices, window_seconds)
    states = spans.attr(powerdp, "states")
    report.plain("powerdp.states", states, "count")
    report.rate("powerdp.states_per_s", share(states, spans.busy(powerdp)), "states/s")
    report.plain(
        "powerdp.max_front",
        max(((spans.spans[i][4] or {}).get("max_front", 0) for i in powerdp), default=0),
        "count",
    )
    # tree.buffering ---------------------------------------------------------
    tree = spans.select("tree", window)
    report.plain("tree.runs", len(tree), "count")
    report.plain("tree.busy_share", share(spans.busy(tree), window_seconds), "share")
    report.plain("tree.states", spans.attr(tree, "states"), "count")
    table("tree", tree, window_seconds)
    # engine.wincache --------------------------------------------------------
    lookups = [i for i in window if spans.spans[i][0].startswith("wincache.")]
    wincache_self = spans.self_time(lookups)
    report.plain("wincache.lookups", len(lookups), "count")
    nested = [c for i in lookups for c in spans.children.get(i, ()) if spans.spans[c][0].startswith("wincache.")]
    report.plain("wincache.hit_share", share(spans.attr(lookups, "hit"), len(lookups)), "share")
    report.plain("wincache.frontier_hits", spans.attr(lookups, "frontier_hits"), "count")
    report.plain("wincache.disk_hits", spans.attr(lookups, "disk_hits"), "count")
    report.plain(
        "wincache.evictions", spans.attr(lookups, "evictions") - spans.attr(nested, "evictions"), "count"
    )
    report.time_s("wincache.self_s", wincache_self)
    table("wincache", lookups, window_seconds, wincache_self)
    # core.refine record tier ------------------------------------------------
    loads = spans.select("refine_store.load", window)
    saves = spans.select("refine_store.save", whole_run)
    report.plain("refine_store.loads", len(loads), "count")
    report.plain("refine_store.load_share", share(spans.busy(loads), window_seconds), "share")
    report.plain("refine_store.saves", len(saves), "count")
    report.plain("refine_store.save_share", share(spans.busy(saves), run_seconds), "share")
    table("refine_store.load", loads, window_seconds)
    table("refine_store.save (whole run)", saves, run_seconds)
    # engine.supervisor journal ----------------------------------------------
    journal = spans.select("journal.record", window)
    report.plain("journal.records", len(journal), "count")
    report.plain("journal.record_share", share(spans.busy(journal), window_seconds), "share")
    table("journal.record", journal, window_seconds)


def sweep_report(
    report, tracer: Tracer, window_start: int, window_seconds: float, run_seconds: float
) -> None:
    """Per-layer metrics of a traced sweep run (no service layer)."""
    spans = Spans(tracer.spans)
    window = range(window_start, len(tracer.spans))
    layer_metrics(report, spans, window, window_seconds, range(len(tracer.spans)), run_seconds)
    service_metrics(report, None)
    overhead_line(report, spans, window)


def service_metrics(report, service: Optional[dict]) -> None:
    """The service layer's metrics (zero on workloads without a service)."""
    service = service or {}
    report.plain("serve.queue_wait_share", service.get("queue_wait_share", 0.0), "share")
    report.plain("serve.batch_size", service.get("batch_size", 0.0), "requests")
    report.plain("serve.dedup_share", service.get("dedup_share", 0.0), "share")
    report.plain("serve.rejected", service.get("rejected", 0), "count")


def serve_report(
    report,
    daemon_spans: List[list],
    tracer: Tracer,
    window: Tuple[float, float],
    run_seconds: float,
    before: dict,
    after: dict,
    latency: Sequence,
    rejected: int,
) -> None:
    """Per-layer metrics of a traced serve run.

    The daemon's spans give every engine-side layer over the latency phase;
    this process's spans give the set-up layers (the request population is
    built through the protocol store here).  Both processes time spans with
    the same monotonic clock.
    """
    offset = len(daemon_spans)
    combined = list(daemon_spans) + [
        [name, start, end, parent + offset if parent >= 0 else -1, attrs]
        for name, start, end, parent, attrs in tracer.spans
    ]
    spans = Spans(combined)
    start, end = window
    in_window = [i for i in range(offset) if start <= combined[i][1] <= end]
    layer_metrics(report, spans, in_window, end - start, range(len(combined)), run_seconds)
    waits, engine_per_request, carried = queue_waits([combined[i] for i in in_window])
    served = after["requests_served"] - before["requests_served"]
    batches = after["batches_drained"] - before["batches_drained"]
    deduplicated = after["requests_deduplicated"] - before["requests_deduplicated"]
    wait_total, engine_total = sum(waits), sum(engine_per_request)
    service_metrics(
        report,
        {
            "queue_wait_share": wait_total / (wait_total + engine_total) if waits else 0.0,
            "batch_size": served / batches if batches else 0.0,
            "dedup_share": deduplicated / served if served else 0.0,
            "rejected": rejected,
        },
    )
    lines = report.lines
    if waits:
        lines.append(
            f"serve: {len(waits)} requests matched to {len(carried)} engine calls; queue wait "
            f"p50 {1e3 * median(waits):.1f} ms p90 {1e3 * percentile(waits, 0.9):.1f} ms; engine "
            f"p50 {1e3 * median(engine_per_request):.1f} ms p90 {1e3 * percentile(engine_per_request, 0.9):.1f} ms "
            f"per request; {served / max(batches, 1):.2f} requests per batch"
        )
        lines.append(
            f"answer: of a median request latency of {1e3 * median([o.latency for o in latency]):.1f} ms, queue wait is "
            f"{1e3 * median(waits):.1f} ms and engine time {1e3 * median(engine_per_request):.1f} ms "
            f"-> serve latency is mostly {'queue wait' if wait_total > engine_total else 'engine time'} "
            f"({100.0 * wait_total / (wait_total + engine_total):.0f}% queue by total)"
        )
    overhead_line(report, spans, in_window)


def overhead_line(report, spans: Spans, window: Sequence[int]) -> None:
    """Print the tracing overhead: spans recorded times the cost of one wrapper.

    The wrapper cost is timed here on a no-op method, so the line bounds
    what tracing added to the engine time the untraced runs measure.
    """
    per_span = wrapper_cost()
    engine_busy = spans.busy(spans.select("engine", window))
    report.lines.append(
        f"trace overhead: {len(window)} spans x {1e6 * per_span:.2f} us "
        f"= {len(window) * per_span:.3f}s over {engine_busy:.3f}s of engine time "
        f"({100.0 * len(window) * per_span / max(engine_busy, 1e-9):.1f}%)"
    )


def wrapper_cost(samples: int = 20000) -> float:
    """Seconds one recording wrapper adds to a call, measured here."""

    class Probe:
        def call(self) -> None:
            return None

    tracer = Tracer()
    plain = Probe()
    started = time.perf_counter()
    for _ in range(samples):
        plain.call()
    bare = time.perf_counter() - started
    tracer.wrap(Probe, "call", "probe")
    started = time.perf_counter()
    for _ in range(samples):
        plain.call()
    wrapped = time.perf_counter() - started
    tracer.uninstall()
    return max(0.0, wrapped - bare) / samples


def queue_waits(spans: Sequence[list]) -> Tuple[List[float], List[float], List[int]]:
    """Match each submitted request to the engine call that carried it.

    Returns the queue waits (submit to the start of that
    ``design_population`` call), the engine seconds per carried request,
    and the number of requests each call carried.
    """
    pending: Dict[str, List[float]] = defaultdict(list)
    digest_of: Dict[int, str] = {}
    events = sorted(
        (span[1], index) for index, span in enumerate(spans) if span[0] in ("serve.submit", "engine")
    )
    waits: List[float] = []
    engine_per_request: List[float] = []
    carried: List[int] = []
    for start, index in events:
        name, _, end, _, attrs = spans[index]
        attrs = attrs or {}
        if name == "serve.submit":
            digest_of[attrs["case"]] = attrs["digest"]
            pending[attrs["digest"]].append(start)
            continue
        requests = []
        for case in attrs.get("cases", ()):
            digest = digest_of.get(case)
            if digest is not None:
                requests.extend(pending.pop(digest, ()))
        if requests:
            waits.extend(start - submitted for submitted in requests)
            engine_per_request.extend([(end - start) / len(requests)] * len(requests))
            carried.append(len(requests))
    return waits, engine_per_request, carried


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
