"""The serve workload: traffic to the real ``rip serve`` daemon.

The daemon runs with its default flags (in memory, ``workers=0``, 10 ms
batch window) in a child process; this process drives it.  Requests are
single-net ``rip`` requests.  Exactly ``hot_share`` of them re-request one
of the hot nets under tenant ``eco`` (its own 64-entry cache partition);
the rest are nets never requested before, under tenant ``batch``.

Timed phases, in order:

* latency: ``latency_requests`` requests sent back to back on one
  connection, so each latency is the service's own (HTTP, micro-batch
  window, engine, JSON) with no queue in front of it;
* saturation: requests sent back to back on ``connections`` connections
  for the rest of ``--seconds``; the completed-request rate is the
  service's capacity.

Open-loop Poisson traffic was tried first: on a shared 2-vCPU host its
queueing amplified host and per-net noise so much that p50, p90 and the
saturation ladder spread by 34-56% across seeds, beyond any usable bound.
Every response is checked afterwards against a serial
``design_population`` of the same parsed requests.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.cache import NetCase, ProtocolStore
from repro.engine.design import DesignEngine
from repro.net.io import net_to_dict
from repro.service.schema import parse_request

import layers
import population
from gate import Gate, canonical
from report import Report, percentile
from tracing import Tracer, install_setup_wrappers, load_spans

READY_PREFIX = "rip serve: listening on http://"
READY_TIMEOUT_S = 60.0
HERE = Path(__file__).resolve().parent
#: HTTP statuses of requests the service refused (queue full, pool
#: rebuilding, timed out): failed operations.
REFUSED = (429, 503, 504)


# --------------------------------------------------------------------------- #
# the daemon
# --------------------------------------------------------------------------- #
class Daemon:
    """One ``rip serve`` child process, optionally with the layer wrappers."""

    def __init__(self, src: Path, trace_path: Optional[Path] = None) -> None:
        if trace_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(HERE / "traced_daemon.py"), str(trace_path), "serve", "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.output: List[str] = []
        self._drain: Optional[threading.Thread] = None
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        )
        try:
            self.port = self._await_ready(started + READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.startup_seconds = time.perf_counter() - started
        # The daemon is silent after its readiness line unless it fails;
        # keep the pipe drained so it can never block on a full pipe.
        self._drain = threading.Thread(target=self._drain_output, daemon=True)
        self._drain.start()

    def _await_ready(self, deadline: float) -> int:
        stream = self.process.stdout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0.0 or not select.select([stream], [], [], remaining)[0]:
                raise RuntimeError(f"daemon printed no readiness line within {READY_TIMEOUT_S:g} s")
            line = stream.readline()
            if not line:
                raise RuntimeError(
                    f"daemon exited before its readiness line (code {self.process.poll()}): "
                    + " | ".join(self.output[-5:])
                )
            self.output.append(line.rstrip())
            if line.startswith(READY_PREFIX):
                return int(line.strip().rsplit(":", 1)[1])

    def _drain_output(self) -> None:
        for line in self.process.stdout:
            self.output.append(line.rstrip())

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM, then wait (kill after 30 s); returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._drain is not None:
            self._drain.join(timeout=10.0)
        return self.process.returncode


@contextmanager
def off_measured_cpu(cpus: Sequence[int]) -> Iterator[None]:
    """Run the traffic generator off the CPU the daemon is pinned to.

    The daemon inherits this process's pinning to ``cpus[0]``; while
    traffic flows this process (and the threads it starts) moves to the
    other CPUs, and it returns to ``cpus[0]`` for the host probe.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus[1:]))
    try:
        yield
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[0]})


def _request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One answered request."""

    body: int  # index into the request bodies
    sent: float
    done: float
    status: int
    payload: dict

    @property
    def latency(self) -> float:
        return self.done - self.sent


class Traffic:
    """The seeded request population and schedules of one serve run.

    There are ``hot_sets`` sets of hot nets, each the pool nets closest to
    the fixed ``hot_candidates`` sizes; set ``k`` holds bodies
    ``k * len(hot_candidates)`` onwards.  Fresh requests walk the sweep's
    reference sizes in an order where every ``len(hot_candidates)``
    consecutive fresh requests span the size range once, each taking the
    unused pool net closest to its size.
    """

    def __init__(self, seed: int, spec: dict, reference: Sequence[int], store: ProtocolStore) -> None:
        self.seed = seed
        self.spec = spec
        hot_sizes = spec["hot_candidates"]
        self.pool = store.cases(population.protocol(seed, spec["pool_nets"], spec["targets"]))
        hot = population.matched(self.pool, list(hot_sizes) * spec["hot_sets"])
        random.Random(f"hot-{seed}").shuffle(hot)
        self.cases: List[NetCase] = list(hot)
        self.tenants = ["eco"] * len(hot)
        self.bodies: List[bytes] = [self._body(case, "eco") for case in hot]
        self._free = [case for case in self.pool if all(case is not h for h in hot)]
        self._fresh_sizes = _spread_order(reference, len(hot_sizes), seed)
        self._fresh_used = 0

    @staticmethod
    def _body(case: NetCase, tenant: str) -> bytes:
        return json.dumps(
            {
                "tenant": tenant,
                "methods": ["rip"],
                "net": net_to_dict(case.net),
                "targets": list(case.targets),
                "tau_min": case.tau_min,
            }
        ).encode("utf-8")

    def _fresh(self) -> int:
        """Body index of the next never-requested net."""
        if not self._free:
            raise RuntimeError("the serve pool ran out of fresh nets; raise pool_nets")
        size = self._fresh_sizes[self._fresh_used % len(self._fresh_sizes)]
        self._fresh_used += 1
        case = min(self._free, key=lambda c: abs(len(c.candidates) - size))
        self._free.remove(case)
        self.cases.append(case)
        self.tenants.append("batch")
        self.bodies.append(self._body(case, "batch"))
        return len(self.bodies) - 1

    def hot_bodies(self, hot_set: int) -> range:
        """Body indices of one hot set."""
        size = len(self.spec["hot_candidates"])
        return range(hot_set * size, (hot_set + 1) * size)

    def slots(self, phase: str, hot_set: int) -> Iterator[Optional[int]]:
        """Endless seeded request slots: a hot body index, or ``None`` for fresh.

        Every block of ten slots holds exactly ``hot_share * 10`` hot
        requests spread over the nets of ``hot_set``, in a seeded order, so
        the mix is the same for every seed and every prefix length.
        """
        rng = random.Random(f"serve-{self.seed}-{phase}")
        hot = self.hot_bodies(hot_set)
        per_block = round(10 * self.spec["hot_share"])
        issued = 0
        while True:
            block: List[Optional[int]] = [hot[(issued + i) % len(hot)] for i in range(per_block)]
            issued += per_block
            block += [None] * (10 - per_block)
            rng.shuffle(block)
            yield from block

    def body_for(self, slot: Optional[int]) -> int:
        """Body index of a slot (a fresh slot takes the next fresh net)."""
        return self._fresh() if slot is None else slot


def _spread_order(sizes: Sequence[int], strata: int, seed: int) -> List[int]:
    """``sizes`` reordered so that each run of ``strata`` entries spans them all."""
    rng = random.Random(f"fresh-{seed}")
    ordered = sorted(sizes)
    per = len(ordered) // strata
    bins = [ordered[i * per:(i + 1) * per] for i in range(strata)]
    for chunk in bins:
        rng.shuffle(chunk)
    spread: List[int] = []
    for block in range(per):
        row = [chunk[block] for chunk in bins]
        rng.shuffle(row)
        spread.extend(row)
    return spread


def run_closed(
    port: int,
    traffic: Traffic,
    slots: Iterator[Optional[int]],
    connections: int,
    *,
    count: Optional[int] = None,
    deadline: Optional[float] = None,
) -> List[Outcome]:
    """Send requests back to back on ``connections`` connections.

    Stops after ``count`` requests or, for a timed phase, once
    ``deadline`` passes (requests in flight then still complete).
    """
    lock = threading.Lock()
    outcomes: List[Outcome] = []
    issued = 0

    def worker() -> None:
        nonlocal issued
        while True:
            with lock:
                if (count is not None and issued >= count) or (
                    deadline is not None and time.perf_counter() >= deadline
                ):
                    return
                issued += 1
                body = traffic.body_for(next(slots))
            sent = time.perf_counter()
            try:
                status, payload = _request(port, "POST", "/design", traffic.bodies[body])
            except (OSError, http.client.HTTPException, ValueError) as error:
                status, payload = 0, {"error": str(error)}
            outcome = Outcome(body, sent, time.perf_counter(), status, payload)
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
class ServeRun:
    def __init__(self, context) -> None:
        self.context = context
        self.spec = context.spec["serve"]
        self.gate = Gate()
        self.outcomes: List[Outcome] = []
        self.traffic: Optional[Traffic] = None

    def setup(self, trace_path: Optional[Path]) -> Tuple[float, Daemon]:
        """Spawn the daemon ``setup_repeats`` times; keep the last one."""
        src = self.context.src
        startups = []
        daemon = None
        for repeat in range(self.spec["setup_repeats"]):
            if daemon is not None:
                daemon.stop()
            last = repeat == self.spec["setup_repeats"] - 1
            daemon = Daemon(src, trace_path if last else None)
            startups.append(daemon.startup_seconds)
            self.context.probe.sample()
        self.context.lines.append("setup: daemon start " + " ".join(f"{s:.3f}s" for s in startups))
        return statistics.median(startups), daemon

    def phase(self, daemon: Daemon, name: str, hot_set: int, connections: int, **limits) -> List[Outcome]:
        """One closed-loop phase, run off the daemon's CPU, then a host probe."""
        with off_measured_cpu(self.context.cpus):
            outcomes = run_closed(
                daemon.port, self.traffic, self.traffic.slots(name, hot_set), connections, **limits
            )
        self.outcomes.extend(outcomes)
        self.context.probe.sample()
        return outcomes

    def warm_up(self, daemon: Daemon, hot_set: int) -> None:
        """First contact with each net of a hot set, outside the timed phases."""
        bodies = list(self.traffic.hot_bodies(hot_set))
        with off_measured_cpu(self.context.cpus):
            self.outcomes.extend(
                run_closed(daemon.port, self.traffic, iter(bodies), 1, count=len(bodies))
            )

    def latency_phase(self, daemon: Daemon) -> Tuple[List[Outcome], float, float, int]:
        """``latency_requests`` back to back, a share per hot set.

        The eco tenant moves through ``hot_sets`` working sets in turn, so
        the median request is not decided by the REFINE cost of one set.
        Returns the outcomes, the phase's wall clock, and the daemon's engine
        seconds and designs over the timed requests (``/metrics`` deltas).
        """
        outcomes: List[Outcome] = []
        wall = engine_seconds = 0.0
        designs = 0
        rounds = self.spec["hot_sets"]
        for hot_set in range(rounds):
            self.warm_up(daemon, hot_set)
            _, before = _request(daemon.port, "GET", "/metrics")
            started = time.perf_counter()
            outcomes += self.phase(
                daemon, f"latency-{hot_set}", hot_set, 1, count=self.spec["latency_requests"] // rounds
            )
            wall += time.perf_counter() - started
            _, after = _request(daemon.port, "GET", "/metrics")
            engine_seconds += after["engine"]["wall_clock_seconds"] - before["engine"]["wall_clock_seconds"]
            designs += after["engine"]["designs_completed"] - before["engine"]["designs_completed"]
        return outcomes, wall, engine_seconds, designs

    # ------------------------------------------------------------------ #
    def check_outputs(self) -> Dict[int, list]:
        """Gate every response against a serial design of the same requests.

        Returns the served records of each request body, one list per
        response.
        """
        traffic = self.traffic
        served: Dict[int, list] = {}
        for outcome in self.outcomes:
            if outcome.status in REFUSED:
                self.gate.refuse(f"refused with HTTP {outcome.status}")
                continue
            if outcome.status != 200 or outcome.payload.get("status") != "ok":
                self.gate.refuse(f"HTTP {outcome.status} {outcome.payload.get('status')}")
                continue
            served.setdefault(outcome.body, []).append(outcome.payload["records"])
        indices = sorted(served)
        requests = [parse_request(json.loads(traffic.bodies[i])) for i in indices]
        engine = DesignEngine(population.TECHNOLOGY, store=ProtocolStore())
        reference = engine.design_population([r.case for r in requests], requests[0].methods())
        engine.close()
        self.context.probe.sample()
        for index, net in zip(indices, reference.nets):
            expected = canonical(net.records)
            for records in served[index]:
                self.gate.check(("serve", index), records, engine_failed=net.failed, reference=expected)
        return served


def baselines(context, serve: ServeRun, served: Dict[int, list], report: Report) -> None:
    """dp-g10 and tree-g20 reference designs, timed after the timed window.

    The service designs two-pin ``rip`` requests only.  So that every
    workload reports all three method rates, this run designs the first
    ``baseline_nets`` fresh served nets (which span the size range) with
    ``dp-g10``, which also gives the paper's width comparison for what was
    served, and the seed's H-trees with ``tree-g20``, serially in this
    process, ``baseline_repeats`` times each.
    """
    spec = serve.spec
    rip_method, dp_method, tree_method = population.sweep_methods()
    fresh = [index for index in sorted(served) if serve.traffic.tenants[index] == "batch"]
    indices = fresh[: spec["baseline_nets"]]
    cases = [serve.traffic.cases[i] for i in indices]
    trees = population.htree_cases(context.seed, context.spec["sweep"])
    rates = {}
    results = {}
    for method, population_ in ((dp_method, cases), (tree_method, trees)):
        records = 0
        seconds = 0.0
        # Each repeat runs on a fresh engine; later repeats are gated
        # against the first, like the sweeps' spot check.
        for _ in range(spec["baseline_repeats"]):
            engine = DesignEngine(population.TECHNOLOGY, store=ProtocolStore())
            started = time.perf_counter()
            result = engine.design_population(population_, [method])
            seconds += time.perf_counter() - started
            engine.close()
            context.probe.sample()
            for net in result.nets:
                serve.gate.check((method.name, net.net_name), net.records, engine_failed=net.failed)
            records += len(result.records())
            results.setdefault(method.name, result)
        rates[method.name] = records / seconds
    report.rate("dp_designs_per_s", rates["dp-g10"], "designs/s")
    report.rate("tree_designs_per_s", rates["tree-g20"], "designs/s")
    rip_width = dp_width = 0.0
    pairs = 0
    for index, net in zip(indices, results["dp-g10"].nets):
        for rip_record, dp_record in zip(served[index][0], net.records):
            if rip_record["feasible"] and dp_record.feasible:
                rip_width += rip_record["total_width"]
                dp_width += dp_record.total_width
                pairs += 1
    report.plain("rip_width_ratio", rip_width / dp_width, "ratio")
    records = [record for index in served for record in served[index][0]]
    feasible = sum(1 for record in records if record["feasible"])
    report.plain("rip_feasible_share", feasible / len(records), "share")
    context.lines.append(
        f"quality: rip/dp-g10 width over {pairs} served pairs = {rip_width:.1f}/{dp_width:.1f}; "
        f"rip feasible {feasible}/{len(records)} distinct served records"
    )


def run(context) -> Report:
    serve = ServeRun(context)
    spec = serve.spec
    report = Report(context)
    tracer = None
    if context.trace:
        # In this process only the set-up layers run (the request
        # population is built through the protocol store); the daemon
        # carries the wrappers of every other layer.
        tracer = Tracer()
        install_setup_wrappers(tracer)
    run_started = time.perf_counter()
    serve.traffic = Traffic(
        context.seed, spec, context.spec["sweep"]["reference_candidates"], ProtocolStore()
    )
    trace_path = context.traces / f"serve-daemon-seed{context.seed}.jsonl" if context.trace else None
    setup_seconds, daemon = serve.setup(trace_path)
    try:
        _, before = _request(daemon.port, "GET", "/metrics")
        window_start = time.perf_counter()
        latency, latency_seconds, engine_seconds, designs = serve.latency_phase(daemon)
        window_seconds = time.perf_counter() - window_start
        _, after = _request(daemon.port, "GET", "/metrics")
        saturation = []
        if tracer is None:
            deadline = time.perf_counter() + max(context.seconds - window_seconds, spec["min_saturation_s"])
            last = spec["hot_sets"] - 1
            saturation = serve.phase(daemon, "saturation", last, spec["connections"], deadline=deadline)
        peak_rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    if code != 0:
        serve.gate.refuse(f"daemon exited with code {code}")
    served = serve.check_outputs()
    latencies = [outcome.latency for outcome in latency]
    context.lines.append(
        f"latency: {len(latency)} requests back to back, "
        f"{sum(1 for o in latency if o.body < spec['hot_sets'] * len(spec['hot_candidates']))} hot; p50 "
        f"{1e3 * statistics.median(latencies):.1f} ms, p90 {1e3 * percentile(latencies, 0.9):.1f} ms"
    )
    if tracer is None:
        answered = [o for o in saturation if o.status == 200]
        elapsed = max(o.done for o in saturation) - min(o.sent for o in saturation)
        context.lines.append(
            f"saturation: {len(answered)} of {len(saturation)} requests answered in {elapsed:.2f}s "
            f"on {spec['connections']} connections"
        )
        report.time_ms("latency_p50_ms", 1e3 * statistics.median(latencies))
        report.time_ms("latency_p90_ms", 1e3 * percentile(latencies, 0.9))
        report.rate("saturation_rps", len(answered) / elapsed, "req/s")
        # The daemon's own engine rate over the timed latency requests.
        report.rate("rip_designs_per_s", designs / engine_seconds, "designs/s")
        report.time_s("setup_s", setup_seconds)
        report.plain("peak_rss_mb", peak_rss, "MB")
        baselines(context, serve, served, report)
    else:
        tracer.uninstall()
        layers.serve_report(
            report,
            load_spans(trace_path),
            tracer,
            (window_start, window_start + window_seconds),
            time.perf_counter() - run_started,
            before,
            after,
            latency,
            sum(1 for outcome in latency if outcome.status in REFUSED),
        )
    report.gate = serve.gate
    return report
