"""Tests for the design service: schema, tenants, batcher, HTTP daemon.

The load-bearing assertion is the oracle gate every fast path in this repo
carries: the records ≥32 concurrent HTTP clients receive are bit-identical
(runtime excluded) to a direct serial ``DesignEngine.design_population``
sweep of the same requests — including while one request's net is poisoned
with an injected exception, which must surface only in that request's
response.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest

import repro.engine.design as design_module
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.design import (
    DesignEngine,
    EngineStatistics,
    MethodSpec,
    NetDesignResult,
    PopulationDesignResult,
)
from repro.net.io import net_to_dict
from repro.service.batcher import MicroBatcher, _Waiter, group_requests
from repro.service.schema import (
    MAX_TARGETS,
    RequestError,
    parse_request,
)
from repro.service.server import serve_in_background
from repro.service.tenants import TenantBudgets, TenantLimitError, TenantRegistry

TINY = ProtocolConfig(num_nets=4, targets_per_net=2, seed=13)


@pytest.fixture(scope="module")
def tiny_cases():
    return ProtocolStore().cases(TINY)


@pytest.fixture(scope="module")
def payloads(tiny_cases):
    """One wire payload per population net (tenant/methods at defaults)."""
    return [
        {
            "tenant": "teamA",
            "technology": "cmos180",
            "methods": ["rip"],
            "net": net_to_dict(case.net),
            "targets": list(case.targets),
            "tau_min": case.tau_min,
        }
        for case in tiny_cases
    ]


def _engine(tech, **kwargs):
    return DesignEngine(tech, workers=0, store=ProtocolStore(), **kwargs)


def _post(port, path, payload, timeout=120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _strip_runtime(record_dict):
    return {k: v for k, v in record_dict.items() if k != "runtime_seconds"}


def _oracle_records(tech, requests):
    """Direct serial sweep of the same parsed requests: digest -> records."""
    engine = _engine(tech)
    try:
        by_digest = {}
        unique = []
        for request in requests:
            if request.digest not in by_digest:
                by_digest[request.digest] = None
                unique.append(request)
        population = engine.design_population(
            [request.case for request in unique], unique[0].methods()
        )
        for request, net_result in zip(unique, population.nets):
            by_digest[request.digest] = [
                _strip_runtime(asdict(record)) for record in net_result.records
            ]
        return by_digest
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# schema
# --------------------------------------------------------------------------- #
def test_parse_request_digest_is_stable(payloads):
    first = parse_request(payloads[0])
    again = parse_request(json.loads(json.dumps(payloads[0])))
    assert first.digest == again.digest
    assert first.case.targets == again.case.targets
    other = parse_request({**payloads[0], "tenant": "teamB"})
    assert other.digest != first.digest


def test_parse_request_defaults(payloads):
    bare = {"net": payloads[0]["net"], "targets": payloads[0]["targets"]}
    request = parse_request(bare)
    assert request.tenant == "public"
    assert request.technology_name == "cmos180"
    assert request.method_names == ("rip",)
    assert request.case.tau_min == min(request.case.targets)
    assert len(request.case.candidates) > 0


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda p: "not an object", "JSON object"),
        (lambda p: {**p, "tenant": "../etc"}, "tenant"),
        (lambda p: {**p, "technology": "cmos3"}, "unknown technology"),
        (lambda p: {**p, "methods": ["quantum"]}, "unknown method"),
        (lambda p: {**p, "methods": ["dp-ginf"]}, "finite positive granularity"),
        (lambda p: {**p, "methods": ["dp-g1"]}, "library of 391 widths"),
        (lambda p: {**p, "methods": ["tree-g20"]}, "use 'rip' or 'dp-g<granularity>'"),
        (lambda p: {**p, "methods": ["rip", "rip"]}, "unique"),
        (lambda p: {**p, "methods": []}, "non-empty"),
        (lambda p: {k: v for k, v in p.items() if k != "net"}, "'net'"),
        (lambda p: {**p, "targets": []}, "targets"),
        (lambda p: {**p, "targets": [float("nan")]}, "finite"),
        (lambda p: {**p, "targets": [-1.0e-9]}, "finite"),
        (lambda p: {**p, "targets": [1.0e-9] * (MAX_TARGETS + 1)}, "at most"),
        (lambda p: {**p, "tau_min": math.inf}, "finite"),
        (lambda p: {**p, "candidate_pitch": 10.0}, "no legal repeater"),
        (lambda p: {**p, "net": {"broken": True}}, "malformed net"),
    ],
)
def test_parse_request_rejections(payloads, mutation, fragment):
    with pytest.raises(RequestError) as excinfo:
        parse_request(mutation(dict(payloads[0])))
    assert fragment in str(excinfo.value)


# --------------------------------------------------------------------------- #
# tenants
# --------------------------------------------------------------------------- #
def test_tenant_budgets_partition_equally(tmp_path):
    budgets = TenantBudgets(
        max_tenants=4,
        cache_root=str(tmp_path),
        total_entries=400,
        total_files=100,
        total_bytes=4000,
    )
    spec = budgets.spec_for("teamA")
    assert spec.max_entries == 100
    assert spec.max_files == 25
    assert spec.max_bytes == 1000
    assert spec.cache_dir.endswith("tenants/teamA/wincache")
    assert budgets.spec_for("teamB").cache_dir != spec.cache_dir


def test_tenant_registry_caps_admission():
    registry = TenantRegistry(budgets=TenantBudgets(max_tenants=2))
    spec_a = registry.admit("teamA")
    assert registry.admit("teamA") is spec_a  # idempotent
    registry.admit("teamB")
    with pytest.raises(TenantLimitError):
        registry.admit("teamC")
    assert registry.tenants == ("teamA", "teamB")


def test_tenant_usage_reports_disk(tech, tmp_path):
    registry = TenantRegistry(
        budgets=TenantBudgets(max_tenants=2, cache_root=str(tmp_path))
    )
    registry.admit("teamA")
    engine = _engine(tech)
    try:
        usage = registry.usage(engine)
    finally:
        engine.close()
    assert usage["teamA"]["disk_files"] == 0
    assert usage["teamA"]["max_files"] > 0


def test_tenant_partitions_keep_separate_refine_memos(tech, tiny_cases):
    """The same net designed twice per tenant: each partition computes its
    REFINE runs once and answers its repeat from its own memo, so one
    tenant's memo never serves the other.  ``usage`` (served in /metrics)
    reports the counters."""
    registry = TenantRegistry()
    case = tiny_cases[0]
    engine = _engine(tech)
    try:
        for tenant in ("teamA", "teamB", "teamA", "teamB"):
            engine.design_population(
                [case], [MethodSpec.rip_method()], cache_spec=registry.admit(tenant)
            )
        usage = registry.usage(engine)
    finally:
        engine.close()
    runs = len(case.targets)
    for tenant in ("teamA", "teamB"):
        assert usage[tenant]["refine_cold_runs"] == runs
        assert usage[tenant]["refine_hits"] == runs


# --------------------------------------------------------------------------- #
# batcher grouping (pure)
# --------------------------------------------------------------------------- #
def test_group_requests_splits_axes_and_dedups(payloads):
    a1 = parse_request(payloads[0])
    a2 = parse_request(payloads[0])  # identical => same digest
    b = parse_request(payloads[1])
    other_tenant = parse_request({**payloads[0], "tenant": "teamB"})
    other_method = parse_request({**payloads[1], "methods": ["dp-g40"]})
    waiters = [
        _Waiter(request=request, future=None)
        for request in (a1, a2, b, other_tenant, other_method)
    ]
    groups = group_requests(waiters)
    assert len(groups) == 3  # (teamA, rip), (teamB, rip), (teamA, dp-g40)
    teama_rip = next(
        g for g in groups if g.tenant == "teamA" and g.method_names == ("rip",)
    )
    assert len(teama_rip.waiters) == 2  # a1/a2 collapsed, b separate
    assert len(teama_rip.waiters[a1.digest]) == 2


class _BlockingEngine:
    """Stands in for the engine: records the cases of every call, then
    blocks until released."""

    def __init__(self):
        self.calls = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def design_population(self, cases, methods, *, technology, cache_spec):
        self.calls.append([case.net.name for case in cases])
        self.entered.set()
        self.release.wait(timeout=30.0)
        nets = tuple(
            NetDesignResult(
                net_name=case.net.name,
                tau_min=case.tau_min,
                targets=case.targets,
                records=(),
                method_runtimes={},
                states_generated=0,
                technology=technology.name,
            )
            for case in cases
        )
        statistics = EngineStatistics(
            wall_clock_seconds=0.0, states_generated=0, num_designs=0, workers=0
        )
        return PopulationDesignResult(
            nets=nets, methods=("rip",), statistics=statistics
        )


def test_batcher_runs_lone_request_at_once_and_batches_while_busy(payloads):
    """A lone request reaches the engine within a few event-loop turns (no
    timer); requests submitted while the engine is busy drain as one call
    carrying their deduplicated cases."""
    engine = _BlockingEngine()
    a, b, c = (parse_request(payloads[index]) for index in range(3))

    async def scenario():
        batcher = MicroBatcher(engine, TenantRegistry())
        batcher.start()
        try:
            first = batcher.submit(a)
            for _ in range(20):
                if batcher.batches_drained:
                    break
                await asyncio.sleep(0)
            assert batcher.batches_drained == 1
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, engine.entered.wait, 30.0)
            rest = [batcher.submit(request) for request in (b, c, b)]
            engine.release.set()
            answers = await asyncio.wait_for(asyncio.gather(first, *rest), 30.0)
        finally:
            engine.release.set()
            await batcher.stop()
        return batcher, answers

    batcher, answers = asyncio.run(scenario())
    assert engine.calls == [
        [a.case.net.name],
        [b.case.net.name, c.case.net.name],
    ]
    assert batcher.batches_drained == 2
    assert batcher.requests_served == 4
    assert batcher.requests_deduplicated == 1
    assert [answer["request"] for answer in answers] == [
        a.digest, b.digest, c.digest, b.digest
    ]


# --------------------------------------------------------------------------- #
# HTTP daemon
# --------------------------------------------------------------------------- #
def test_healthz_metrics_and_routing(tech):
    bg = serve_in_background(_engine(tech))
    try:
        assert _get(bg.port, "/healthz") == (200, {"status": "ok"})
        status, metrics = _get(bg.port, "/metrics")
        assert status == 200
        assert metrics["queue_depth"] == 0
        assert metrics["engine"]["workers"] == 0
        assert "store" in metrics and "tenants" in metrics
        assert _get(bg.port, "/nope")[0] == 404
        status, _body = _post(bg.port, "/healthz", {})
        assert status == 404
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
        conn.request("GET", "/design")
        assert conn.getresponse().status == 405
        conn.close()
    finally:
        bg.stop()


def test_malformed_requests_get_400(tech, payloads):
    bg = serve_in_background(_engine(tech))
    try:
        status, body = _post(bg.port, "/design", {"targets": [1e-9]})
        assert status == 400
        assert "net" in json.loads(body)["error"]
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
        conn.request("POST", "/design", body=b"not json{",
                     headers={"Content-Length": "9"})
        assert conn.getresponse().status == 400
        conn.close()
    finally:
        bg.stop()


def test_tenant_capacity_is_429(tech, payloads):
    bg = serve_in_background(
        _engine(tech), budgets=TenantBudgets(max_tenants=1)
    )
    try:
        status, _body = _post(bg.port, "/design", payloads[0])
        assert status == 200
        status, body = _post(
            bg.port, "/design", {**payloads[0], "tenant": "teamB"}
        )
        assert status == 429
        assert "capacity" in json.loads(body)["error"]
    finally:
        bg.stop()


def test_rebuilding_pool_degrades_to_503_with_retry_after(tech, payloads):
    """While the engine's worker pool is being rebuilt after a collapse, new
    design requests are shed with 503 + Retry-After instead of queueing
    behind a pool that cannot serve them; /metrics exposes the breaker."""
    engine = _engine(tech)
    bg = serve_in_background(engine)
    try:
        engine.recovery.set_rebuilding(True)
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
        conn.request(
            "POST", "/design", body=json.dumps(payloads[0]),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = response.read()
        assert response.status == 503
        assert response.getheader("Retry-After") == "1"
        assert "rebuilding" in json.loads(body)["error"]
        conn.close()

        status, metrics = _get(bg.port, "/metrics")
        assert status == 200
        assert metrics["recovery"]["rebuilding"] is True
        assert set(metrics["recovery"]) >= {
            "rebuilds", "retries", "quarantined", "timeouts", "rebuilding"
        }

        engine.recovery.set_rebuilding(False)
        status, _body = _post(bg.port, "/design", payloads[0])
        assert status == 200
    finally:
        bg.stop()


def test_request_timeout_is_504(tech, payloads):
    engine = _engine(tech)
    release = threading.Event()
    design_population = engine.design_population

    def held_design_population(*args, **kwargs):
        # Hold the sweep until the client has its answer, so the request
        # outlives its timeout whatever the engine's speed.
        release.wait(timeout=30.0)
        return design_population(*args, **kwargs)

    engine.design_population = held_design_population
    bg = serve_in_background(engine, request_timeout_seconds=0.001)
    try:
        status, body = _post(bg.port, "/design", payloads[0])
        assert status == 504
        assert "timed out" in json.loads(body)["error"]
    finally:
        release.set()
        bg.stop()


def test_concurrent_clients_bit_identical_to_serial_sweep(tech, payloads):
    """32 concurrent clients; every response equals the direct serial oracle."""
    clients = 32
    bodies = [payloads[i % len(payloads)] for i in range(clients)]
    oracle = _oracle_records(tech, [parse_request(body) for body in bodies])

    bg = serve_in_background(_engine(tech), max_batch=clients)
    try:
        with ThreadPoolExecutor(max_workers=clients) as pool:
            responses = list(
                pool.map(lambda body: _post(bg.port, "/design", body), bodies)
            )
        status, metrics = _get(bg.port, "/metrics")
        assert status == 200
        assert metrics["requests_served"] == clients
        # 32 clients over 4 distinct payloads: dedup must have collapsed
        # at least some identical concurrent requests.
        assert metrics["requests_deduplicated"] > 0
        assert metrics["nets_failed"] == 0
    finally:
        bg.stop()

    for (status, raw), body in zip(responses, bodies):
        assert status == 200
        payload = json.loads(raw)
        assert payload["status"] == "ok"
        expected = oracle[parse_request(body).digest]
        assert [_strip_runtime(record) for record in payload["records"]] == expected


def test_injected_crash_is_isolated_to_its_request(tech, tiny_cases, payloads, monkeypatch):
    """One poisoned net among 32 concurrent requests: its response carries
    the failure, every sibling response stays bit-identical to the oracle."""
    poisoned_name = tiny_cases[1].net.name

    class PoisonedRip(design_module.Rip):
        def prepare(self, net):
            if net.name == poisoned_name:
                raise ValueError(f"poisoned {net.name}")
            return super().prepare(net)

    healthy_bodies = [
        payloads[i] for i in range(len(payloads)) if i != 1
    ]
    bodies = [healthy_bodies[i % len(healthy_bodies)] for i in range(31)]
    oracle = _oracle_records(tech, [parse_request(body) for body in bodies])
    bodies.append(payloads[1])  # the poisoned request rides the same burst

    monkeypatch.setattr(design_module, "Rip", PoisonedRip)
    bg = serve_in_background(_engine(tech), max_batch=32)
    try:
        with ThreadPoolExecutor(max_workers=32) as pool:
            responses = list(
                pool.map(lambda body: _post(bg.port, "/design", body), bodies)
            )
    finally:
        bg.stop()

    poisoned_status, poisoned_raw = responses[-1]
    assert poisoned_status == 200
    poisoned_payload = json.loads(poisoned_raw)
    assert poisoned_payload["status"] == "failed"
    assert poisoned_payload["failure_kind"] == "crashed"
    assert "ValueError" in poisoned_payload["error"]
    assert "records" not in poisoned_payload

    for (status, raw), body in zip(responses[:-1], bodies[:-1]):
        assert status == 200
        payload = json.loads(raw)
        assert payload["status"] == "ok"
        expected = oracle[parse_request(body).digest]
        assert [_strip_runtime(record) for record in payload["records"]] == expected


def test_envelope_streams_per_line_statuses(tech, payloads):
    bg = serve_in_background(_engine(tech))
    try:
        envelope = {
            "requests": [
                payloads[0],
                {"bogus": 1},
                payloads[0],
                {**payloads[0], "methods": ["dp-ginf"]},
            ]
        }
        conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=120)
        conn.request(
            "POST", "/design", body=json.dumps(envelope),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = [
            json.loads(line)
            for line in response.read().decode().splitlines()
            if line.strip()
        ]
        conn.close()
    finally:
        bg.stop()
    by_index = {line["index"]: line for line in lines}
    assert len(by_index) == 4
    assert by_index[1]["status"] == "rejected"
    assert by_index[3]["status"] == "rejected"
    assert "granularity" in by_index[3]["error"]
    assert by_index[0]["status"] == "ok"
    assert by_index[2]["status"] == "ok"
    # The two identical entries were deduplicated into one design but both
    # streamed back with full records.
    assert by_index[0]["records"] == by_index[2]["records"]
    assert by_index[0]["request"] == by_index[2]["request"]
