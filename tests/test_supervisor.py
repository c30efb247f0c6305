"""Self-healing sweep execution tests (ISSUE 10).

Four layers, bottom up:

* ``REPRO_FAULTS`` spec parsing and the deterministic switchboard
  (:mod:`repro.analysis.faults`);
* :class:`~repro.engine.supervisor.SweepJournal` unit behavior — versioned
  self-keyed header, evict-on-corruption, torn-tail drop, later-entries-win;
* :class:`~repro.engine.supervisor.SupervisedExecutor` against toy tasks —
  SIGKILL'd workers are retried on a rebuilt pool, poison tasks are
  quarantined after their attempt budget, hung tasks are reaped at the
  deadline, ordinary exceptions propagate unchanged;
* full-engine integration — faults injected into a real population sweep
  leave every *other* net's records bit-identical (runtime excluded) to an
  all-healthy serial sweep (also across a SIGKILL rebuild under
  ``REPRO_SANITIZE=1``), a sweep whose every task kills its worker ends
  with every net quarantined, and a driver-killed ``rip sweep`` is
  resumed bit-for-bit from its journal by ``--resume`` in a fresh
  interpreter.

Pooled tests need the ``fork`` start method (workers must inherit the
``REPRO_FAULTS`` environment and the test module's task functions).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.engine.design as design_module
from repro.analysis import faults, sanitize
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.design import DesignEngine, MethodSpec, build_htree_cases
from repro.engine.supervisor import (
    JOURNAL_FORMAT_VERSION,
    RecoveryMonitor,
    RetryPolicy,
    SupervisedExecutor,
    SweepJournal,
)
from repro.tech.library import RepeaterLibrary

REPO_ROOT = Path(__file__).resolve().parents[1]
TINY = ProtocolConfig(num_nets=3, targets_per_net=3, seed=13)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="supervised-pool injection needs fork-inherited environment",
)


@pytest.fixture(autouse=True)
def _fault_isolation(monkeypatch):
    """Every test starts and ends with a clean fault switchboard."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


def _inject(monkeypatch, spec: str) -> None:
    monkeypatch.setenv(faults.ENV_VAR, spec)
    faults.reset()


def _methods():
    return [
        MethodSpec.dp_baseline(
            "dp-g40", RepeaterLibrary.uniform_count(10.0, 40.0, 10)
        )
    ]


@pytest.fixture(scope="module")
def tiny_cases():
    return ProtocolStore().cases(TINY)


@pytest.fixture(scope="module")
def healthy(tiny_cases, tech):
    """All-healthy serial oracle every fault-injected sweep is compared to."""
    engine = DesignEngine(tech, workers=0, store=ProtocolStore())
    try:
        return engine.design_population(tiny_cases, _methods())
    finally:
        engine.close()


def _stripped(population, skip=()):
    """Record dicts minus runtime_seconds — the only nondeterministic field."""
    return [
        {k: v for k, v in asdict(record).items() if k != "runtime_seconds"}
        for net in population.nets
        if net.net_name not in skip
        for record in net.records
    ]


# --------------------------------------------------------------------------- #
# REPRO_FAULTS parsing and switchboard
# --------------------------------------------------------------------------- #
def test_parse_specs_full_and_defaulted_clause():
    specs = faults.parse_specs(
        "design.case@cmos180/net2:sigkill:1:7, wincache.disk-read:corrupt-cache-read:3"
    )
    assert specs == (
        faults.FaultSpec(
            site="design.case", mode="sigkill", count=1, key="cmos180/net2", seed=7
        ),
        faults.FaultSpec(
            site="wincache.disk-read", mode="corrupt-cache-read", count=3
        ),
    )


@pytest.mark.parametrize(
    "clause, fragment",
    [
        ("design.case:sigkill", "not site[@key]:mode:count"),
        ("no.such.site:crash:1", "unknown site"),
        ("design.case:meteor:1", "unknown mode"),
        ("design.case:crash:zero", "non-integer"),
        ("design.case:crash:0", "count >= 1"),
    ],
)
def test_parse_specs_rejects_malformed(clause, fragment):
    with pytest.raises(faults.FaultSpecError, match=fragment.replace("[", "\\[")):
        faults.parse_specs(clause)


def test_every_registered_site_is_documented():
    assert set(faults.SITES) == {
        "design.case",
        "kernels.fused-level",
        "wincache.disk-read",
        "service.batch",
    }
    assert all(description for description in faults.SITES.values())


def test_injected_fault_error_survives_pickle():
    error = faults.InjectedFaultError("design.case", "cmos180/net1", seed=3)
    clone = pickle.loads(pickle.dumps(error))
    assert (clone.site, clone.key, clone.seed) == ("design.case", "cmos180/net1", 3)
    assert "design.case" in str(clone)


def test_exception_mode_fires_for_matching_key_only(monkeypatch):
    _inject(monkeypatch, "design.case@cmos180/net2:exception:1")
    with faults.task_context("cmos180/net1", attempt=1):
        faults.maybe_inject("design.case")  # other key: no-op
    with faults.task_context("cmos180/net2", attempt=1):
        with pytest.raises(faults.InjectedFaultError):
            faults.maybe_inject("design.case")
    # Attempt budget: count=1 means attempts > 1 run clean (retry succeeds).
    with faults.task_context("cmos180/net2", attempt=2):
        faults.maybe_inject("design.case")


def test_corrupt_cache_read_budget_is_per_call(monkeypatch):
    _inject(monkeypatch, "wincache.disk-read:corrupt-cache-read:2:9")
    payload = '{"valid": true}'
    first = faults.maybe_corrupt("wincache.disk-read", payload)
    second = faults.maybe_corrupt("wincache.disk-read", payload)
    third = faults.maybe_corrupt("wincache.disk-read", payload)
    assert first == second == '{"repro-injected-corruption":9'
    assert third == payload  # budget of 2 exhausted
    with pytest.raises(ValueError):
        json.loads(first)  # corrupted payload is invalid JSON by design


def test_corrupt_cache_read_budget_is_per_task_key(monkeypatch):
    """Inside design tasks the budget restarts for every task key: each
    net's first ``count`` reads are corrupted, not the process's first
    ``count``.  Reads outside any task share one budget of their own."""
    _inject(monkeypatch, "wincache.disk-read:corrupt-cache-read:2:9")
    payload = '{"valid": true}'
    corrupted = '{"repro-injected-corruption":9'

    def reads(count):
        return [faults.maybe_corrupt("wincache.disk-read", payload) for _ in range(count)]

    for net in ("cmos180/net1", "cmos180/net2"):
        with faults.task_context(net):
            assert reads(3) == [corrupted, corrupted, payload]
    with faults.task_context("cmos180/net1", attempt=2):
        assert reads(1) == [payload]  # the key's budget, whatever the attempt
    assert reads(3) == [corrupted, corrupted, payload]  # outside any task


def test_switchboard_disabled_is_noop():
    assert not faults.enabled()
    faults.maybe_inject("design.case")
    assert faults.maybe_corrupt("wincache.disk-read", "x") == "x"


# --------------------------------------------------------------------------- #
# SweepJournal
# --------------------------------------------------------------------------- #
COMPONENTS = {"population": "digest-a", "methods": ["dp-g40"], "targets": 3}


def test_journal_roundtrip_and_resume(tmp_path):
    journal = SweepJournal(tmp_path, COMPONENTS)
    assert journal.begin(resume=False) == {}
    journal.record("cmos180/net1", {"feasible": True, "width": 430.0})
    journal.record("cmos180/net2", {"feasible": False, "width": None})
    journal.close()

    again = SweepJournal(tmp_path, COMPONENTS)
    entries = again.begin(resume=True)
    again.close()
    assert entries == {
        "cmos180/net1": {"feasible": True, "width": 430.0},
        "cmos180/net2": {"feasible": False, "width": None},
    }


def test_journal_is_self_keyed_by_sweep_identity(tmp_path):
    journal = SweepJournal(tmp_path, COMPONENTS)
    other = SweepJournal(tmp_path, {**COMPONENTS, "targets": 4})
    assert journal.path != other.path  # different sweep, different file
    journal.begin(resume=False)
    journal.record("k", {"v": 1})
    journal.close()
    assert other.begin(resume=True) == {}  # never sees the other sweep
    other.close()


def test_journal_fresh_begin_truncates(tmp_path):
    journal = SweepJournal(tmp_path, COMPONENTS)
    journal.begin(resume=False)
    journal.record("k", {"v": 1})
    journal.close()
    fresh = SweepJournal(tmp_path, COMPONENTS)
    assert fresh.begin(resume=False) == {}
    fresh.close()
    assert SweepJournal(tmp_path, COMPONENTS).load() == {}


def test_journal_later_entries_win(tmp_path):
    journal = SweepJournal(tmp_path, COMPONENTS)
    journal.begin(resume=False)
    journal.record("k", {"v": 1})
    journal.record("k", {"v": 2})
    journal.close()
    assert SweepJournal(tmp_path, COMPONENTS).load() == {"k": {"v": 2}}


def test_journal_torn_tail_is_dropped(tmp_path):
    journal = SweepJournal(tmp_path, COMPONENTS)
    journal.begin(resume=False)
    journal.record("k1", {"v": 1})
    journal.record("k2", {"v": 2})
    journal.close()
    # Simulate a driver killed mid-write: the final line is torn.
    text = journal.path.read_text(encoding="utf-8")
    journal.path.write_text(text[:-20], encoding="utf-8")
    assert SweepJournal(tmp_path, COMPONENTS).load() == {"k1": {"v": 1}}


def test_journal_tampered_entry_digest_is_dropped(tmp_path):
    journal = SweepJournal(tmp_path, COMPONENTS)
    journal.begin(resume=False)
    journal.record("k1", {"v": 1})
    journal.close()
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"v": 1', '"v": 9')
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert SweepJournal(tmp_path, COMPONENTS).load() == {}


def test_journal_bad_header_evicts_file(tmp_path):
    journal = SweepJournal(tmp_path, COMPONENTS)
    journal.begin(resume=False)
    journal.record("k1", {"v": 1})
    journal.close()
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["format_version"] == JOURNAL_FORMAT_VERSION
    header["format_version"] = JOURNAL_FORMAT_VERSION + 1
    lines[0] = json.dumps(header, sort_keys=True)
    journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert SweepJournal(tmp_path, COMPONENTS).load() == {}
    assert not journal.path.exists()  # evicted outright, not just skipped


# --------------------------------------------------------------------------- #
# SupervisedExecutor against toy tasks
# --------------------------------------------------------------------------- #
def _toy_task(payload, attempt):
    """Toy worker: payload is (verb, value); verbs exercise each fault path."""
    verb, value = payload
    if verb == "sigkill-once" and attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    if verb == "sigkill-always":
        os.kill(os.getpid(), signal.SIGKILL)
    if verb == "hang":
        time.sleep(120.0)
    if verb == "raise":
        raise ValueError(f"task error {value}")
    return value * 2


@fork_only
def test_executor_retries_sigkilled_task_on_rebuilt_pool():
    monitor = RecoveryMonitor()
    executor = SupervisedExecutor(max_workers=2, monitor=monitor)
    payloads = [("ok", 1), ("sigkill-once", 2), ("ok", 3)]
    outcomes = executor.run(_toy_task, payloads)
    assert [outcome.value for outcome in outcomes] == [2, 4, 6]
    assert outcomes[1].attempts == 2
    snapshot = monitor.snapshot()
    assert snapshot["rebuilds"] >= 1
    assert snapshot["quarantined"] == 0
    assert not snapshot["rebuilding"]


@fork_only
def test_executor_quarantines_poison_task_after_attempt_budget():
    monitor = RecoveryMonitor()
    executor = SupervisedExecutor(
        max_workers=2,
        retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        monitor=monitor,
    )
    outcomes = executor.run(_toy_task, [("ok", 1), ("sigkill-always", 2), ("ok", 3)])
    assert outcomes[0].value == 2 and outcomes[2].value == 6
    poisoned = outcomes[1]
    assert not poisoned.ok
    assert poisoned.failure.kind == "poisoned"
    assert poisoned.failure.attempts == 2
    assert "collapsed the worker pool on attempt 2/2" in poisoned.failure.detail
    assert monitor.snapshot()["quarantined"] == 1


@fork_only
def test_executor_reaps_hung_task_at_deadline():
    monitor = RecoveryMonitor()
    executor = SupervisedExecutor(
        max_workers=2, task_timeout_s=1.0, monitor=monitor
    )
    started = time.monotonic()
    outcomes = executor.run(_toy_task, [("hang", 1), ("ok", 2), ("ok", 3)])
    elapsed = time.monotonic() - started
    assert elapsed < 60.0  # reaped at the deadline, not at task completion
    hung = outcomes[0]
    assert not hung.ok
    assert hung.failure.kind == "timeout"
    assert "deadline" in hung.failure.detail
    # Innocent collateral of the reap is resubmitted and still succeeds.
    assert [outcome.value for outcome in outcomes[1:]] == [4, 6]
    assert monitor.snapshot()["timeouts"] == 1


@fork_only
def test_executor_propagates_ordinary_exceptions():
    executor = SupervisedExecutor(max_workers=2)
    with pytest.raises(ValueError, match="task error 7"):
        executor.run(_toy_task, [("ok", 1), ("raise", 7)])


@fork_only
def test_executor_streams_results_in_input_order():
    seen = []
    executor = SupervisedExecutor(max_workers=2)
    outcomes = executor.run(
        _toy_task,
        [("ok", value) for value in range(5)],
        keys=[f"toy/{value}" for value in range(5)],
        on_result=lambda index, outcome: seen.append((index, outcome.value)),
    )
    assert [outcome.value for outcome in outcomes] == [0, 2, 4, 6, 8]
    assert sorted(seen) == [(index, index * 2) for index in range(5)]


# --------------------------------------------------------------------------- #
# full-engine integration under REPRO_FAULTS
# --------------------------------------------------------------------------- #
@fork_only
def test_sigkilled_net_is_retried_and_sweep_matches_oracle(
    tiny_cases, healthy, tech, monkeypatch
):
    victim = tiny_cases[1].net.name
    _inject(monkeypatch, f"design.case@{tech.name}/{victim}:sigkill:1")
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
        snapshot = engine.recovery.snapshot()
    finally:
        engine.close()
    assert population.failures() == ()
    assert _stripped(population) == _stripped(healthy)
    (retried,) = [net for net in population.nets if net.net_name == victim]
    assert retried.attempts == 2
    assert snapshot["rebuilds"] >= 1


@fork_only
def test_poison_net_is_quarantined_and_siblings_match_oracle(
    tiny_cases, healthy, tech, monkeypatch
):
    victim = tiny_cases[0].net.name
    _inject(monkeypatch, f"design.case@{tech.name}/{victim}:crash:2")
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
        snapshot = engine.recovery.snapshot()
    finally:
        engine.close()
    (failure,) = population.failures()
    assert failure.net_name == victim
    assert failure.failure_kind == "poisoned"
    assert failure.attempts == 2
    assert failure.records == ()
    assert population.failures(kind="poisoned") == (failure,)
    assert _stripped(population, skip={victim}) == _stripped(healthy, skip={victim})
    assert snapshot["quarantined"] == 1


@fork_only
def test_hung_net_times_out_and_siblings_match_oracle(
    tiny_cases, healthy, tech, monkeypatch
):
    victim = tiny_cases[2].net.name
    _inject(monkeypatch, f"design.case@{tech.name}/{victim}:hang:99")
    engine = DesignEngine(
        tech, workers=2, store=ProtocolStore(), task_timeout_s=2.0
    )
    try:
        population = engine.design_population(tiny_cases, _methods())
        snapshot = engine.recovery.snapshot()
    finally:
        engine.close()
    (failure,) = population.failures()
    assert failure.net_name == victim
    assert failure.failure_kind == "timeout"
    assert _stripped(population, skip={victim}) == _stripped(healthy, skip={victim})
    assert snapshot["timeouts"] >= 1


@fork_only
def test_sigkill_rebuild_recovers_under_sanitizer(tiny_cases, tech, monkeypatch):
    """A SIGKILLed worker's pool is rebuilt and the retried net succeeds
    with REPRO_SANITIZE on."""
    victim = tiny_cases[1].net.name
    _inject(monkeypatch, f"design.case@{tech.name}/{victim}:sigkill:1")
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
        assert population.failures() == ()
        assert engine.recovery.snapshot()["rebuilds"] >= 1
    finally:
        engine.close()


@fork_only
def test_every_task_killing_its_worker_is_quarantined(tiny_cases, tech, monkeypatch):
    """When every task SIGKILLs its worker, the supervisor quarantines each
    net as ``poisoned`` across pool rebuilds instead of aborting the sweep."""

    def suicide(*args, **kwargs):  # runs inside the forked worker
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(design_module, "_design_case", suicide)
    engine = DesignEngine(tech, workers=2, store=ProtocolStore())
    try:
        population = engine.design_population(tiny_cases, _methods())
        snapshot = engine.recovery.snapshot()
    finally:
        engine.close()
    assert all(net.failure_kind == "poisoned" for net in population.nets)
    assert all(net.attempts == 2 for net in population.nets)
    assert snapshot["rebuilds"] >= 1


@fork_only
def test_resume_retries_quarantined_net(tiny_cases, healthy, tech, monkeypatch, tmp_path):
    """Poisoned/timeout failures are deliberately not journaled — a resumed
    sweep retries them (now healthy) and completes the record set."""
    victim = tiny_cases[1].net.name
    _inject(monkeypatch, f"design.case@{tech.name}/{victim}:crash:2")
    engine = DesignEngine(tech, workers=2, store=ProtocolStore(cache_dir=tmp_path))
    try:
        first = engine.design_population(tiny_cases, _methods(), checkpoint=True)
    finally:
        engine.close()
    assert first.failures(kind="poisoned") != ()

    monkeypatch.delenv(faults.ENV_VAR)
    faults.reset()
    engine = DesignEngine(tech, workers=2, store=ProtocolStore(cache_dir=tmp_path))
    try:
        resumed = engine.design_population(tiny_cases, _methods(), resume=True)
    finally:
        engine.close()
    assert resumed.failures() == ()
    assert _stripped(resumed) == _stripped(healthy)
    # The healthy siblings were replayed from the journal, bit-for-bit
    # including runtime — only the retried victim was recomputed.
    survivors_first = {
        net.net_name: net for net in first.nets if net.net_name != victim
    }
    for net in resumed.nets:
        if net.net_name != victim:
            assert net == survivors_first[net.net_name]


@pytest.mark.parametrize(
    "workers", [0, pytest.param(2, marks=fork_only)], ids=["serial", "pooled"]
)
def test_resume_replays_every_entry_of_a_mixed_sweep(tiny_cases, tech, tmp_path, workers):
    """Nets and trees are journaled alike: a resumed mixed sweep replays
    every entry bit-for-bit (runtimes included) instead of designing it."""
    cases = list(tiny_cases[:2]) + build_htree_cases(tech, count=2, levels=2)
    methods = _methods() + [
        MethodSpec.tree_method("tree-g40", RepeaterLibrary.uniform(40.0, 240.0, 40.0))
    ]

    def sweep(**journal):
        store = ProtocolStore(cache_dir=tmp_path)
        engine = DesignEngine(tech, workers=workers, store=store)
        try:
            return engine.design_population(cases, methods, **journal)
        finally:
            engine.close()

    first = sweep(checkpoint=True)
    resumed = sweep(resume=True)
    assert [net.population_class for net in first.nets] == [
        "twopin", "twopin", "tree", "tree"
    ]
    assert first.failures() == ()
    assert resumed.nets == first.nets


# --------------------------------------------------------------------------- #
# driver-kill resume through the CLI (fresh interpreter)
# --------------------------------------------------------------------------- #
_CLI = (
    "import sys; from repro.cli.main import main; sys.exit(main(sys.argv[1:]))"
)


def _sweep_argv(cache_dir, json_path, *extra):
    return [
        sys.executable, "-c", _CLI,
        "sweep", "--nets", "3", "--targets", "2", "--seed", "13",
        "--methods", "dp-g40", "--workers", "2",
        "--cache-dir", str(cache_dir), "--json", str(json_path), *extra,
    ]


def _cli_env(**overrides):
    env = dict(os.environ)
    env.pop(faults.ENV_VAR, None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(overrides)
    return env


def _children(pid):
    """Pids of the children of every thread of process ``pid``."""
    children = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            children.update(int(token) for token in path.read_text().split())
        except OSError:  # the thread exited meanwhile
            continue
    return children


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _rows(json_path):
    payload = json.loads(Path(json_path).read_text(encoding="utf-8"))
    records = [
        {k: v for k, v in record.items() if k != "runtime_seconds"}
        for record in payload["records"]
    ]
    return records, payload["failures"]


@fork_only
def test_cli_driver_kill_then_resume_is_bit_identical(tmp_path):
    """Kill the sweep *driver* mid-run (one net hung so the journal holds
    only the completed siblings), then ``--resume`` in a fresh interpreter:
    the result equals an uninterrupted healthy sweep.  The killed driver's
    pool workers and resource tracker must not outlive it."""
    oracle_json = tmp_path / "oracle.json"
    subprocess.run(
        _sweep_argv(tmp_path / "oracle-cache", oracle_json),
        env=_cli_env(), cwd=REPO_ROOT, check=True, capture_output=True,
        timeout=600,
    )

    cache_dir = tmp_path / "cache"
    first_json = tmp_path / "first.json"
    victim = subprocess.Popen(
        _sweep_argv(cache_dir, first_json),
        env=_cli_env(REPRO_FAULTS="design.case@cmos180/net3:hang:99"),
        cwd=REPO_ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        journal_dir = cache_dir / "journal"
        deadline = time.monotonic() + 300.0
        completed = 0
        while time.monotonic() < deadline:
            journals = list(journal_dir.glob("sweep-*.journal"))
            if journals:
                lines = journals[0].read_text(encoding="utf-8").splitlines()
                completed = max(0, len(lines) - 1)  # header + one line per task
                if completed >= 2:
                    break
            time.sleep(0.2)
        assert completed >= 2, "journal never recorded the healthy nets"
    finally:
        children = _children(victim.pid)
        victim.kill()
        victim.wait(timeout=60)
    assert not first_json.exists()  # the driver died before writing output

    assert len(children) >= 2, f"expected the pool's workers, got {children}"
    deadline = time.monotonic() + 15.0
    survivors = {pid for pid in children if _running(pid)}
    while survivors and time.monotonic() < deadline:
        time.sleep(0.2)
        survivors = {pid for pid in survivors if _running(pid)}
    assert not survivors, f"children outlived the killed driver: {sorted(survivors)}"

    resumed_json = tmp_path / "resumed.json"
    result = subprocess.run(
        _sweep_argv(cache_dir, resumed_json, "--resume"),
        env=_cli_env(), cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert _rows(resumed_json) == _rows(oracle_json)


def test_cli_resume_requires_disk_cache(capsys, monkeypatch):
    from repro.cli.main import main as cli_main

    # REPRO_CACHE_DIR would give the sweep a disk cache, making --resume
    # legal.
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)

    assert cli_main(["sweep", "--nets", "2", "--resume"]) == 2
    assert "--resume" in capsys.readouterr().err
