"""Self-test of the benchmark in its tiny smoke mode (seconds, not minutes).

Checks that every declared metric is emitted with its declared unit, that
the output gate trips on one corrupted record, and that the host-speed
probe imports nothing from the program.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from gate import Gate  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("sweep-cold", 1), ("sweep-warm", 0), ("serve", 0), ("serve", 1)],
)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())


def test_spec_records_what_each_layer_metric_should_move():
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    end_to_end = {entry["name"] for entry in DECLARED["end_to_end"]}
    workloads = {entry["name"] for entry in DECLARED["workloads"]}
    assert set(spec["workloads"]) == workloads
    assert set(spec["per_layer"]) == {entry["name"] for entry in DECLARED["per_layer"]}
    for effect in spec["per_layer"].values():
        assert set(effect["moves"]) <= end_to_end and set(effect["on"]) <= workloads


def test_gate_trips_on_one_corrupted_record():
    from repro.engine.cache import ProtocolConfig, ProtocolStore
    from repro.engine.design import DesignEngine, MethodSpec
    from repro.tech.nodes import NODE_180NM

    cases = ProtocolStore().cases(ProtocolConfig(num_nets=1, targets_per_net=3, seed=5))
    engine = DesignEngine(NODE_180NM, store=ProtocolStore())
    result = engine.design_population(cases, [MethodSpec.rip_method()])
    records = list(result.nets[0].records)
    gate = Gate()
    assert gate.check("net", records)
    assert gate.check("net", [replace(r, runtime_seconds=r.runtime_seconds + 1.0) for r in records])
    corrupted = list(records)
    corrupted[1] = replace(corrupted[1], total_width=corrupted[1].total_width + 10.0)
    assert not gate.check("net", corrupted)
    late = list(records)
    late[0] = replace(late[0], feasible=True, delay=late[0].target * 1.01)
    assert not gate.check("net", late)
    assert (gate.attempted, gate.failed) == (4, 2)


def test_probe_imports_nothing_from_the_program():
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import probe; probe.probe_once(); "
         "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))",
         str(HERE)],
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
