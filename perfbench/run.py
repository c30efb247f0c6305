"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 7 --seconds 30 --trace 0

``--trace 0`` measures and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs the same workload with the layer
wrappers installed and prints every per-layer metric.  Text lines (the
gate, the trace table, the raw value and host-speed scale of every
calibrated metric) precede the last line, which is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Files the benchmark writes: scratch caches (removed at the end of the
#: run) and span dumps of traced runs (kept).
WORK = ROOT / ".perfbench"


@dataclass
class Context:
    """Everything a workload needs to know about its run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    spec: dict
    probe: object
    scratch: Path
    traces: Path
    src: Path = SRC
    cpus: List[int] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)


def pin_to_one_cpu() -> List[int]:
    """Pin this process to its last allowed CPU; returns the allowed CPUs.

    The first entry of the returned list is the CPU this process now runs
    on (on systems without CPU affinity the list is empty).
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return [allowed[-1]] + allowed[:-1]


def load_spec(smoke: bool) -> dict:
    """``spec.json``, with the ``smoke`` overrides applied when asked."""
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    if smoke:
        for section, overrides in spec["smoke"].items():
            spec[section].update(overrides)
    return spec


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for the self-test (seconds, not minutes)"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in declared["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} (known: {workloads})", file=sys.stderr)
        return 2
    # The program reads these switches from the environment; a benchmark
    # run must not inherit a cache directory, fault injection or sanitizer.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from probe import HostProbe

    spec = load_spec(args.smoke)
    probe = HostProbe(spec["reference_probe_seconds"])
    context = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        spec=spec,
        probe=probe,
        scratch=WORK / f"{args.workload}-{os.getpid()}",
        traces=WORK / "traces",
        # The program and the host probe run on the same CPU, so the probe
        # samples the contention the measured work sees.
        cpus=pin_to_one_cpu(),
    )
    probe.sample()
    if args.workload == "serve":
        import service

        report = service.run(context)
    else:
        import sweeps

        report = sweeps.run(context, warm=args.workload == "sweep-warm")
    expected = declared["per_layer"] if args.trace else declared["end_to_end"]
    result = report.result(expected, probe.scale)
    context.lines.extend(report.gate.summary())
    context.lines.append(
        f"host: {len(probe.samples)} probes, median {1e3 * statistics.median(probe.samples):.1f} ms, "
        f"reference {1e3 * probe.reference_seconds:.1f} ms, scale {probe.scale:.4f}"
    )
    for line in context.lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
