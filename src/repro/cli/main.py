"""``rip`` command-line tool.

Sub-commands:

* ``rip generate-net``  — generate a random net (paper Section 6 statistics)
  and write it to a JSON file;
* ``rip insert``        — run RIP (or the DP baseline) on a net file for a
  timing target and print the resulting repeater assignment;
* ``rip evaluate``      — evaluate an explicit repeater assignment on a net;
* ``rip experiment``    — reproduce Table 1, Table 2 or Figure 7 and print
  the report (``--workers`` fans the per-net work out over processes,
  ``--cache-dir`` persists the net population / tau_min protocol store);
* ``rip sweep``         — run an arbitrary population sweep through the
  batch :class:`~repro.engine.DesignEngine` and print/export the raw
  per-(net, target, method) records (with ``REPRO_SANITIZE=1`` it also
  prints a one-line sanitizer summary); exits 3 when any net failed
  (``--keep-going-exit-zero`` restores the old always-0 behaviour);
* ``rip serve``         — run the multi-tenant design service daemon
  (:mod:`repro.service`): an asyncio HTTP server micro-batching
  concurrent design requests through one engine-lifetime
  :class:`~repro.engine.DesignEngine`;
* ``rip lint``          — run the repo's AST invariant linter
  (:mod:`repro.analysis`) over source paths; ``--format=github`` emits
  workflow-command annotations for CI.

All physical quantities on the command line use engineering units
(micrometers, nanoseconds); internally everything is SI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analytical.width_solver import EVALUATOR_MODES, SWEEP_MODES
from repro.core.rip import Rip, RipConfig
from repro.core.solution import InsertionSolution
from repro.core.evaluate import evaluate_solution
from repro.dp.candidates import uniform_candidates
from repro.dp.powerdp import PowerAwareDp
from repro.dp.vanginneken import DelayOptimalDp
from repro.experiments import (
    Figure7Config,
    ProtocolConfig,
    Table1Config,
    Table2Config,
    format_figure7,
    format_table1,
    format_table2,
    run_figure7,
    run_table1,
    run_table2,
)
from repro.net.generator import NetGenerationConfig, RandomNetGenerator
from repro.net.io import load_net, save_net
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import available_nodes, get_node
from repro.tree.buffering import TREE_CORES
from repro.utils.units import from_microns, from_nanoseconds, to_nanoseconds


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser of the ``rip`` tool."""
    parser = argparse.ArgumentParser(
        prog="rip",
        description="Hybrid low-power repeater insertion (DATE 2005 reproduction).",
    )
    parser.add_argument(
        "--technology",
        default="cmos180",
        choices=available_nodes(),
        help="technology node to use (default: cmos180)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate-net", help="generate a random net as JSON")
    generate.add_argument("output", help="path of the JSON net file to write")
    generate.add_argument("--seed", type=int, default=1, help="random seed")
    generate.add_argument("--segments", type=int, default=None, help="fixed number of segments")
    generate.add_argument("--zones", type=int, default=1, help="number of forbidden zones")

    insert = subparsers.add_parser("insert", help="insert repeaters into a net")
    insert.add_argument("net", help="JSON net file (see generate-net)")
    insert.add_argument(
        "--target-ns", type=float, default=None, help="timing target in nanoseconds"
    )
    insert.add_argument(
        "--target-factor",
        type=float,
        default=1.2,
        help="timing target as a multiple of the net's minimum delay (default 1.2)",
    )
    insert.add_argument(
        "--scheme",
        choices=("rip", "dp"),
        default="rip",
        help="insertion scheme: the hybrid RIP flow or the baseline DP",
    )
    insert.add_argument(
        "--dp-granularity",
        type=float,
        default=10.0,
        help="width granularity (u) of the baseline DP library (scheme=dp)",
    )

    evaluate = subparsers.add_parser("evaluate", help="evaluate an explicit solution")
    evaluate.add_argument("net", help="JSON net file")
    evaluate.add_argument(
        "--repeater",
        action="append",
        default=[],
        metavar="POS_UM:WIDTH_U",
        help="repeater as position_um:width_u (repeatable)",
    )
    evaluate.add_argument(
        "--target-ns", type=float, default=None, help="timing target in nanoseconds"
    )

    experiment = subparsers.add_parser("experiment", help="reproduce a table or figure")
    experiment.add_argument("which", choices=("table1", "table2", "figure7"))
    experiment.add_argument("--nets", type=int, default=20, help="number of random nets")
    experiment.add_argument("--targets", type=int, default=20, help="timing targets per net")
    experiment.add_argument("--seed", type=int, default=2005, help="population seed")
    experiment.add_argument("--csv", default=None, help="also write the rows as CSV to this path")
    experiment.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the per-net fan-out (0 = run serially)",
    )
    experiment.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk protocol store (net population + tau_min)",
    )

    sweep = subparsers.add_parser(
        "sweep", help="batch-design a net population (raw engine records)"
    )
    sweep.add_argument("--nets", type=int, default=20, help="number of random nets")
    sweep.add_argument("--targets", type=int, default=20, help="timing targets per net")
    sweep.add_argument("--seed", type=int, default=2005, help="population seed")
    sweep.add_argument(
        "--tech",
        action="append",
        choices=available_nodes(),
        default=None,
        metavar="NODE",
        help=(
            "technology node to sweep (repeatable: --tech cmos65 --tech cmos90 "
            "batches the nodes side by side in one population sweep; "
            "default: the global --technology)"
        ),
    )
    sweep.add_argument(
        "--population",
        choices=("twopin", "htree"),
        default="twopin",
        help=(
            "population class: 'twopin' (the paper's random two-pin nets, "
            "default) or 'htree' (deterministic H-tree clock networks of "
            "growing span, designed with the multi-sink tree DP against "
            "skew-aware shared targets)"
        ),
    )
    sweep.add_argument(
        "--methods",
        default=None,
        help=(
            "comma-separated methods: 'rip' and/or 'dp-g<granularity>' entries "
            "(baseline DP with a 10..400u library at that granularity); for "
            "--population htree use 'tree-g<granularity>' entries instead "
            "(tree DP with a 20..400u library).  Default: 'rip,dp-g10' for "
            "twopin, 'tree-g20' for htree"
        ),
    )
    sweep.add_argument(
        "--tree-core",
        choices=TREE_CORES,
        default="fused",
        help=(
            "tree DP core of every 'tree-g*' method: 'fused' (default) runs "
            "compiled per-edge site levels and vectorized branch merges on "
            "the scratch arena; 'reference' is the Python oracle — both "
            "bit-for-bit identical"
        ),
    )
    sweep.add_argument(
        "--htree-levels",
        type=int,
        default=3,
        help="levels of each H-tree (2**levels sinks; --population htree)",
    )
    sweep.add_argument(
        "--htree-span-um",
        type=float,
        default=2000.0,
        help="span of the first H-tree in micrometers (--population htree)",
    )
    sweep.add_argument(
        "--htree-span-step-um",
        type=float,
        default=1000.0,
        help="span increment between H-trees in micrometers (--population htree)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the per-net fan-out (0 = run serially)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "shared design-state directory: persists the protocol store "
            "(net population + tau_min) plus, under <dir>/wincache, the "
            "final-DP frontiers and REFINE continuation records, so a "
            "repeated sweep skips REFINE and the final DP outright"
        ),
    )
    sweep.add_argument(
        "--refine-evaluator",
        choices=EVALUATOR_MODES,
        default="compiled",
        help=(
            "Elmore evaluation mode of RIP's REFINE width solver: 'compiled' "
            "(default) evaluates precompiled per-stage coefficients — "
            "bit-for-bit equal to and ~2x faster than 'walked', the per-call "
            "wire walk kept as the equivalence oracle"
        ),
    )
    sweep.add_argument(
        "--dp-core",
        choices=("fused", "staged"),
        default="fused",
        help=(
            "DP inner-loop implementation of every DP pass: 'fused' (default) "
            "runs each level as one expand-traverse-prune kernel call on the "
            "per-worker scratch arena; 'staged' is the per-level oracle — "
            "both bit-for-bit identical"
        ),
    )
    sweep.add_argument(
        "--refine-analytical",
        choices=SWEEP_MODES,
        default="vectorized",
        help=(
            "analytical inner loops of REFINE: 'vectorized' (default) runs "
            "the width solver's Gauss-Seidel sweep and the move loop's "
            "location derivatives on compiled coefficient vectors — "
            "bit-for-bit equal to 'scalar', the legacy loops kept as the "
            "equivalence oracle"
        ),
    )
    sweep.add_argument(
        "--json",
        default=None,
        help=(
            "write the sweep as JSON to this path: "
            '{"records": [...], "failures": [...]}'
        ),
    )
    sweep.add_argument(
        "--keep-going-exit-zero",
        action="store_true",
        help=(
            "exit 0 even when nets failed (legacy behaviour for experiment "
            "scripts; failures are still printed and exported)"
        ),
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "per-task deadline in seconds for the supervised worker pool: a "
            "hung worker is reaped at the deadline and its net reported as "
            "FAILED [timeout] (default: no deadline)"
        ),
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay completed results from the sweep journal of an earlier "
            "identical sweep (bit-for-bit) and execute only the remainder; "
            "needs a disk-backed cache (--cache-dir or REPRO_CACHE_DIR). "
            "Sweeps with a disk cache always journal, so a killed driver "
            "loses at most the in-flight nets"
        ),
    )

    serve = subparsers.add_parser(
        "serve", help="run the multi-tenant design service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="bind port (0 picks a free port; the chosen one is printed)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="engine worker processes per sweep (0 = run serially)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "shared design-state directory; per-tenant window-cache "
            "partitions live under <dir>/tenants/<tenant>/wincache"
        ),
    )
    serve.add_argument(
        "--max-tenants",
        type=int,
        default=8,
        help="tenant capacity; each tenant gets an equal cache-budget slice",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="admission-control queue depth (full queue => HTTP 429)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help=(
            "maximum requests drained into one design_population sweep "
            "(a batch is whatever queued while the previous one ran)"
        ),
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        help="per-request residence timeout in seconds (exceeded => HTTP 504)",
    )
    serve.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "per-task deadline in seconds for the engine's supervised "
            "worker pool (hung workers are reaped; the net fails with "
            "kind 'timeout')"
        ),
    )

    cache = subparsers.add_parser(
        "cache", help="inspect (and optionally GC) the on-disk design-state caches"
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "design-state directory to inspect (default: the REPRO_CACHE_DIR "
            "environment variable); the frontier/refine tiers are looked up "
            "both directly and under <dir>/wincache"
        ),
    )
    cache.add_argument(
        "--gc",
        action="store_true",
        help="apply the LRU disk budgets to the frontier and refine-record tiers",
    )
    cache.add_argument(
        "--max-frontier-files",
        type=int,
        default=None,
        metavar="N",
        help="frontier-tier count budget for --gc (default: the cache's default)",
    )
    cache.add_argument(
        "--max-frontier-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="frontier-tier size budget for --gc (default: unbounded)",
    )
    cache.add_argument(
        "--max-refine-files",
        type=int,
        default=None,
        metavar="N",
        help="refine-record count budget for --gc (default: the REFINE memo's)",
    )
    cache.add_argument(
        "--max-refine-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="refine-record size budget for --gc (default: unbounded)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the repo's AST invariant linter (rules R1-R6) over source paths",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help=(
            "comma-separated rule ids to run (default: all registered rules); "
            "use --list-rules to see them"
        ),
    )
    lint.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help=(
            "output style: plain 'path:line: [rule] message' lines, or GitHub "
            "Actions ::error annotations for CI"
        ),
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rule ids and titles, then exit",
    )

    return parser


# --------------------------------------------------------------------------- #
def _cmd_generate(args: argparse.Namespace) -> int:
    technology = get_node(args.technology)
    config = NetGenerationConfig(num_forbidden_zones=args.zones)
    if args.segments is not None:
        config = NetGenerationConfig(
            min_segments=args.segments,
            max_segments=args.segments,
            num_forbidden_zones=args.zones,
        )
    generator = RandomNetGenerator(technology, config=config, seed=args.seed)
    net = generator.generate()
    save_net(net, args.output)
    print(net.describe())
    print(f"wrote {args.output}")
    return 0


def _resolve_target(args: argparse.Namespace, technology, net) -> float:
    if args.target_ns is not None:
        return from_nanoseconds(args.target_ns)
    library = RepeaterLibrary.uniform(10.0, 400.0, 10.0)
    candidates = uniform_candidates(net, 50.0e-6)
    tau_min = DelayOptimalDp(technology).minimum_delay(net, library, candidates)
    target = args.target_factor * tau_min
    print(
        f"minimum delay {to_nanoseconds(tau_min):.3f} ns; "
        f"using target {to_nanoseconds(target):.3f} ns "
        f"({args.target_factor:.2f} x minimum)"
    )
    return target


def _print_solution(net, technology, solution: InsertionSolution, target: float) -> None:
    metrics = evaluate_solution(net, technology, solution, timing_target=target)
    print(solution.describe())
    print(
        f"delay {to_nanoseconds(metrics.delay):.3f} ns "
        f"(target {to_nanoseconds(target):.3f} ns, "
        f"{'met' if metrics.meets_timing else 'VIOLATED'}), "
        f"total width {metrics.total_width:.1f}u, "
        f"repeater power {metrics.repeater_power * 1e3:.3f} mW"
    )


def _cmd_insert(args: argparse.Namespace) -> int:
    technology = get_node(args.technology)
    net = load_net(args.net)
    print(net.describe())
    target = _resolve_target(args, technology, net)

    if args.scheme == "rip":
        result = Rip(technology, RipConfig()).run(net, target)
        _print_solution(net, technology, result.solution, target)
        print(
            f"RIP runtime {result.runtime_seconds:.3f}s, "
            f"refined width {result.refined.total_width:.1f}u, "
            f"final library {[f'{w:.0f}u' for w in result.final_library.widths]}"
        )
        return 0 if result.feasible else 2

    library = RepeaterLibrary.uniform(10.0, 400.0, args.dp_granularity)
    candidates = uniform_candidates(net, 200.0e-6)
    dp_result = PowerAwareDp(technology).run(net, library, candidates)
    point = dp_result.best_for_delay(target)
    if point is None:
        print("the DP baseline found no solution meeting the target")
        return 2
    _print_solution(net, technology, InsertionSolution.from_dp(point.solution), target)
    print(f"DP runtime {dp_result.statistics.runtime_seconds:.3f}s")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    technology = get_node(args.technology)
    net = load_net(args.net)
    positions: List[float] = []
    widths: List[float] = []
    for spec in args.repeater:
        try:
            position_um, width_u = spec.split(":")
            positions.append(from_microns(float(position_um)))
            widths.append(float(width_u))
        except ValueError:
            print(f"malformed --repeater {spec!r}; expected POS_UM:WIDTH_U", file=sys.stderr)
            return 2
    solution = InsertionSolution.from_lists(positions, widths)
    target = from_nanoseconds(args.target_ns) if args.target_ns is not None else None
    metrics = evaluate_solution(net, technology, solution, timing_target=target)
    print(net.describe())
    print(solution.describe())
    print(
        f"delay {to_nanoseconds(metrics.delay):.3f} ns, total width {metrics.total_width:.1f}u, "
        f"repeater power {metrics.repeater_power * 1e3:.3f} mW, "
        f"legal {metrics.legal}"
        + (
            f", meets timing {metrics.meets_timing}"
            if metrics.timing_target is not None
            else ""
        )
    )
    return 0


def _make_engine(args: argparse.Namespace, technology):
    from repro.engine.cache import ProtocolStore
    from repro.engine.design import DesignEngine

    store = ProtocolStore(cache_dir=args.cache_dir) if args.cache_dir else None
    return DesignEngine(
        technology,
        workers=args.workers,
        store=store,
        task_timeout_s=getattr(args, "task_timeout", None),
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    technology = get_node(args.technology)
    protocol = ProtocolConfig(
        technology=technology,
        num_nets=args.nets,
        targets_per_net=args.targets,
        seed=args.seed,
    )
    engine = _make_engine(args, technology)
    if args.which == "table1":
        result = run_table1(Table1Config(protocol=protocol), engine=engine)
        print(format_table1(result))
        rows_csv = None
        if args.csv:
            from repro.experiments.report import table1_headers, table1_rows, to_csv

            rows_csv = to_csv(table1_headers(result), table1_rows(result))
    elif args.which == "table2":
        result = run_table2(Table2Config(protocol=protocol), engine=engine)
        print(format_table2(result))
        rows_csv = None
        if args.csv:
            from repro.experiments.report import TABLE2_HEADERS, table2_rows, to_csv

            rows_csv = to_csv(TABLE2_HEADERS, table2_rows(result))
    else:
        result = run_figure7(Figure7Config(protocol=protocol), engine=engine)
        print(format_figure7(result))
        rows_csv = None
        if args.csv:
            from repro.experiments.report import FIGURE7_HEADERS, figure7_rows, to_csv

            first_granularity = sorted(result.series)[0]
            rows_csv = to_csv(FIGURE7_HEADERS, figure7_rows(result, first_granularity))
    if args.csv and rows_csv is not None:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_csv)
        print(f"wrote {args.csv}")
    return 0


def _parse_methods(
    spec: str,
    refine_evaluator: str = "compiled",
    dp_core: str = "fused",
    refine_analytical: str = "vectorized",
    tree_core: str = "fused",
):
    from repro.core.refine import RefineConfig
    from repro.engine.design import MethodSpec

    methods = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if entry == "rip":
            overrides = {}
            if dp_core != "fused":
                overrides["dp_core"] = dp_core
            refine_overrides = {}
            if refine_evaluator != "compiled":
                refine_overrides["evaluator"] = refine_evaluator
            if refine_analytical != "vectorized":
                refine_overrides["analytical"] = refine_analytical
            if refine_overrides:
                overrides["refine"] = RefineConfig(**refine_overrides)
            config = RipConfig(**overrides) if overrides else None
            methods.append(MethodSpec.rip_method(config=config))
        elif entry.startswith("dp-g"):
            try:
                granularity = float(entry[len("dp-g"):])
            except ValueError:
                raise ValueError(f"malformed method {entry!r}; expected dp-g<granularity>")
            methods.append(
                MethodSpec.dp_baseline(
                    entry,
                    RepeaterLibrary.uniform(10.0, 400.0, granularity),
                    core=dp_core,
                )
            )
        elif entry.startswith("tree-g"):
            try:
                granularity = float(entry[len("tree-g"):])
            except ValueError:
                raise ValueError(f"malformed method {entry!r}; expected tree-g<granularity>")
            methods.append(
                MethodSpec.tree_method(
                    entry,
                    RepeaterLibrary.uniform(20.0, 400.0, granularity),
                    core=tree_core,
                )
            )
        else:
            raise ValueError(
                f"unknown method {entry!r}; use 'rip', 'dp-g<granularity>' "
                "or 'tree-g<granularity>'"
            )
    if not methods:
        raise ValueError("no methods given")
    names = [method.name for method in methods]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate methods: {', '.join(duplicates)}")
    return methods


def _cmd_sweep(args: argparse.Namespace) -> int:
    technology = get_node(args.technology)
    method_spec = args.methods or (
        "tree-g20" if args.population == "htree" else "rip,dp-g10"
    )
    try:
        methods = _parse_methods(
            method_spec,
            refine_evaluator=args.refine_evaluator,
            dp_core=args.dp_core,
            refine_analytical=args.refine_analytical,
            tree_core=args.tree_core,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    engine = _make_engine(args, technology)
    # Journal every disk-backed sweep (checkpoint/resume): a killed driver
    # then loses at most the in-flight nets, and --resume replays the rest
    # bit-for-bit.  Memory-only runs have nowhere durable to journal to.
    checkpoint = engine.store.cache_dir is not None
    if args.resume and not checkpoint:
        print(
            "--resume needs a disk-backed cache (--cache-dir or REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    if args.population == "htree":
        if args.tech:
            print("--population htree does not batch multiple --tech nodes", file=sys.stderr)
            return 2
        from repro.engine.design import TargetSpec, build_htree_cases

        cases = build_htree_cases(
            technology,
            count=args.nets,
            levels=args.htree_levels,
            base_span=from_microns(args.htree_span_um),
            span_step=from_microns(args.htree_span_step_um),
            targets=TargetSpec(count=args.targets),
        )
        result = engine.design_population(
            cases, methods, checkpoint=checkpoint, resume=args.resume
        )
        num_nets = len(cases)
    elif args.tech:
        protocol = ProtocolConfig(
            technology=technology,
            num_nets=args.nets,
            targets_per_net=args.targets,
            seed=args.seed,
        )
        technologies = [get_node(name) for name in dict.fromkeys(args.tech)]
        result = engine.design_population(
            methods=methods,
            technologies=technologies,
            protocol=protocol,
            checkpoint=checkpoint,
            resume=args.resume,
        )
        num_nets = args.nets * len(technologies)
    else:
        protocol = ProtocolConfig(
            technology=technology,
            num_nets=args.nets,
            targets_per_net=args.targets,
            seed=args.seed,
        )
        cases = engine.build_cases(protocol)
        result = engine.design_population(
            cases, methods, checkpoint=checkpoint, resume=args.resume
        )
        num_nets = len(cases)

    stats = result.statistics
    print(
        f"designed {stats.num_designs} (net, target, method) records over "
        f"{num_nets} nets with methods {', '.join(result.methods)}"
    )
    print(
        f"wall clock {stats.wall_clock_seconds:.2f}s, "
        f"{stats.states_generated:,} DP states "
        f"({stats.states_per_second:,.0f} states/s), workers={stats.workers}"
    )
    # Per-population-class engine statistics (tree vs two-pin throughput).
    for population_class in dict.fromkeys(net.population_class for net in result.nets):
        class_nets = [
            net for net in result.nets if net.population_class == population_class
        ]
        class_states = sum(net.states_generated for net in class_nets)
        class_runtime = sum(
            sum(net.method_runtimes.values()) for net in class_nets
        )
        class_records = sum(len(net.records) for net in class_nets)
        rates = (
            f"{class_states / class_runtime:,.0f} states/s, "
            f"{len(class_nets) / class_runtime:,.1f} nets/s"
            if class_runtime > 0.0
            else "n/a"
        )
        print(
            f"  [{population_class}] {len(class_nets)} nets, "
            f"{class_records} records, {class_states:,} DP states, "
            f"{class_runtime:.2f}s method runtime ({rates})"
        )
    cache = stats.window_cache
    if cache is not None:
        print(
            f"window cache: {cache.hits} hits / {cache.misses} misses "
            f"({cache.hit_rate:.0%} hit rate), "
            f"{cache.frontier_hits} frontier hits, {cache.disk_hits} disk hits, "
            f"{cache.evictions + cache.disk_evictions} evictions; "
            f"REFINE memo {cache.refine_hits} hits / "
            f"{cache.refine_cold_runs} cold runs"
        )
    else:
        print("window cache: disabled")
    if stats.sanitizer is not None:
        print(
            f"sanitizer: {stats.sanitizer.checks_run} checks run, "
            f"{stats.sanitizer.violations} violations"
        )
    store = engine.store_statistics
    print(
        f"protocol store: {store.builds} builds, {store.memory_hits} memory hits, "
        f"{store.disk_hits} disk hits, {store.evictions} evictions"
    )
    for tech_name in result.technologies:
        tech_nets = result.for_technology(tech_name)
        tech_records = [record for net in tech_nets for record in net.records]
        tech_infeasible = sum(1 for record in tech_records if not record.feasible)
        print(
            f"  [{tech_name}] {len(tech_records)} records over {len(tech_nets)} nets, "
            f"{tech_infeasible} infeasible"
        )
    infeasible = sum(1 for record in result.records() if not record.feasible)
    print(f"infeasible designs: {infeasible}")
    recovery = engine.recovery.snapshot()
    if any(recovery[field] for field in ("rebuilds", "retries", "quarantined", "timeouts")):
        print(
            f"recovery: {recovery['rebuilds']} pool rebuilds, "
            f"{recovery['retries']} retries, "
            f"{recovery['quarantined']} quarantined, "
            f"{recovery['timeouts']} timeouts"
        )
    failures = result.failures()
    for failure in failures:
        attempts = (
            f" (attempts={failure.attempts})" if failure.attempts != 1 else ""
        )
        print(
            f"FAILED [{failure.failure_kind}] "
            f"{failure.technology}/{failure.net_name}{attempts}: {failure.error}"
        )
    if args.json:
        import json as _json
        from dataclasses import asdict

        payload = {
            "records": [asdict(record) for record in result.records()],
            "failures": [
                {
                    "technology": failure.technology,
                    "net_name": failure.net_name,
                    "failure_kind": failure.failure_kind,
                    "attempts": failure.attempts,
                    "error": failure.error,
                }
                for failure in failures
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle, indent=1)
        print(f"wrote {args.json}")
    if failures and not args.keep_going_exit_zero:
        print(
            f"{len(failures)} net(s) failed; exiting 3 "
            "(pass --keep-going-exit-zero to suppress)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_service
    from repro.service.tenants import TenantBudgets

    technology = get_node(args.technology)
    engine = _make_engine(args, technology)
    budgets = TenantBudgets(
        max_tenants=args.max_tenants,
        cache_root=args.cache_dir,
    )
    run_service(
        engine,
        host=args.host,
        port=args.port,
        budgets=budgets,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        request_timeout_seconds=args.request_timeout,
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Show per-tier disk usage of the design-state caches; ``--gc`` applies
    the same LRU budgets the live stores enforce after their own saves."""
    import os
    from pathlib import Path

    from repro.core.refine import RefineMemo, RefineRecordStore
    from repro.engine.wincache import WindowCompilationCache

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    if cache_dir is None:
        print(
            "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    root = Path(cache_dir)
    if not root.is_dir():
        print(f"cache directory {root} does not exist", file=sys.stderr)
        return 2

    def tier(directory: Path, pattern: str):
        files = sorted(directory.glob(pattern)) if directory.is_dir() else []
        total = 0
        for path in files:
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return files, total

    # Frontier / refine tiers live either directly in the directory or in
    # the engine's conventional `wincache` sub-directory.
    wincache_dir = root / "wincache" if (root / "wincache").is_dir() else root

    tiers = [
        ("protocol store", root, "protocol-*.json"),
        ("final-DP frontiers", wincache_dir, "frontier-*.json"),
        ("REFINE records", wincache_dir, "refine-*.json"),
    ]
    print(f"design-state directory: {root}")
    for name, directory, pattern in tiers:
        files, total = tier(directory, pattern)
        where = "" if directory == root else f"  ({directory.name}/)"
        print(f"  {name:<20} {len(files):6d} files  {total / 1024:10.1f} KiB{where}")

    if args.gc:
        frontier_budget = (
            args.max_frontier_files
            if args.max_frontier_files is not None
            else WindowCompilationCache.DEFAULT_MAX_FRONTIER_FILES
        )
        refine_budget = (
            args.max_refine_files
            if args.max_refine_files is not None
            else RefineMemo.MAX_RECORD_FILES
        )
        frontier_evicted = WindowCompilationCache(
            cache_dir=wincache_dir,
            max_files=frontier_budget,
            max_bytes=args.max_frontier_bytes,
        ).gc()
        refine_evicted = RefineRecordStore(
            wincache_dir,
            context="",
            max_files=refine_budget,
            max_bytes=args.max_refine_bytes,
        ).gc()
        print(
            f"gc: evicted {frontier_evicted} frontier files "
            f"(budget {frontier_budget}), {refine_evicted} refine-record files "
            f"(budget {refine_budget})"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST invariant linter; exit 0 clean, 1 on violations, 2 on a
    bad rule selection."""
    from repro.analysis.linter import (
        Linter,
        available_rules,
        format_github,
        format_text,
    )

    if args.list_rules:
        for rule_id, rule_class in available_rules().items():
            print(f"{rule_id:<24} {rule_class.title}")
        return 0
    rules = None
    if args.rules is not None:
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    try:
        linter = Linter(rules)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    violations = linter.run(args.paths)
    if args.format == "github":
        output = format_github(violations)
        if output:
            print(output)
    else:
        print(format_text(violations))
    return 1 if violations else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``rip`` tool."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate-net": _cmd_generate,
        "insert": _cmd_insert,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)
