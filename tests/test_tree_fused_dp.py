"""Bit-exactness property suite for the compiled tree-DP engine (ISSUE 8).

The Python reference tree DP (``TreePowerDp(core="reference")``) is the
oracle; the fused kernels must reproduce it *bit for bit* — buffer
assignments, worst-sink delay, total width, feasibility and the per-solve
statistics — over random trees, degenerate chains, wide fan-in merges, hard
state caps and infeasible targets.  The
serve layer rides the same oracle: the window cache's tree tier, the tree
serialisation round-trip, the H-tree workload generator and the
DesignEngine population path (serial and multiprocess) are
covered here too.
"""

import pytest

from repro.engine.compiled import CompiledTree
from repro.engine.design import DesignEngine, MethodSpec, build_htree_cases
from repro.engine.wincache import (
    WindowCompilationCache,
    tree_fingerprint,
)
from repro.tech.library import RepeaterLibrary
from repro.tree.buffering import TreePowerDp
from repro.tree.generator import RandomTreeGenerator, TreeGenerationConfig, htree
from repro.tree.io import tree_from_dict, tree_to_dict
from repro.tree.rctree import RoutingTree
from repro.utils.units import from_microns

PITCH = from_microns(500.0)


def _signature(solution):
    return (
        tuple(
            (a.parent, a.child, a.distance_from_child, a.width)
            for a in solution.assignments
        ),
        solution.worst_delay,
        solution.total_width,
        solution.feasible,
    )


def _stats_signature(statistics):
    # runtime_seconds legitimately differs between runs; everything else is
    # part of the bit-exactness contract.
    return (
        statistics.num_edges,
        statistics.num_sites,
        statistics.library_size,
        statistics.states_generated,
        statistics.max_front_size,
    )


def _targets_for(tech, tree, library, *, pitch=PITCH, max_states=4000):
    """Skew-anchored target ladder plus two infeasible targets.

    An unreachably tight target makes the per-target selection return the
    minimum worst-sink delay solution, so ``probe.worst_delay`` is the
    tree's ``tau_min``.
    """
    probe = TreePowerDp(
        tech, site_pitch=pitch, max_states_per_node=max_states
    ).run(tree, library, 1.0e-18)
    tau_min = probe.worst_delay
    return [1.0e-15, 0.5 * tau_min, 1.05 * tau_min, 1.3 * tau_min, 2.0 * tau_min]


def _assert_cores_identical(tech, tree, library, targets, *, pitch=PITCH, max_states=4000):
    """Reference vs fused: identical solutions and statistics."""
    compiled = CompiledTree(tree, pitch)
    outcomes = {}
    for core in ("reference", "fused"):
        dp = TreePowerDp(
            tech, site_pitch=pitch, max_states_per_node=max_states, core=core
        )
        solutions = dp.run_many(tree, library, targets, compiled=compiled)
        outcomes[core] = (
            [_signature(s) for s in solutions],
            _stats_signature(solutions[0].statistics),
        )
    assert outcomes["fused"] == outcomes["reference"]
    return outcomes["reference"]


# --------------------------------------------------------------------------- #
# Core equivalence properties
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11, 23])
def test_random_trees_bit_identical_across_cores(tech, seed):
    generator = RandomTreeGenerator(
        tech, TreeGenerationConfig(num_sinks=3 + seed % 4), seed=seed
    )
    tree = generator.generate()
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    targets = _targets_for(tech, tree, library)
    rows, _ = _assert_cores_identical(tech, tree, library, targets)
    assert not rows[0][3]  # the 1 fs target is infeasible
    assert rows[-1][3]  # 2x tau_min is feasible


def test_single_edge_tree(tech):
    layer = tech.layer("metal4")
    tree = RoutingTree("driver", driver_width=120.0, name="single")
    tree.add_edge(
        "driver",
        "sink",
        length=from_microns(6000.0),
        resistance_per_meter=layer.resistance_per_meter,
        capacitance_per_meter=layer.capacitance_per_meter,
    )
    tree.mark_sink("sink", 60.0)
    library = RepeaterLibrary((40.0, 120.0, 360.0))
    _assert_cores_identical(tech, tree, library, _targets_for(tech, tree, library))


def test_deep_chain_tree(tech):
    layer = tech.layer("metal5")
    tree = RoutingTree("driver", driver_width=150.0, name="deep")
    previous = "driver"
    for index in range(10):
        node = f"n{index + 1}"
        tree.add_edge(
            previous,
            node,
            length=from_microns(1200.0),
            resistance_per_meter=layer.resistance_per_meter,
            capacitance_per_meter=layer.capacitance_per_meter,
        )
        previous = node
    tree.mark_sink(previous, 40.0)
    library = RepeaterLibrary.uniform(60.0, 300.0, 60.0)
    _assert_cores_identical(tech, tree, library, _targets_for(tech, tree, library))


def test_wide_fanin_merge(tech):
    """A 6-way Steiner point: the branch-merge kernel's widest join here."""
    layer = tech.layer("metal4")
    tree = RoutingTree("driver", driver_width=120.0, name="fanin6")
    tree.add_edge(
        "driver",
        "hub",
        length=from_microns(2000.0),
        resistance_per_meter=layer.resistance_per_meter,
        capacitance_per_meter=layer.capacitance_per_meter,
    )
    for index in range(6):
        sink = f"s{index}"
        tree.add_edge(
            "hub",
            sink,
            length=from_microns(1000.0 + 700.0 * index),
            resistance_per_meter=layer.resistance_per_meter,
            capacitance_per_meter=layer.capacitance_per_meter,
        )
        tree.mark_sink(sink, 40.0 + 20.0 * (index % 3))
    library = RepeaterLibrary.uniform(40.0, 200.0, 80.0)
    _assert_cores_identical(tech, tree, library, _targets_for(tech, tree, library))


def test_hard_state_cap_bit_identical(tech):
    """``max_states_per_node=10`` forces the (width, delay) hard cap at every
    node — the cores must agree on exactly which states survive."""
    generator = RandomTreeGenerator(tech, TreeGenerationConfig(num_sinks=4), seed=5)
    tree = generator.generate()
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    targets = _targets_for(tech, tree, library, max_states=10)
    _assert_cores_identical(tech, tree, library, targets, max_states=10)


def test_run_many_matches_single_target_runs(tech):
    """One solve + per-target selection == one solve per target."""
    tree = RandomTreeGenerator(tech, TreeGenerationConfig(num_sinks=4), seed=9).generate()
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    targets = _targets_for(tech, tree, library)
    dp = TreePowerDp(tech, site_pitch=PITCH)
    many = dp.run_many(tree, library, targets)
    singles = [dp.run(tree, library, target) for target in targets]
    assert [_signature(s) for s in many] == [_signature(s) for s in singles]


# --------------------------------------------------------------------------- #
# H-tree workload generator
# --------------------------------------------------------------------------- #
def test_htree_generator_properties(tech):
    levels, span = 3, from_microns(4000.0)
    tree = htree(tech, levels, span)
    tree.validate()
    assert tree.num_sinks == 2**levels
    # Every level halves the branch length and doubles the branch count, so
    # each level contributes exactly `span` of wire.
    assert tree.total_wire_length() == pytest.approx(levels * span)
    # Zero skew by construction: every sink is equidistant from the driver.
    depth = {tree.root: 0.0}
    for edge in tree.edges:
        depth[edge.child] = depth[edge.parent] + edge.length
    distances = {depth[sink.node] for sink in tree.sinks}
    assert len(distances) == 1
    # Deterministic: same arguments, same fingerprint.
    assert tree_fingerprint(htree(tech, levels, span)) == tree_fingerprint(tree)


def test_htree_bit_identical_across_cores(tech):
    tree = htree(tech, 2, from_microns(3000.0))
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    _assert_cores_identical(tech, tree, library, _targets_for(tech, tree, library))


# --------------------------------------------------------------------------- #
# Serialisation + cache tier
# --------------------------------------------------------------------------- #
def test_tree_io_round_trip(tech):
    tree = RandomTreeGenerator(tech, TreeGenerationConfig(num_sinks=5), seed=4).generate()
    rebuilt = tree_from_dict(tree_to_dict(tree))
    assert tree_to_dict(rebuilt) == tree_to_dict(tree)
    assert tree_fingerprint(rebuilt) == tree_fingerprint(tree)


def test_tree_fingerprint_is_edge_order_sensitive(tech):
    """Sibling insertion order steers merge order (and float low bits), so
    order-distinct trees must not share a fingerprint."""
    layer = tech.layer("metal4")

    def build(order):
        tree = RoutingTree("driver", driver_width=120.0, name="order")
        tree.add_edge("driver", "hub", length=from_microns(1000.0),
                      resistance_per_meter=layer.resistance_per_meter,
                      capacitance_per_meter=layer.capacitance_per_meter)
        for child in order:
            tree.add_edge("hub", child, length=from_microns(1500.0),
                          resistance_per_meter=layer.resistance_per_meter,
                          capacitance_per_meter=layer.capacitance_per_meter)
            tree.mark_sink(child, 60.0)
        return tree

    assert tree_fingerprint(build(("a", "b"))) != tree_fingerprint(build(("b", "a")))


def test_window_cache_tree_tier(tech, tmp_path):
    tree = htree(tech, 2, from_microns(2000.0))
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    targets = tuple(_targets_for(tech, tree, library)[2:])
    dp = TreePowerDp(tech, site_pitch=PITCH)
    context = "tree-tier-test"
    calls = []

    def factory():
        calls.append(1)
        return dp.run_many(tree, library, targets)

    cache = WindowCompilationCache(cache_dir=str(tmp_path))
    first = cache.tree_solutions(tree, context, targets, factory)
    second = cache.tree_solutions(tree, context, targets, factory)
    assert len(calls) == 1  # memory hit on the second call
    assert [_signature(s) for s in second] == [_signature(s) for s in first]

    # A fresh cache on the same directory must answer from disk.
    restarted = WindowCompilationCache(cache_dir=str(tmp_path))
    third = restarted.tree_solutions(tree, context, targets, factory)
    assert len(calls) == 1
    assert restarted.statistics.disk_hits == 1
    assert [_signature(s) for s in third] == [_signature(s) for s in first]
    # The disk payload preserves statistics too.
    assert _stats_signature(third[0].statistics) == _stats_signature(
        first[0].statistics
    )


# --------------------------------------------------------------------------- #
# DesignEngine population path
# --------------------------------------------------------------------------- #
def _record_signature(result):
    return [
        (r.method, round(r.target, 18), r.feasible, r.total_width, r.delay, r.num_repeaters)
        for r in result.records
    ]


def test_design_engine_htree_population_cores_identical(tech):
    """The engine's tree sweep (fused core) equals direct runs of the
    reference tree DP, record for record, with the same DP state count."""
    cases = build_htree_cases(tech, count=2, levels=2)
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    engine = DesignEngine(tech, window_cache=False)
    try:
        outcome = engine.design_population(
            cases, [MethodSpec.tree_method("tree", library)]
        )
    finally:
        engine.close()
    assert [net.population_class for net in outcome.nets] == ["tree", "tree"]
    for case, net in zip(cases, outcome.nets):
        assert not net.failed
        reference = TreePowerDp(
            tech,
            site_pitch=case.site_pitch,
            max_states_per_node=case.max_states_per_node,
            core="reference",
        ).run_many(case.tree, library, case.targets)
        assert [
            (r.target, r.feasible, r.total_width, r.delay, r.num_repeaters)
            for r in net.records
        ] == [
            (
                target,
                solution.feasible,
                solution.total_width if solution.feasible else None,
                solution.worst_delay if solution.feasible else None,
                len(solution.assignments),
            )
            for target, solution in zip(case.targets, reference)
        ]
        assert net.states_generated == reference[0].statistics.states_generated


def test_design_engine_htree_parallel_matches_serial(tech):
    """Each pool task carries its tree case, and the worker must reproduce
    the serial run."""
    cases = build_htree_cases(tech, count=2, levels=2)
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    methods = [MethodSpec.tree_method("tree-fused", library)]

    def run(workers):
        engine = DesignEngine(tech, workers=workers, window_cache=False)
        try:
            return engine.design_population(cases, methods)
        finally:
            engine.close()

    serial, parallel = run(0), run(2)
    assert [_record_signature(net) for net in serial.nets] == [
        _record_signature(net) for net in parallel.nets
    ]
    assert [net.states_generated for net in serial.nets] == [
        net.states_generated for net in parallel.nets
    ]
