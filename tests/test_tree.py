"""Tests for the interconnect-tree extension."""

import pytest

from repro.dp.candidates import uniform_candidates
from repro.dp.powerdp import PowerAwareDp
from repro.dp.pruning import PruningConfig
from repro.engine.compiled import CompiledTree
from repro.net.segment import WireSegment
from repro.net.twopin import TwoPinNet
from repro.tech.library import RepeaterLibrary
from repro.tree.buffering import TreePowerDp
from repro.tree.generator import RandomTreeGenerator, TreeGenerationConfig
from repro.tree.rctree import RoutingTree
from repro.utils.units import from_microns
from repro.utils.validation import ValidationError


def _chain_tree(tech, *, length_um=8000.0, segments=4, driver=120.0, receiver=60.0):
    """A degenerate tree (single path) mirroring a uniform two-pin net."""
    layer = tech.layer("metal4")
    tree = RoutingTree("driver", driver_width=driver)
    previous = "driver"
    for index in range(segments):
        node = f"n{index + 1}"
        tree.add_edge(
            previous,
            node,
            length=from_microns(length_um / segments),
            resistance_per_meter=layer.resistance_per_meter,
            capacitance_per_meter=layer.capacitance_per_meter,
        )
        previous = node
    tree.mark_sink(previous, receiver)
    return tree


def _branchy_tree(tech):
    layer4 = tech.layer("metal4")
    layer5 = tech.layer("metal5")
    tree = RoutingTree("driver", driver_width=120.0, name="branchy")
    tree.add_edge("driver", "trunk", length=from_microns(3000.0),
                  resistance_per_meter=layer4.resistance_per_meter,
                  capacitance_per_meter=layer4.capacitance_per_meter)
    tree.add_edge("trunk", "left", length=from_microns(4000.0),
                  resistance_per_meter=layer5.resistance_per_meter,
                  capacitance_per_meter=layer5.capacitance_per_meter)
    tree.add_edge("trunk", "right", length=from_microns(6000.0),
                  resistance_per_meter=layer4.resistance_per_meter,
                  capacitance_per_meter=layer4.capacitance_per_meter)
    tree.mark_sink("left", 60.0)
    tree.mark_sink("right", 40.0)
    return tree


# --------------------------------------------------------------------------- #
# RoutingTree structure
# --------------------------------------------------------------------------- #
def test_routing_tree_structure(tech):
    tree = _branchy_tree(tech)
    tree.validate()
    assert tree.num_sinks == 2
    assert set(tree.children("trunk")) == {"left", "right"}
    assert tree.edge_to("left").parent == "trunk"
    assert tree.total_wire_length() == pytest.approx(from_microns(13000.0))
    assert tree.sink("left").receiver_width == 60.0
    assert tree.sink("trunk") is None
    assert "branchy" in tree.describe()


def test_routing_tree_validate_rejects_unmarked_leaf(tech):
    tree = _branchy_tree(tech)
    layer = tech.layer("metal4")
    tree.add_edge("trunk", "dangling", length=1e-3,
                  resistance_per_meter=layer.resistance_per_meter,
                  capacitance_per_meter=layer.capacitance_per_meter)
    with pytest.raises(ValidationError):
        tree.validate()


def test_routing_tree_rejects_duplicate_node(tech):
    tree = _branchy_tree(tech)
    layer = tech.layer("metal4")
    with pytest.raises(ValidationError):
        tree.add_edge("driver", "trunk", length=1e-3,
                      resistance_per_meter=layer.resistance_per_meter,
                      capacitance_per_meter=layer.capacitance_per_meter)


def test_routing_tree_root_cannot_be_sink(tech):
    tree = _branchy_tree(tech)
    with pytest.raises(ValidationError):
        tree.mark_sink("driver", 10.0)


# --------------------------------------------------------------------------- #
# TreePowerDp
# --------------------------------------------------------------------------- #
def test_chain_tree_matches_two_pin_dp(tech):
    """On a degenerate (single-path) tree the tree engine must reproduce the
    two-pin power DP exactly: same candidate pitch, same library."""
    length_um, segments = 8000.0, 4
    tree = _chain_tree(tech, length_um=length_um, segments=segments)
    layer = tech.layer("metal4")
    net = TwoPinNet(
        segments=tuple(
            WireSegment.on_layer(layer, from_microns(length_um / segments))
            for _ in range(segments)
        ),
        driver_width=120.0,
        receiver_width=60.0,
    )
    library = RepeaterLibrary((60.0, 120.0, 240.0))
    pitch = from_microns(500.0)

    chain_result = PowerAwareDp(tech).run(net, library, uniform_candidates(net, pitch))
    tree_dp = TreePowerDp(tech, site_pitch=pitch)

    for factor in (1.1, 1.4, 1.9):
        target = factor * chain_result.min_delay()
        chain_point = chain_result.best_for_delay(target)
        tree_solution = tree_dp.run(tree, library, target)
        assert tree_solution.feasible
        assert tree_solution.total_width == pytest.approx(chain_point.total_width)


@pytest.mark.parametrize("core", ["reference", "fused"])
def test_chain_tree_bit_identical_to_two_pin_dp(tech, core):
    """On a degenerate (single-path) tree every tree core must reproduce the
    two-pin power DP *bit for bit* — same widths, delays and repeater
    positions, not just approximately.

    The geometry is exact in binary floating point (segment length
    ``2**-9`` m, site pitch ``2**-11`` m) so the tree's child-relative site
    schedule maps onto driver-relative two-pin candidates without rounding,
    and the two-pin pruning runs at zero tolerance to match the tree DP's
    exact 3-D dominance."""
    layer = tech.layer("metal4")
    pitch = 2.0**-11  # ~488 um, exact in binary
    segment_length = 2.0**-9  # 4 * pitch
    segments = 4

    tree = RoutingTree("driver", driver_width=120.0, name="chain")
    previous = "driver"
    for index in range(segments):
        node = f"n{index + 1}"
        tree.add_edge(previous, node, length=segment_length,
                      resistance_per_meter=layer.resistance_per_meter,
                      capacitance_per_meter=layer.capacitance_per_meter)
        previous = node
    tree.mark_sink(previous, 60.0)
    net = TwoPinNet(
        segments=tuple(
            WireSegment.on_layer(layer, segment_length) for _ in range(segments)
        ),
        driver_width=120.0,
        receiver_width=60.0,
    )

    # The tree places sites per edge, child-relative and strictly interior;
    # hand the two-pin DP exactly those positions, driver-relative.
    compiled = CompiledTree(tree, pitch)
    depth = {"driver": 0.0}
    for edge in tree.edges:
        depth[edge.child] = depth[edge.parent] + edge.length
    candidates = sorted(
        depth[child] - site
        for child, compiled_edge in compiled.edges.items()
        for site in compiled_edge.sites
    )

    library = RepeaterLibrary((60.0, 120.0, 240.0))
    exact = PruningConfig(delay_tolerance=0.0, width_tolerance=0.0)
    chain_result = PowerAwareDp(tech, exact).run(net, library, candidates)
    tree_dp = TreePowerDp(tech, site_pitch=pitch, core=core)

    for factor in (1.05, 1.2, 1.5, 2.0):
        target = factor * chain_result.min_delay()
        chain_point = chain_result.best_for_delay(target)
        solution = tree_dp.run(tree, library, target, compiled=compiled)
        assert solution.feasible
        assert solution.total_width == chain_point.total_width
        assert solution.worst_delay == chain_point.delay
        positions = sorted(
            depth[a.child] - a.distance_from_child for a in solution.assignments
        )
        assert positions == sorted(chain_point.solution.positions)
        assert sorted(a.width for a in solution.assignments) == sorted(
            chain_point.solution.widths
        )


def test_tree_dp_meets_target_on_branchy_tree(tech):
    tree = _branchy_tree(tech)
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    dp = TreePowerDp(tech, site_pitch=from_microns(500.0))
    fast = dp.run(tree, library, timing_target=1e-9)
    assert fast.feasible
    assert fast.worst_delay <= 1e-9


def test_tree_dp_monotone_in_target(tech):
    tree = _branchy_tree(tech)
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    dp = TreePowerDp(tech, site_pitch=from_microns(500.0))
    tight = dp.run(tree, library, timing_target=0.45e-9)
    loose = dp.run(tree, library, timing_target=1.5e-9)
    assert tight.total_width >= loose.total_width


def test_tree_dp_infeasible_target(tech):
    tree = _branchy_tree(tech)
    library = RepeaterLibrary((40.0,))
    dp = TreePowerDp(tech, site_pitch=from_microns(1000.0))
    result = dp.run(tree, library, timing_target=1e-12)
    assert not result.feasible
    assert result.worst_delay > 1e-12


def test_tree_dp_assignments_reference_real_edges(tech):
    tree = _branchy_tree(tech)
    library = RepeaterLibrary.uniform(40.0, 240.0, 40.0)
    dp = TreePowerDp(tech, site_pitch=from_microns(500.0))
    solution = dp.run(tree, library, timing_target=0.5e-9)
    edges = {(edge.parent, edge.child): edge for edge in tree.edges}
    for assignment in solution.assignments:
        edge = edges[(assignment.parent, assignment.child)]
        assert 0.0 < assignment.distance_from_child < edge.length
        assert assignment.width in library
    assert solution.total_width == pytest.approx(
        sum(a.width for a in solution.assignments)
    )


# --------------------------------------------------------------------------- #
# generator
# --------------------------------------------------------------------------- #
def test_tree_generator_produces_valid_trees(tech):
    generator = RandomTreeGenerator(tech, TreeGenerationConfig(num_sinks=5), seed=3)
    for _ in range(5):
        tree = generator.generate()
        tree.validate()
        assert tree.num_sinks >= 1
        assert tree.total_wire_length() > 0.0


def test_tree_generator_deterministic(tech):
    a = RandomTreeGenerator(tech, seed=9).generate()
    b = RandomTreeGenerator(tech, seed=9).generate()
    assert a.total_wire_length() == pytest.approx(b.total_wire_length())
    assert a.num_sinks == b.num_sinks


def test_tree_generator_rejects_unknown_layer(tech):
    with pytest.raises(KeyError):
        RandomTreeGenerator(tech, TreeGenerationConfig(layers=("metal99",)), seed=1)
