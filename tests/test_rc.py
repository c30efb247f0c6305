"""Tests for the general RC-network substrate (tree Elmore, moments, MNA)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.delay.moments import ladder_moments
from repro.rc.elmore import tree_downstream_capacitance, tree_elmore_delays
from repro.rc.moments import tree_elmore_from_moments, tree_moments
from repro.rc.network import RCTree
from repro.rc.simulate import simulate_ladder_step, simulate_tree_step, threshold_crossing
from repro.utils.validation import ValidationError


def _balanced_tree():
    """Root -> two branches of two nodes each, with distinct RC values."""
    tree = RCTree("root")
    tree.add_capacitance("root", 1e-15)
    tree.add_node("a1", "root", 100.0, 1e-13)
    tree.add_node("a2", "a1", 150.0, 2e-13)
    tree.add_node("b1", "root", 200.0, 1.5e-13)
    tree.add_node("b2", "b1", 250.0, 0.5e-13)
    return tree


def test_tree_structure_queries():
    tree = _balanced_tree()
    assert tree.root == "root"
    assert set(tree.leaves()) == {"a2", "b2"}
    assert tree.parent("a2") == "a1"
    assert tree.parent("root") is None
    assert tree.children("root") == ("a1", "b1")
    assert len(tree) == 5
    assert "a1" in tree and "zz" not in tree


def test_tree_path_resistance():
    tree = _balanced_tree()
    assert tree.path_resistance("a2") == pytest.approx(250.0)
    assert tree.path_resistance("b2") == pytest.approx(450.0)
    assert tree.path_resistance("root") == 0.0


def test_downstream_capacitance():
    tree = _balanced_tree()
    downstream = tree_downstream_capacitance(tree)
    assert downstream["a2"] == pytest.approx(2e-13)
    assert downstream["a1"] == pytest.approx(3e-13)
    assert downstream["root"] == pytest.approx(tree.total_capacitance())


def test_tree_elmore_hand_computed():
    tree = _balanced_tree()
    delays = tree_elmore_delays(tree, source_resistance=50.0)
    total_cap = tree.total_capacitance()
    expected_a1 = 50.0 * total_cap + 100.0 * 3e-13
    expected_a2 = expected_a1 + 150.0 * 2e-13
    assert delays["a1"] == pytest.approx(expected_a1)
    assert delays["a2"] == pytest.approx(expected_a2)


def test_tree_elmore_monotone_along_path():
    tree = _balanced_tree()
    delays = tree_elmore_delays(tree, source_resistance=10.0)
    assert delays["root"] <= delays["a1"] <= delays["a2"]
    assert delays["root"] <= delays["b1"] <= delays["b2"]


def test_tree_moments_match_direct_elmore():
    tree = _balanced_tree()
    from_moments = tree_elmore_from_moments(tree, source_resistance=75.0)
    direct = tree_elmore_delays(tree, source_resistance=75.0)
    for node in tree.nodes:
        assert from_moments[node] == pytest.approx(direct[node])


def test_tree_moments_second_order_positive():
    tree = _balanced_tree()
    moments = tree_moments(tree, order=2, source_resistance=75.0)
    for node in tree.nodes:
        if node == tree.root:
            continue
        assert moments[node][0] < 0.0
        assert moments[node][1] > 0.0


def test_ladder_constructor_matches_ladder_moments():
    resistances = [100.0, 200.0, 300.0]
    capacitances = [1e-13, 2e-13, 3e-13]
    tree = RCTree.ladder(resistances, capacitances)
    delays = tree_elmore_delays(tree)
    assert delays["n3"] == pytest.approx(-ladder_moments(resistances, capacitances, 1)[0])


def test_tree_rejects_duplicate_node():
    tree = RCTree("root")
    tree.add_node("a", "root", 1.0, 1e-15)
    with pytest.raises(ValidationError):
        tree.add_node("a", "root", 1.0, 1e-15)


def test_tree_rejects_unknown_parent():
    tree = RCTree("root")
    with pytest.raises(ValidationError):
        tree.add_node("a", "ghost", 1.0, 1e-15)


# --------------------------------------------------------------------------- #
# MNA transient simulation vs. analytical estimates
# --------------------------------------------------------------------------- #
def test_single_rc_simulation_matches_theory():
    r, c = 1000.0, 1e-12
    response = simulate_ladder_step([r], [c], t_end=10 * r * c, steps=4000)
    measured = response.delay_at(0.5)
    assert measured == pytest.approx(0.6931 * r * c, rel=0.02)


def test_ladder_simulation_bounded_by_elmore():
    # The 50% delay of an RC ladder is below its Elmore delay but within ~2x.
    resistances = [50.0] * 20
    capacitances = [2e-13] * 20
    elmore = -ladder_moments(resistances, capacitances, 1)[0]
    response = simulate_ladder_step(resistances, capacitances, t_end=10 * elmore, steps=3000)
    measured = response.delay_at(0.5)
    assert 0.3 * elmore < measured < elmore


def test_tree_simulation_agrees_with_elmore_ordering():
    # Strongly asymmetric tree: the "slow" branch has much more RC than the
    # "fast" one, so both Elmore and the transient simulation must rank the
    # fast sink ahead of the slow one.
    tree = RCTree("root")
    tree.add_node("fast", "root", 100.0, 1e-13)
    tree.add_node("slow1", "root", 800.0, 4e-13)
    tree.add_node("slow2", "slow1", 900.0, 5e-13)
    source_resistance = 500.0
    delays = tree_elmore_delays(tree, source_resistance=source_resistance)
    assert delays["fast"] < delays["slow2"]
    t_end = 10 * max(delays.values())
    fast = simulate_tree_step(
        tree, "fast", source_resistance=source_resistance, t_end=t_end, steps=2000
    ).delay_at(0.5)
    slow = simulate_tree_step(
        tree, "slow2", source_resistance=source_resistance, t_end=t_end, steps=2000
    ).delay_at(0.5)
    assert fast < slow


def test_threshold_crossing_interpolates():
    times = [0.0, 1.0, 2.0]
    voltages = [0.0, 0.4, 0.8]
    assert threshold_crossing(times, voltages, 0.6) == pytest.approx(1.5)


def test_threshold_crossing_requires_reaching_threshold():
    with pytest.raises(ValueError):
        threshold_crossing([0.0, 1.0], [0.0, 0.1], 0.5)


def test_simulation_validates_inputs():
    with pytest.raises(ValidationError):
        simulate_ladder_step([], [], t_end=1.0)
    with pytest.raises(ValidationError):
        simulate_ladder_step([1.0], [1.0, 2.0], t_end=1.0)
    tree = _balanced_tree()
    with pytest.raises(ValidationError):
        simulate_tree_step(tree, "nope", source_resistance=10.0, t_end=1.0)


def test_simulator_needs_only_numpy():
    """The package and its RC simulator import no scipy (numpy is the only
    runtime dependency); checked in a fresh interpreter so other tests'
    imports cannot mask it."""
    code = (
        "import sys, repro, repro.rc.simulate;"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]"
