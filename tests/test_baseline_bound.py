"""Property suite for the width-bounded baseline DP (``PowerAwareDp.run_many``).

``run_many`` answers every target from a run bounded by a sub-library
incumbent.  Its answers must equal those of a plain ``run`` +
``best_for_delay`` target by target (width, delay, positions, widths),
across seeds, libraries and pruning tolerances.  Under a
bound, the fused core must still equal its staged oracle bit for bit.  Every
fallback to a plain run is exercised, and so is the sanitizer's replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizeError
from repro.dp.powerdp import PowerAwareDp
from repro.dp.pruning import PruningConfig
from repro.engine.cache import ProtocolConfig, ProtocolStore
from repro.engine.compiled import CompiledNet
from repro.engine.kernels import width_quantum
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM

SEEDS = (2005, 3)

LIBRARIES = {
    "g10": RepeaterLibrary.uniform(10.0, 400.0, 10.0),
    "g20": RepeaterLibrary.uniform(10.0, 400.0, 20.0),
    "g30": RepeaterLibrary.uniform(10.0, 400.0, 30.0),
    "g40": RepeaterLibrary.uniform(10.0, 400.0, 40.0),
    # Non-integer widths: total widths are inexact float sums.
    "nonint40": RepeaterLibrary.from_widths(np.linspace(10.3, 397.7, 40)),
}


@pytest.fixture(scope="module")
def cases():
    """Two nets per seed, at twice the paper's candidate pitch (fewer levels)."""
    return [
        case
        for seed in SEEDS
        for case in ProtocolStore().cases(
            ProtocolConfig(
                num_nets=2,
                targets_per_net=6,
                seed=seed,
                candidate_pitch=400.0e-6,
                tau_min_pitch=200.0e-6,
            )
        )
    ]


@pytest.fixture
def plain_mode(monkeypatch):
    """Sanitizer off: its replay would add a pass to the recorded calls."""
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)


def _answer(point):
    if point is None:
        return None
    return (
        point.total_width,
        point.delay,
        point.solution.positions,
        point.solution.widths,
    )


def _frontier_signature(result):
    return [
        (point.delay, point.total_width, point.solution.positions, point.solution.widths)
        for point in result.frontier.points
    ]


def _statistics_signature(result):
    stats = result.statistics
    return (stats.num_candidates, stats.library_size, stats.states_generated, stats.max_front_size)


def _case_ids(cases):
    """``full-<parameters>``: every case runs the full dominance rule."""
    return ["-".join(["full", *map(str, case)]) for case in cases]


def _record_runs(monkeypatch):
    """Record ``(library size, width_bound)`` of every ``PowerAwareDp.run``."""
    calls = []
    real = PowerAwareDp.run

    def spy(self, net, library, *args, width_bound=None, **kwargs):
        calls.append((len(library.widths), width_bound))
        return real(self, net, library, *args, width_bound=width_bound, **kwargs)

    monkeypatch.setattr(PowerAwareDp, "run", spy)
    return calls


RUN_MANY_CASES = [
    ("g10", 1e-9, 1e-14),
    ("g10", 0.0, 2e-12),
    ("g10", 15.0, 1e-14),
    ("g10", 15.0, 2e-12),
    ("g20", 1e-9, 1e-14),
    ("g20", 5.0, 2e-12),
    ("g30", 0.0, 1e-14),
    ("g30", 0.0, 2e-12),
    ("g40", 15.0, 2e-12),
    ("nonint40", 1e-9, 2e-12),
    ("nonint40", 5.0, 1e-14),
    ("nonint40", 15.0, 2e-12),
]


@pytest.mark.parametrize(
    "library, width_tolerance, delay_tolerance",
    RUN_MANY_CASES,
    ids=_case_ids(RUN_MANY_CASES),
)
def test_run_many_equals_plain_run(cases, library, width_tolerance, delay_tolerance):
    pruning = PruningConfig(
        delay_tolerance=delay_tolerance, width_tolerance=width_tolerance
    )
    dp = PowerAwareDp(NODE_180NM, pruning=pruning)
    for case in cases:
        compiled = CompiledNet(case.net, case.candidates)
        plain = dp.run(case.net, LIBRARIES[library], compiled=compiled)
        answers, statistics = dp.run_many(
            case.net, LIBRARIES[library], case.targets, compiled=compiled
        )
        assert [_answer(point) for point in answers] == [
            _answer(plain.best_for_delay(target)) for target in case.targets
        ]
        assert statistics.num_candidates == plain.statistics.num_candidates
        assert statistics.library_size == plain.statistics.library_size


BOUNDED_CASES = [("g20", 15.0), ("g30", 30.0), ("nonint40", 1e-9)]


@pytest.mark.parametrize(
    "library, width_tolerance", BOUNDED_CASES, ids=_case_ids(BOUNDED_CASES)
)
def test_bounded_fused_equals_bounded_staged(cases, library, width_tolerance):
    """The bounds fall inside a width bucket.  A mask that split the bucket
    would let the fused core's branch reduction drop a state that the
    staged core keeps; these configurations catch that."""
    pruning = PruningConfig(width_tolerance=width_tolerance)
    fused = PowerAwareDp(NODE_180NM, pruning=pruning, core="fused")
    staged = PowerAwareDp(NODE_180NM, pruning=pruning, core="staged")
    quantum = width_quantum(width_tolerance)
    for case in cases:
        compiled = CompiledNet(case.net, case.candidates)
        plain = fused.run(case.net, LIBRARIES[library], compiled=compiled)
        answer_width = plain.best_for_delay(min(case.targets)).total_width
        for fraction in (0.5, 1.0):
            bound = fraction * answer_width + 0.37 * width_tolerance
            fast = fused.run(
                case.net, LIBRARIES[library], compiled=compiled, width_bound=bound
            )
            slow = staged.run(
                case.net, LIBRARIES[library], compiled=compiled, width_bound=bound
            )
            assert _frontier_signature(fast) == _frontier_signature(slow)
            assert _statistics_signature(fast) == _statistics_signature(slow)
            # The bound dropped states, and no point lies in a width bucket
            # above the bound's.
            assert fast.statistics.states_generated < plain.statistics.states_generated
            assert all(
                np.rint(point.total_width / quantum) <= np.rint(bound / quantum)
                for point in fast.frontier.points
            )


def test_bound_below_every_state_empties_a_level(cases):
    case = cases[0]
    compiled = CompiledNet(case.net, case.candidates)
    results = [
        PowerAwareDp(NODE_180NM, core=core).run(
            case.net, LIBRARIES["g20"], compiled=compiled, width_bound=-1.0
        )
        for core in ("fused", "staged")
    ]
    for result in results:
        assert result.frontier.is_empty()
        assert result.best_for_delay(max(case.targets)) is None
        assert result.statistics.max_front_size == 1
    assert _statistics_signature(results[0]) == _statistics_signature(results[1])


def test_incumbent_then_bounded_run(cases, plain_mode, monkeypatch):
    calls = _record_runs(monkeypatch)
    case = cases[0]
    PowerAwareDp(NODE_180NM).run_many(
        case.net,
        LIBRARIES["g10"],
        case.targets,
        compiled=CompiledNet(case.net, case.candidates),
    )
    assert [size for size, _ in calls] == [10, 40]
    assert calls[0][1] is None and calls[1][1] is not None


def test_short_library_runs_plain(cases, plain_mode, monkeypatch):
    """A stride of four leaves fewer than four widths of <= 12."""
    calls = _record_runs(monkeypatch)
    case = cases[0]
    library = RepeaterLibrary.uniform(10.0, 120.0, 10.0)
    assert len(library.widths) == 12
    PowerAwareDp(NODE_180NM).run_many(
        case.net, library, case.targets, compiled=CompiledNet(case.net, case.candidates)
    )
    assert calls == [(12, None)]


def test_incumbent_missing_the_tightest_target_runs_plain(cases, plain_mode, monkeypatch):
    calls = _record_runs(monkeypatch)
    case = cases[0]
    answers, _ = PowerAwareDp(NODE_180NM).run_many(
        case.net,
        LIBRARIES["g10"],
        (1e-15, max(case.targets)),
        compiled=CompiledNet(case.net, case.candidates),
    )
    assert calls == [(10, None), (40, None)]
    assert answers[0] is None and answers[1] is not None


def test_bounded_answer_wider_than_incumbent_runs_plain(cases, plain_mode, monkeypatch):
    """At width tolerance 15 the pruning loses the incumbent's own solution
    on this net, so the bounded answer is wider than ``W_ub``."""
    calls = _record_runs(monkeypatch)
    case = cases[0]
    dp = PowerAwareDp(NODE_180NM, pruning=PruningConfig(width_tolerance=15.0))
    compiled = CompiledNet(case.net, case.candidates)
    answers, statistics = dp.run_many(
        case.net, LIBRARIES["nonint40"], case.targets, compiled=compiled
    )
    assert [(size, bound is None) for size, bound in calls] == [
        (10, True),
        (40, False),
        (40, True),
    ]
    calls.clear()
    plain = dp.run(case.net, LIBRARIES["nonint40"], compiled=compiled)
    assert [_answer(point) for point in answers] == [
        _answer(plain.best_for_delay(target)) for target in case.targets
    ]
    # The summed statistics count all three passes.
    assert statistics.states_generated > plain.statistics.states_generated


def test_sanitizer_replays_a_bounded_answer(cases, monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    case = cases[0]
    compiled = CompiledNet(case.net, case.candidates)
    checked = []
    real_check = sanitize.check_same_answers

    def spy(where, answers, replay):
        checked.append(where)
        real_check(where, answers, replay)

    monkeypatch.setattr(sanitize, "check_same_answers", spy)
    before = sanitize.statistics()
    dp = PowerAwareDp(NODE_180NM)
    answers, _ = dp.run_many(case.net, LIBRARIES["g10"], case.targets, compiled=compiled)
    delta = sanitize.statistics().since(before)
    assert checked and delta.checks_run > 0 and delta.violations == 0

    monkeypatch.delenv(sanitize.ENV_VAR)
    assert dp.run_many(case.net, LIBRARIES["g10"], case.targets, compiled=compiled)[0] == answers


def test_sanitizer_catches_a_wrong_bounded_answer(cases, monkeypatch):
    """A bounded pass that silently ran the sub-library must be caught."""
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    real = PowerAwareDp.run

    def coarsened(self, net, library, *args, width_bound=None, **kwargs):
        if width_bound is not None:
            library = RepeaterLibrary.from_widths(library.widths[::4])
        return real(self, net, library, *args, **kwargs)

    monkeypatch.setattr(PowerAwareDp, "run", coarsened)
    case = cases[0]
    with pytest.raises(SanitizeError) as excinfo:
        PowerAwareDp(NODE_180NM).run_many(
            case.net,
            LIBRARIES["g10"],
            case.targets,
            compiled=CompiledNet(case.net, case.candidates),
        )
    assert excinfo.value.rule == "baseline-bound"
    assert "run_many" in excinfo.value.where


def test_run_many_requires_targets(cases):
    case = cases[0]
    with pytest.raises(ValueError):
        PowerAwareDp(NODE_180NM).run_many(case.net, LIBRARIES["g10"], ())
