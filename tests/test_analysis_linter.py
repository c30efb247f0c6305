"""Tests for the repro.analysis AST linter (ISSUE 7).

Every rule (R1-R4, R6, R7) is exercised against a positive (violating)
and negative (clean) snippet under ``tests/lint_fixtures/``; the positive
fixtures mark each expected hit with a trailing ``# expect: <rule-id>``
comment, and the test asserts the linter reports exactly that ``(rule,
line)`` set — no misses, no extras.  The suite also locks down the engine
mechanics (pragma suppression, rule selection, output formats, parse-error
reporting, the R1 activation gate) and the satellite-1 guarantee that
``src/repro`` itself lints clean.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.linter import (
    Linter,
    available_rules,
    format_github,
    format_text,
    lint_paths,
)
from repro.cli.main import main as cli_main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_EXPECT = re.compile(r"#\s*expect:\s*([a-z0-9\-]+)")

RULE_IDS = frozenset(
    {
        "fingerprint-completeness",
        "hot-alloc",
        "cache-key-hygiene",
        "determinism",
        "pool-exception-reduce",
        "fault-site-registered",
    }
)

STEMS = sorted(path.name[: -len("_bad.py")] for path in FIXTURES.glob("*_bad.py"))


def _expected_markers(path: Path):
    markers = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            markers.add((match.group(1), lineno))
    return markers


def test_registry_is_complete():
    assert set(available_rules()) == RULE_IDS


def test_every_rule_has_a_fixture_pair():
    covered = set()
    for stem in STEMS:
        assert (FIXTURES / f"{stem}_good.py").exists(), stem
        covered |= {rule for rule, _ in _expected_markers(FIXTURES / f"{stem}_bad.py")}
    assert covered == RULE_IDS


@pytest.mark.parametrize("stem", STEMS)
def test_positive_fixture_fires_exactly_at_markers(stem):
    bad = FIXTURES / f"{stem}_bad.py"
    expected = _expected_markers(bad)
    assert expected, f"{bad.name} declares no # expect markers"
    got = {(v.rule, v.line) for v in lint_paths([bad])}
    assert got == expected


@pytest.mark.parametrize("stem", STEMS)
def test_negative_fixture_is_clean(stem):
    good = FIXTURES / f"{stem}_good.py"
    assert lint_paths([good]) == []


def test_source_tree_lints_clean():
    violations = lint_paths([REPO_SRC])
    assert violations == [], format_text(violations)


# --------------------------------------------------------------------------- #
# Engine mechanics


def test_pragma_suppresses_named_rule(tmp_path):
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "# hot\n"
        "def kernel(front):\n"
        "    return np.empty(len(front))  # repro-lint: disable=hot-alloc\n"
    )
    path = tmp_path / "pragma_case.py"
    path.write_text(source)
    assert lint_paths([path]) == []
    path.write_text(source.replace("  # repro-lint: disable=hot-alloc", ""))
    assert [v.rule for v in lint_paths([path])] == ["hot-alloc"]


def test_pragma_disable_all(tmp_path):
    path = tmp_path / "pragma_all.py"
    path.write_text(
        "import random  # repro-lint: disable=all\n"
    )
    assert lint_paths([path]) == []


def test_rule_selection_restricts_output():
    bad = FIXTURES / "determinism_bad.py"
    assert lint_paths([bad], rules=["hot-alloc"]) == []
    assert {v.rule for v in lint_paths([bad], rules=["determinism"])} == {
        "determinism"
    }


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown lint rules: no-such-rule"):
        Linter(["no-such-rule"])


def test_parse_error_is_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def incomplete(:\n")
    violations = lint_paths([path])
    assert [v.rule for v in violations] == ["parse"]


def test_fingerprint_rule_inactive_without_dp_context_builder(tmp_path):
    # The same uncovered knob as the positive fixture, but the run contains
    # no dp_context_fingerprint builder: R1 must stay silent rather than
    # flag knobs against builders it cannot see.
    path = tmp_path / "lone_config.py"
    path.write_text(
        "class ToyDpConfig:\n"
        "    evaluator: str = 'walked'\n"
    )
    assert lint_paths([path]) == []


_REGISTRY_SNIPPET = (
    "SITES = {\n"
    "    'design.case': 'per-net design task',\n"
    "    'wincache.disk-read': 'disk tier read',\n"
    "}\n"
)


def test_fault_site_unknown_site_needs_registry_in_run(tmp_path):
    # A literal-but-unregistered site is only flaggable when the run
    # contains the faults.py SITES registry (mirrors the R1 gate).
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from repro.analysis import faults\n"
        "\n"
        "\n"
        "def go():\n"
        "    faults.maybe_inject('design.caes')\n"  # typo'd site
    )
    assert lint_paths([caller], rules=["fault-site-registered"]) == []
    registry = tmp_path / "faults.py"
    registry.write_text(_REGISTRY_SNIPPET)
    violations = lint_paths([caller, registry], rules=["fault-site-registered"])
    assert {(v.rule, Path(v.path).name) for v in violations} == {
        ("fault-site-registered", "caller.py"),
        # 'wincache.disk-read' is registered but never called in this run.
        ("fault-site-registered", "faults.py"),
    }
    assert any("unregistered fault site 'design.caes'" in v.message for v in violations)
    assert any("never passed to maybe_inject" in v.message for v in violations)


def test_fault_site_exercised_registry_is_clean(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from repro.analysis import faults\n"
        "\n"
        "\n"
        "def go(path):\n"
        "    faults.maybe_inject('design.case')\n"
        "    return faults.maybe_corrupt('wincache.disk-read', path.read_text())\n"
    )
    registry = tmp_path / "faults.py"
    registry.write_text(_REGISTRY_SNIPPET)
    assert lint_paths([caller, registry], rules=["fault-site-registered"]) == []


def test_violations_sorted_and_rendered():
    violations = lint_paths([FIXTURES / "determinism_bad.py"])
    assert violations == sorted(
        violations, key=lambda v: (v.path, v.line, v.rule)
    )
    rendered = format_text(violations)
    assert "[determinism]" in rendered
    assert rendered.endswith(f"{len(violations)} violations found")
    assert format_text([]) == "no violations found"


def test_github_format_annotations():
    violations = lint_paths([FIXTURES / "hot_alloc_bad.py"])
    lines = format_github(violations).splitlines()
    assert len(lines) == len(violations)
    for violation, line in zip(violations, lines):
        assert line.startswith(
            f"::error file={violation.path},line={violation.line},"
            f"title=repro-lint({violation.rule})::"
        )


# --------------------------------------------------------------------------- #
# CLI surface


def test_cli_lint_clean_tree_exits_zero(capsys):
    assert cli_main(["lint", str(REPO_SRC)]) == 0
    assert "no violations found" in capsys.readouterr().out


def test_cli_lint_violations_exit_one(capsys):
    assert cli_main(["lint", str(FIXTURES / "hot_alloc_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "[hot-alloc]" in out
    assert "violations found" in out


def test_cli_lint_github_format(capsys):
    assert (
        cli_main(
            ["lint", str(FIXTURES / "hot_alloc_bad.py"), "--format=github"]
        )
        == 1
    )
    assert "::error file=" in capsys.readouterr().out


def test_cli_lint_rule_selection_and_unknown_rule(capsys):
    assert (
        cli_main(
            ["lint", str(FIXTURES / "determinism_bad.py"), "--rules=hot-alloc"]
        )
        == 0
    )
    capsys.readouterr()
    assert cli_main(["lint", str(FIXTURES), "--rules=bogus"]) == 2
    assert "unknown lint rules" in capsys.readouterr().err


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
