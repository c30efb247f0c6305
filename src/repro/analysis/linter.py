"""AST lint engine enforcing the repo's hand-written invariants.

The engine is deliberately small: a :class:`LintModule` wraps one parsed
source file (tree + raw lines, so rules can see comments such as ``# hot``
markers), a :class:`Rule` contributes violations per module (with an
optional cross-module ``begin_run`` pass — rule R1 needs to see every
``*_fingerprint`` builder in the run before judging any config class), and
the :class:`Linter` drives discovery, pragma filtering and ordering.

Rules register themselves via :func:`register`; importing
:mod:`repro.analysis.rules` loads the built-in set (R1–R4, R6, R7).

Escape hatch: a trailing ``# repro-lint: disable=<rule>[,<rule>...]``
comment on the offending line suppresses those rules there (``disable=all``
suppresses everything on the line).  Use it to bless deliberate exceptions —
e.g. survivor-bookkeeping allocations in hot kernels whose size is only
known after pruning.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Type, Union

__all__ = [
    "LintViolation",
    "LintModule",
    "Rule",
    "Linter",
    "register",
    "available_rules",
    "iter_python_files",
    "lint_paths",
    "format_text",
    "format_github",
]

_PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class LintViolation:
    """One rule firing at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class LintModule:
    """One parsed source file: AST plus raw lines (rules need comments)."""

    def __init__(self, path: Union[str, Path], source: str) -> None:
        self.path = str(path)
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=self.path)

    @classmethod
    def parse(cls, path: Union[str, Path]) -> "LintModule":
        return cls(path, Path(path).read_text(encoding="utf-8"))

    @property
    def name(self) -> str:
        """Module basename, e.g. ``canonical.py`` — used for rule exemptions."""
        return Path(self.path).name

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def disabled_rules(self, line: int) -> FrozenSet[str]:
        """Rule ids suppressed at ``line`` by an inline pragma."""
        match = _PRAGMA.search(self.line_text(line))
        if not match:
            return frozenset()
        return frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``title`` and implement :meth:`check`; rules that
    need cross-module context (R1) collect it in :meth:`begin_run`, which
    sees every module of the run before any :meth:`check` call.
    """

    id: str = ""
    title: str = ""

    def begin_run(self, modules: Sequence[LintModule]) -> None:  # noqa: B027
        pass

    def check(self, module: LintModule) -> Iterable[LintViolation]:
        raise NotImplementedError

    def violation(
        self, module: LintModule, node: Union[ast.AST, int], message: str
    ) -> LintViolation:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return LintViolation(
            rule=self.id, path=module.path, line=line, message=message
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def available_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, loading the built-in set on first use."""
    import repro.analysis.rules  # noqa: F401  (registers the built-in rules)

    return dict(sorted(_REGISTRY.items()))


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    seen = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.extend(sorted(path.rglob("*.py")))
        else:
            seen.append(path)
    unique: List[Path] = []
    known = set()
    for path in seen:
        spelled = str(path)
        if spelled not in known:
            known.add(spelled)
            unique.append(path)
    return iter(unique)


class Linter:
    """Run a set of rules over a set of files."""

    def __init__(self, rules: Optional[Sequence[str]] = None) -> None:
        registry = available_rules()
        if rules is None:
            selected = list(registry)
        else:
            unknown = sorted(set(rules) - set(registry))
            if unknown:
                raise ValueError(
                    f"unknown lint rules: {', '.join(unknown)} "
                    f"(available: {', '.join(registry)})"
                )
            selected = [rule_id for rule_id in registry if rule_id in set(rules)]
        self.rules: List[Rule] = [registry[rule_id]() for rule_id in selected]

    def run(self, paths: Sequence[Union[str, Path]]) -> List[LintViolation]:
        modules: List[LintModule] = []
        violations: List[LintViolation] = []
        for path in iter_python_files(paths):
            try:
                modules.append(LintModule.parse(path))
            except SyntaxError as error:
                violations.append(
                    LintViolation(
                        rule="parse",
                        path=str(path),
                        line=error.lineno or 1,
                        message=f"could not parse file: {error.msg}",
                    )
                )
        for rule in self.rules:
            rule.begin_run(modules)
        for rule in self.rules:
            for module in modules:
                for violation in rule.check(module):
                    disabled = module.disabled_rules(violation.line)
                    if rule.id in disabled or "all" in disabled:
                        continue
                    violations.append(violation)
        violations.sort(key=lambda v: (v.path, v.line, v.rule))
        return violations


def lint_paths(
    paths: Sequence[Union[str, Path]], rules: Optional[Sequence[str]] = None
) -> List[LintViolation]:
    """Convenience wrapper: lint ``paths`` with ``rules`` (default: all)."""
    return Linter(rules).run(paths)


def format_text(violations: Sequence[LintViolation]) -> str:
    lines = [violation.render() for violation in violations]
    lines.append(
        f"{len(violations)} violation{'s' if len(violations) != 1 else ''} found"
        if violations
        else "no violations found"
    )
    return "\n".join(lines)


def format_github(violations: Sequence[LintViolation]) -> str:
    """GitHub Actions workflow-command annotations (one ``::error`` per hit)."""
    return "\n".join(
        "::error file={path},line={line},title=repro-lint({rule})::{message}".format(
            path=violation.path,
            line=violation.line,
            rule=violation.rule,
            message=violation.message.replace("\n", " "),
        )
        for violation in violations
    )
