"""R1 — fingerprint completeness (``fingerprint-completeness``).

Every numerics-affecting knob on a config dataclass must join the dp-context
fingerprint: a knob that changes which kernel/evaluator/core computes a
result but not the cache key would let two numerically different runs share
cache entries.  A field whose name matches the knob set (``kernel``,
``evaluator``, ``core``, ``analytical``, ``strategy``) on a
``*Config``/``*Spec`` class must be
referenced — by any of its aliases, or via a ``dataclasses.fields(<obj>)``
sweep of the whole class — inside some ``*_fingerprint`` builder.

The rule is cross-module: coverage is collected from every ``*_fingerprint``
function in the linted file set, and the rule only activates when the
dp-context builder itself (``dp_context_fingerprint``) is part of the run —
linting a lone config module must not fire on builders it cannot see.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Sequence, Set

from repro.analysis.linter import LintModule, LintViolation, Rule, register

#: Alias groups: a field named like any member is covered if *any* member of
#: its group is referenced by a fingerprint builder.
KNOB_GROUPS = [
    frozenset({"kernel"}),
    frozenset({"strategy"}),
    frozenset({"evaluator"}),
    frozenset({"core"}),
    frozenset({"analytical"}),
]

_CAMEL = re.compile(r"(?<!^)(?=[A-Z])")


def _sweep_key(class_name: str) -> str:
    """``RefineConfig`` -> ``refine``: the variable name a
    ``dataclasses.fields(<var>)`` sweep of the class is expected to use."""
    stem = class_name
    for suffix in ("Config", "Spec"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return _CAMEL.sub("_", stem).lower()


def _function_tokens(function: ast.AST) -> Set[str]:
    """Identifiers, attribute names, parameter names and string constants
    referenced inside ``function`` (docstring excluded)."""
    tokens: Set[str] = set()
    body = list(getattr(function, "body", []))
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    nodes: List[ast.AST] = [function.args] if hasattr(function, "args") else []
    nodes.extend(body)
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                tokens.add(node.id)
            elif isinstance(node, ast.Attribute):
                tokens.add(node.attr)
            elif isinstance(node, ast.arg):
                tokens.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg:
                tokens.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                tokens.add(node.value)
    return tokens


def _swept_names(function: ast.AST) -> Set[str]:
    """Variable names ``x`` appearing as ``dataclasses.fields(x)``/``fields(x)``."""
    swept: Set[str] = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        if name == "fields" and isinstance(node.args[0], ast.Name):
            swept.add(node.args[0].id)
    return swept


@register
class FingerprintCompletenessRule(Rule):
    id = "fingerprint-completeness"
    title = "numerics knobs must join the dp-context fingerprint"

    def __init__(self) -> None:
        self._active = False
        self._referenced: Set[str] = set()
        self._swept: Set[str] = set()

    def begin_run(self, modules: Sequence[LintModule]) -> None:
        self._active = False
        self._referenced = set()
        self._swept = set()
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or not node.name.endswith("_fingerprint"):
                    continue
                if node.name == "dp_context_fingerprint":
                    self._active = True
                self._referenced |= _function_tokens(node)
                self._swept |= _swept_names(node)

    def check(self, module: LintModule) -> Iterable[LintViolation]:
        if not self._active:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(("Config", "Spec")):
                continue
            class_swept = _sweep_key(node.name) in self._swept
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign) or not isinstance(
                    statement.target, ast.Name
                ):
                    continue
                field_name = statement.target.id
                group = next(
                    (g for g in KNOB_GROUPS if field_name in g), None
                )
                if group is None:
                    continue
                if class_swept or (group & self._referenced):
                    continue
                yield self.violation(
                    module,
                    statement,
                    f"field {field_name!r} of {node.name} is a numerics knob "
                    "but is not referenced by any *_fingerprint builder "
                    "(add it to dp_context_fingerprint or sweep the class "
                    "with dataclasses.fields)",
                )
