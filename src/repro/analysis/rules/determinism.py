"""R4 — determinism (``determinism``).

Results must be a pure function of (net, technology, config, seed): the
record-identity gates in CI (``records_identical``) and the memo /
persistent-cache layers all assume a rerun reproduces bit-identical
records.  Outside :mod:`repro.utils.rng` (the one sanctioned entropy
source) this rule bans:

* ``import random`` / ``from random import ...`` — the global Mersenne
  Twister is ambient process state;
* global ``np.random.*`` entropy calls (``default_rng``, ``seed``,
  ``rand``, ...) — type references such as ``np.random.Generator`` in
  annotations stay allowed;
* ``time.time``/``time.time_ns`` — wall-clock values leaking into results
  (``perf_counter`` for measurement stays allowed);
* ordering-sensitive iteration over ``set`` values (``for x in {...}``,
  comprehensions over ``set(...)``, ``list(set(...))``) — set order varies
  with hash salting; wrap in ``sorted(...)`` instead.  Order-insensitive
  uses (``len(set(...))``, membership) are fine.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.linter import LintModule, LintViolation, Rule, register

_EXEMPT_BASENAME = "rng.py"
_NUMPY_ALIASES = frozenset({"np", "numpy"})

#: np.random attributes that draw from or reseed the *global* stream (or
#: construct generators ad hoc); type names (Generator, SeedSequence, ...)
#: are deliberately absent.
_NP_RANDOM_ENTROPY = frozenset(
    {
        "default_rng",
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
    }
)
_TIME_BANNED = frozenset({"time", "time_ns"})


def _set_expr(node: Optional[ast.AST]) -> bool:
    """Whether ``node`` evaluates to a set with no deterministic order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return False


@register
class DeterminismRule(Rule):
    id = "determinism"
    title = "no ambient entropy or set-ordering dependence"

    def check(self, module: LintModule) -> Iterable[LintViolation]:
        if module.name == _EXEMPT_BASENAME:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            module,
                            node,
                            "the global 'random' module is ambient process "
                            "state; use utils/rng.make_rng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        module,
                        node,
                        "the global 'random' module is ambient process "
                        "state; use utils/rng.make_rng instead",
                    )
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_BANNED:
                            yield self.violation(
                                module,
                                node,
                                "wall-clock time.time leaks into results; "
                                "use time.perf_counter for measurement",
                            )
            elif isinstance(node, ast.Attribute):
                value = node.value
                if (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in _NUMPY_ALIASES
                    and node.attr in _NP_RANDOM_ENTROPY
                ):
                    yield self.violation(
                        module,
                        node,
                        f"np.random.{node.attr} draws ambient entropy; "
                        "thread a Generator from utils/rng.make_rng instead",
                    )
                elif (
                    isinstance(value, ast.Name)
                    and value.id == "time"
                    and node.attr in _TIME_BANNED
                ):
                    yield self.violation(
                        module,
                        node,
                        f"wall-clock time.{node.attr} leaks into results; "
                        "use time.perf_counter for measurement",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _set_expr(node.iter):
                    yield self.violation(
                        module,
                        node.iter,
                        "iterating a set is ordering-sensitive under hash "
                        "salting; wrap it in sorted(...)",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if _set_expr(generator.iter):
                        yield self.violation(
                            module,
                            generator.iter,
                            "iterating a set is ordering-sensitive under "
                            "hash salting; wrap it in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1
                    and _set_expr(node.args[0])
                ):
                    yield self.violation(
                        module,
                        node,
                        f"{node.func.id}(set(...)) materializes an unordered "
                        "set; use sorted(set(...)) instead",
                    )
