"""Correctness tooling for the engine: static lints + runtime sanitizer.

Two layers, both machine-checking conventions that used to live only in
review comments and docstrings:

* :mod:`repro.analysis.linter` — an AST lint engine with a pluggable rule
  registry (:mod:`repro.analysis.rules`) enforcing the repo's invariants:
  fingerprint completeness, hot-kernel allocation discipline, cache-key
  hygiene, determinism, pool-crossing exceptions and the fault-site
  registry.  Exposed as the ``repro lint`` / ``rip lint`` CLI subcommand.
* :mod:`repro.analysis.sanitize` — a ``REPRO_SANITIZE=1`` runtime mode that
  instruments kernel boundaries with read-only checks (post-prune dominance
  replay, NaN/inf guards, scratch view overlap) that raise
  :class:`~repro.analysis.sanitize.SanitizeError` diagnostics.
"""

from typing import Any

_LAZY = {
    "LintViolation": "repro.analysis.linter",
    "Linter": "repro.analysis.linter",
    "lint_paths": "repro.analysis.linter",
    "SanitizeError": "repro.analysis.sanitize",
    "SanitizerStatistics": "repro.analysis.sanitize",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, name)
