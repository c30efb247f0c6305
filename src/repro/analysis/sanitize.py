"""``REPRO_SANITIZE=1`` — runtime sanitizer for the DP engine's hot paths.

With the environment variable set, the DP drivers
(:class:`~repro.dp.powerdp.PowerAwareDp`,
:class:`~repro.dp.vanginneken.DelayOptimalDp`,
:class:`~repro.tree.buffering.TreePowerDp`) call into this module at every
kernel boundary (both cores of the two-pin DPs, the fused tree core).
All checks are **read-only** — sanitize mode is bit-transparent: it never changes a
record, only raises :class:`SanitizeError` when an engine invariant is
broken.

Checks
------
* ``dominance`` — replay the pruning over the surviving level front with
  zero tolerances and assert nothing further is pruned.  Two-pin fronts
  replay the vectorized kernels of :mod:`repro.engine.kernels` (the
  staged oracle core's pruning); tree fronts replay the plain-Python
  :func:`repro.utils.pareto.prune_pareto_3d` of the tree oracle core.
  Zero-tolerance replay is implied by the kernels' exclusive-min
  semantics for every tolerance configuration, so a violation always
  means a genuinely dominated state escaped pruning.
* ``nan-guard`` — NaN/inf screening of kernel inputs/outputs (caps, delays,
  widths of every level front and the final delays).
* ``scratch-overlap`` — the (caps, delays, widths) views a fused kernel
  returns must live in distinct scratch buffers; aliasing would corrupt the
  next level's expansion in place.

Counters (checks run / violations raised) are process-global and exposed as
:class:`SanitizerStatistics` with the shared ``since``/``merged`` snapshot
algebra of :mod:`repro.utils.counters`, so per-net deltas survive the worker pool
and aggregate onto :class:`~repro.engine.design.EngineStatistics`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.counters import Counters

__all__ = [
    "ENV_VAR",
    "enabled",
    "SanitizeError",
    "SanitizerStatistics",
    "statistics",
    "reset_statistics",
    "check_finite",
    "check_front_dominance",
    "check_front_dominance_2d",
    "check_scratch_views",
    "check_power_level",
    "check_level_2d",
    "check_tree_front_dominance",
    "check_tree_level",
]

ENV_VAR = "REPRO_SANITIZE"


def enabled() -> bool:
    """Whether sanitize mode is on (re-read per call; tests toggle it)."""
    return os.environ.get(ENV_VAR, "") == "1"


class SanitizeError(AssertionError):
    """An engine invariant violated at a kernel boundary.

    Carries the rule name and location so fault-injection tests (and CI
    logs) can tell *which* check fired *where*.  Defines ``__reduce__``
    because sanitizer violations raised inside pool workers must cross the
    pickle channel intact (lint rule R6).
    """

    def __init__(self, rule: str, where: str, detail: str) -> None:
        self.rule = rule
        self.where = where
        self.detail = detail
        super().__init__(f"[sanitize:{rule}] {where}: {detail}")

    def __reduce__(self):
        return (SanitizeError, (self.rule, self.where, self.detail))


@dataclass(frozen=True)
class SanitizerStatistics(Counters):
    """Monotone sanitizer counters (both fields count since process start)."""

    checks_run: int = 0
    violations: int = 0


_checks_run = 0
_violations = 0


def statistics() -> SanitizerStatistics:
    """Snapshot of the process-global counters."""
    return SanitizerStatistics(checks_run=_checks_run, violations=_violations)


def reset_statistics() -> None:
    """Zero the counters (test isolation)."""
    global _checks_run, _violations
    _checks_run = 0
    _violations = 0


def _count(checks: int = 1) -> None:
    global _checks_run
    _checks_run += checks


def _fail(rule: str, where: str, detail: str) -> None:
    global _violations
    _violations += 1
    raise SanitizeError(rule, where, detail)


# --------------------------------------------------------------------- #
# Numeric checks


def check_finite(where: str, **arrays: Optional[np.ndarray]) -> None:
    """NaN/inf guard over named kernel arrays."""
    for name, array in arrays.items():
        if array is None:
            continue
        _count()
        values = np.asarray(array)
        if values.size and not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values.ravel()))[0])
            _fail(
                "nan-guard",
                where,
                f"array {name!r} contains a non-finite value at flat index "
                f"{bad} ({values.ravel()[bad]!r})",
            )


def check_front_dominance(
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    strategy: str,
    width_tolerance: float,
    where: str,
) -> None:
    """Replay the 3-D pruning kernels at zero tolerance over a surviving
    front; any additional pruning means a dominated state escaped.

    The replay uses the original ``width_tolerance`` as the bucket quantum
    (bucket membership must match the producing kernel) but zero delay/width
    *dominance* tolerances, which every legitimately pruned front satisfies
    regardless of its original tolerances: survivor ``j`` was kept only if
    its delay beat the running bucket minimum by more than the (non-negative)
    tolerance, which implies it beats the minimum outright.
    """
    from repro.engine.kernels import bucket_prune, cross_bucket_prune

    count = len(caps)
    if count <= 1:
        _count()
        return
    _count()
    kept = bucket_prune(
        caps, delays, widths, delay_tolerance=0.0, width_tolerance=width_tolerance
    )
    if len(kept) != count:
        dropped = sorted(set(range(count)) - set(int(k) for k in kept))
        _fail(
            "dominance",
            where,
            f"front of {count} states contains {count - len(kept)} "
            f"bucket-dominated state(s) (e.g. index {dropped[0]}: "
            f"C={caps[dropped[0]]!r}, D={delays[dropped[0]]!r}, "
            f"W={widths[dropped[0]]!r})",
        )
    if strategy == "full":
        _count()
        sub = cross_bucket_prune(
            caps, delays, widths, delay_tolerance=0.0, width_tolerance=0.0
        )
        if len(sub) != count:
            dropped = sorted(set(range(count)) - set(int(k) for k in sub))
            _fail(
                "dominance",
                where,
                f"front of {count} states contains {count - len(sub)} "
                f"cross-bucket-dominated state(s) (e.g. index {dropped[0]})",
            )


def check_tree_front_dominance(
    caps: np.ndarray, delays: np.ndarray, widths: np.ndarray, *, where: str
) -> None:
    """Replay the tree DP's prune rule over a surviving front.

    Tree fronts are pruned with :func:`repro.utils.pareto.prune_pareto_3d`
    at *zero* tolerance and exact float widths — the quantized-bucket replay
    of :func:`check_front_dominance` would falsely flag states whose widths
    fall into one bucket without dominating each other, so the oracle itself
    is replayed instead.  Hard-capped fronts pass too: capping keeps a
    subset of a mutually non-dominating front.
    """
    from repro.utils.pareto import prune_pareto_3d

    count = len(caps)
    if count <= 1:
        _count()
        return
    _count()
    points = [
        (float(caps[i]), float(delays[i]), float(widths[i]), i)
        for i in range(count)
    ]
    kept = prune_pareto_3d(points)
    if len(kept) != count:
        dropped = sorted(set(range(count)) - set(point[3] for point in kept))
        _fail(
            "dominance",
            where,
            f"tree front of {count} states contains {count - len(kept)} "
            f"dominated state(s) (e.g. index {dropped[0]}: "
            f"C={caps[dropped[0]]!r}, D={delays[dropped[0]]!r}, "
            f"W={widths[dropped[0]]!r})",
        )


def check_front_dominance_2d(
    caps: np.ndarray, delays: np.ndarray, *, where: str
) -> None:
    """2-D ``(C, D)`` Pareto replay at zero tolerance (delay-optimal DP)."""
    from repro.engine.kernels import pareto_two_dimensional

    count = len(caps)
    if count <= 1:
        _count()
        return
    _count()
    kept = pareto_two_dimensional(caps, delays, delay_tolerance=0.0)
    if len(kept) != count:
        dropped = sorted(set(range(count)) - set(int(k) for k in kept))
        _fail(
            "dominance",
            where,
            f"front of {count} states contains {count - len(kept)} "
            f"dominated state(s) (e.g. index {dropped[0]}: "
            f"C={caps[dropped[0]]!r}, D={delays[dropped[0]]!r})",
        )


def check_scratch_views(where: str, **arrays: Optional[np.ndarray]) -> None:
    """Assert the named kernel-output views do not alias each other."""
    named = [
        (name, array) for name, array in arrays.items() if array is not None
    ]
    for index, (name_a, array_a) in enumerate(named):
        for name_b, array_b in named[index + 1 :]:
            _count()
            if (
                array_a.size
                and array_b.size
                and np.shares_memory(array_a, array_b)
            ):
                _fail(
                    "scratch-overlap",
                    where,
                    f"kernel output views {name_a!r} and {name_b!r} share "
                    "memory; the next level's in-place expansion would "
                    "corrupt one through the other",
                )


# --------------------------------------------------------------------- #
# Composite per-level hooks (what the DP drivers call)


def check_power_level(
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    strategy: str,
    width_tolerance: float,
    level: int,
    where: str,
) -> None:
    """Full post-prune screen of one power-DP level front."""
    site = f"{where} level {level}"
    check_finite(site, caps=caps, delays=delays, widths=widths)
    check_scratch_views(site, caps=caps, delays=delays, widths=widths)
    check_front_dominance(
        caps,
        delays,
        widths,
        strategy=strategy,
        width_tolerance=width_tolerance,
        where=site,
    )


def check_tree_level(
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    where: str,
) -> None:
    """Full post-prune screen of one tree-DP front (site, merge or node)."""
    check_finite(where, caps=caps, delays=delays, widths=widths)
    check_scratch_views(where, caps=caps, delays=delays, widths=widths)
    check_tree_front_dominance(caps, delays, widths, where=where)


def check_level_2d(
    caps: np.ndarray,
    delays: np.ndarray,
    *,
    level: int,
    where: str,
) -> None:
    """Full post-prune screen of one delay-optimal level front."""
    site = f"{where} level {level}"
    check_finite(site, caps=caps, delays=delays)
    check_scratch_views(site, caps=caps, delays=delays)
    check_front_dominance_2d(caps, delays, where=site)
