"""The output gate: every design a run produces is checked before it counts.

A design operation fails the gate when

* its net failed inside the engine (``NetDesignResult.failed``);
* a feasible record's delay exceeds its target;
* its records (runtime excluded) differ from the reference the run holds
  for the same input: the first design of that input in the run (the
  sweep-cold measured pass, checked again by its spot check; the
  sweep-warm fill pass), or a serial ``design_population`` of the request
  the service answered.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Fields of ``DesignRecord`` that are outputs; ``runtime_seconds`` is not.
_IGNORED = ("runtime_seconds",)

Records = Tuple[Tuple[Tuple[str, Any], ...], ...]


def canonical(records: Iterable[Any]) -> Records:
    """Records as comparable tuples, dropping the runtime field.

    Accepts ``DesignRecord`` objects or their ``asdict`` form (the service
    sends the latter over the wire).
    """
    rows = []
    for record in records:
        fields = record if isinstance(record, Mapping) else asdict(record)
        rows.append(tuple(sorted((k, v) for k, v in fields.items() if k not in _IGNORED)))
    return tuple(rows)


def timing_violations(records: Iterable[Any]) -> int:
    """Feasible records whose reported delay exceeds their target."""
    count = 0
    for record in records:
        fields = record if isinstance(record, Mapping) else asdict(record)
        if fields["feasible"] and not fields["delay"] <= fields["target"]:
            count += 1
    return count


class Gate:
    """Counts attempted and failed design operations over one run.

    ``check`` judges one operation (one net designed by one method, or one
    served request) against a reference keyed by ``key``: the first time a
    key is seen its records become the reference, unless ``reference``
    supplies one.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        self._references: Dict[Any, Records] = {}

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(
        self,
        key: Any,
        records: Sequence[Any],
        *,
        engine_failed: bool = False,
        reference: Optional[Records] = None,
    ) -> bool:
        """Judge one operation; returns ``True`` when it passes."""
        self.attempted += 1
        if engine_failed:
            self._fail("engine failure")
            return False
        if timing_violations(records):
            self._fail("feasible record misses its target")
            return False
        rows = canonical(records)
        expected = reference if reference is not None else self._references.setdefault(key, rows)
        if rows != expected:
            self._fail("records differ from the reference")
            return False
        return True

    def refuse(self, reason: str) -> None:
        """Count an operation that produced no output at all."""
        self.attempted += 1
        self._fail(reason)

    def summary(self) -> List[str]:
        """Printable lines describing the failures."""
        return [f"gate: {count} x {reason}" for reason, count in sorted(self.reasons.items())]
