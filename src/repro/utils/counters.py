"""One ``since``/``merged`` for the frozen counter snapshots.

The window cache, the protocol store and the sanitizer hand out their
counters as frozen dataclass snapshots.  ``later.since(earlier)`` is what
happened between two snapshots of one source; ``a.merged(b)`` combines
deltas of disjoint sources (the tasks of a sweep, the stores of an engine).
Counters subtract in ``since`` and add in ``merged``.  A field declared with
:func:`gauge` holds a level, not a count: ``since`` keeps the later
snapshot's value and ``merged`` takes the maximum.
"""

from __future__ import annotations

import operator
from dataclasses import field, fields
from typing import Any, Callable, TypeVar

Snapshot = TypeVar("Snapshot", bound="Counters")
_Op = Callable[[int, int], int]


def gauge() -> Any:
    """A snapshot field (default 0) that holds a level rather than a count."""
    return field(default=0, metadata={"gauge": True})


class Counters:
    """Base of a frozen dataclass whose fields are counters or gauges."""

    def _combine(self: Snapshot, other: Snapshot, counter: _Op, level: _Op) -> Snapshot:
        return type(self)(
            **{
                item.name: (level if item.metadata.get("gauge") else counter)(
                    getattr(self, item.name), getattr(other, item.name)
                )
                for item in fields(self)
            }
        )

    def since(self: Snapshot, earlier: Snapshot) -> Snapshot:
        """Deltas relative to an earlier snapshot of the same source."""
        return self._combine(earlier, operator.sub, lambda later, _: later)

    def merged(self: Snapshot, other: Snapshot) -> Snapshot:
        """Two snapshots (or deltas) of disjoint sources combined."""
        return self._combine(other, operator.add, max)
