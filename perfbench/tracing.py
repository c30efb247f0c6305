"""Span tracing from outside the program.

The traced run wraps the public entry points of each layer (a method on a
class, or a module-level function) with a recorder.  A span is ``(name,
start, end, parent, attrs)``; ``parent`` is the index of the enclosing
span on the same thread, so a span's layer context is the chain of its
ancestors.  Spans stay in memory and are written out once, as JSON lines,
when the run ends.  Nothing under ``src/`` knows it is being traced.

``attrs`` carries counts read where the work happens: a hook may snapshot
state before the call and read the result (or a counter delta) after it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Hook signatures: ``before(args) -> token`` and
#: ``after(args, result, token) -> attrs``.
Before = Callable[[tuple], Any]
After = Callable[[tuple, Any, Any], Dict[str, float]]


class Tracer:
    """In-memory span recorder with reversible wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a recording wrapper."""
        original = owner.__dict__[attribute]
        function = original.__func__ if isinstance(original, staticmethod) else original
        spans = self.spans
        stack_of = self._stack

        def recorder(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            token = before(args) if before is not None else None
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                span[4] = after(args, result, token)
            return result

        recorder.__wrapped__ = function
        replacement = staticmethod(recorder) if isinstance(original, staticmethod) else recorder
        setattr(owner, attribute, replacement)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def mark(self) -> int:
        """Index of the next span, to slice spans recorded after this point."""
        return len(self.spans)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, attrs in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs})
                    + "\n"
                )


def load_spans(path: Path) -> List[list]:
    """Read spans written by :meth:`Tracer.dump`."""
    spans = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            spans.append([entry["name"], entry["start"], entry["end"], entry["parent"], entry["attrs"]])
    return spans


# --------------------------------------------------------------------------- #
# the program's layer entry points
# --------------------------------------------------------------------------- #
def _cache_lookup(method: str) -> After:
    """Counter deltas of one window-cache lookup.

    A frontier lookup that misses runs its factory, whose ``compiled``
    lookup is a child span; the delta then holds the child's counts too, so
    ``hit`` is decided from this method's own table only and the report
    subtracts children's evictions.
    """

    def after(args: tuple, result: Any, before: Any) -> Dict[str, float]:
        delta = args[0].statistics.since(before)
        own_hits = {
            "final_dp_result": delta.frontier_hits + delta.disk_hits,
            "tree_solutions": delta.frontier_hits + delta.disk_hits,
            "compiled": delta.compiled_hits,
            "window_candidates": delta.candidate_hits,
        }[method]
        return {
            "hit": 1 if own_hits else 0,
            "frontier_hits": delta.frontier_hits,
            "disk_hits": delta.disk_hits,
            "evictions": delta.evictions + delta.disk_evictions,
        }

    return after


def _store_delta(args: tuple, result: Any, before: Any) -> Dict[str, float]:
    delta = args[0].statistics.since(before)
    return {"builds": delta.builds, "disk_hits": delta.disk_hits}


def install_setup_wrappers(tracer: Tracer) -> None:
    """Wrap the layers that build a workload's inputs."""
    from repro.dp.vanginneken import DelayOptimalDp
    from repro.engine.cache import ProtocolStore

    statistics_before = lambda args: args[0].statistics  # noqa: E731
    tracer.wrap(ProtocolStore, "cases", "store", statistics_before, _store_delta)
    tracer.wrap(DelayOptimalDp, "minimum_delay", "tau_min")


def install_program_wrappers(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap the public entry point of every traced layer of the program."""
    from repro.analytical import width_solver
    from repro.core.refine import Refine, RefineRecordStore
    from repro.core.rip import Rip
    from repro.dp.powerdp import PowerAwareDp
    from repro.engine.design import DesignEngine
    from repro.engine.supervisor import SweepJournal
    from repro.engine.wincache import WindowCompilationCache
    from repro.tree.buffering import TreePowerDp

    install_setup_wrappers(tracer)
    statistics_before = lambda args: args[0].statistics  # noqa: E731
    tracer.wrap(
        DesignEngine,
        "design_population",
        "engine",
        # The service matches each request to the call that carries its case.
        before=(lambda args: [id(case) for case in args[1]]) if service else None,
        after=lambda args, result, cases: {
            "failed": len(result.failures()),
            "nets": len(result.nets),
            **({"cases": cases} if service else {}),
        },
    )
    tracer.wrap(Rip, "prepare", "rip.prepare")
    tracer.wrap(
        Rip,
        "run_prepared_batch",
        "rip.targets",
        after=lambda args, result, _: {
            "records": len(result),
            "fallbacks": sum(1 for outcome in result if outcome.fallback_used),
        },
    )
    tracer.wrap(Refine, "run", "refine")
    tracer.wrap(
        width_solver.DualBisectionWidthSolver,
        "solve",
        "width_solver",
        after=lambda args, result, _: {"iterations": result.iterations},
    )
    tracer.wrap(width_solver, "solve_evaluation", "evaluator")
    tracer.wrap(
        PowerAwareDp,
        "run",
        "powerdp",
        after=lambda args, result, _: {
            "states": result.statistics.states_generated,
            "max_front": result.statistics.max_front_size,
        },
    )
    tracer.wrap(
        TreePowerDp,
        "run_many",
        "tree",
        after=lambda args, result, _: {
            "states": result[0].statistics.states_generated if result and result[0].statistics else 0
        },
    )
    for method in ("final_dp_result", "compiled", "window_candidates", "tree_solutions"):
        tracer.wrap(
            WindowCompilationCache, method, f"wincache.{method}", statistics_before, _cache_lookup(method)
        )
    tracer.wrap(
        RefineRecordStore,
        "load",
        "refine_store.load",
        after=lambda args, result, _: {"records": result},
    )
    tracer.wrap(RefineRecordStore, "save", "refine_store.save")
    tracer.wrap(SweepJournal, "record", "journal.record")
    if service:
        from repro.service.batcher import MicroBatcher

        tracer.wrap(
            MicroBatcher,
            "submit",
            "serve.submit",
            after=lambda args, result, _: {"case": id(args[1].case), "digest": args[1].digest},
        )
