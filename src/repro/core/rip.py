"""Algorithm RIP (Fig. 6 of the paper): the hybrid repeater-insertion flow.

RIP combines the discrete DP engine with the analytical REFINE solver:

1. **Coarse DP** — run the power-aware DP with a small, coarse repeater
   library (80u..400u in steps of 80u) and coarse candidate locations
   (200 µm pitch) to get a cheap but structurally sensible initial solution.
2. **REFINE** — improve that solution analytically: continuous widths via the
   KKT system, repeater moves via the location derivatives.
3. **Design-specific library and locations** — round the refined widths to a
   fine grid (10u) to form a *concise* library ``B``, and take a small window
   of fine-pitch (50 µm) positions around every refined location as the
   candidate set ``S``.
4. **Final DP** — run the power-aware DP again with ``B`` and ``S`` to obtain
   the final discrete solution.

Because ``B`` and ``S`` are tiny compared to the fine-grained library a
conventional DP would need for the same quality, the final pass is fast; the
quality comes from the analytical step having already located the optimum's
neighbourhood.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.evaluate import SolutionMetrics, evaluate_solution
from repro.core.refine import (
    ContinuationStatistics,
    Refine,
    RefineConfig,
    RefineMemo,
    RefineResult,
)
from repro.core.solution import InsertionSolution
from repro.dp.candidates import merge_candidates, uniform_candidates, window_candidates
from repro.dp.powerdp import PowerAwareDp, PowerDpResult
from repro.dp.pruning import PruningConfig
from repro.engine.wincache import (
    WindowCompilationCache,
    dp_context_fingerprint,
    net_fingerprint,
    resolve_window_cache,
)
from repro.net.twopin import TwoPinNet
from repro.tech.library import RepeaterLibrary
from repro.tech.technology import Technology
from repro.utils.validation import require, require_positive


def refine_context_fingerprint(technology: Technology, refine: RefineConfig) -> str:
    """Fingerprint of everything a REFINE result depends on besides the
    ``(net, timing target, initial solution)`` triple: the technology
    constants and the full REFINE configuration (every knob that could
    steer a REFINE result joins the key, so differently configured runs
    never share disk records)."""
    import dataclasses

    from repro.engine.cache import technology_fingerprint  # heavy module; defer
    from repro.utils.canonical import stable_digest

    return stable_digest(
        {
            "technology": technology_fingerprint(technology),
            "refine": {
                field.name: getattr(refine, field.name)
                for field in dataclasses.fields(refine)
            },
        }
    )


class InfeasibleNetError(RuntimeError):
    """Raised when a DP pass produces no solution at all for a net.

    This happens only for degenerate inputs — e.g. a net whose forbidden
    zones leave no legal candidate position *and* whose unbuffered wire is
    not a valid design for the engine configuration in use.  Raising a
    dedicated error (instead of an ``IndexError`` deep inside the frontier)
    lets batch harnesses report the offending net cleanly.
    """

    def __init__(self, net_name: str, stage: str) -> None:
        super().__init__(
            f"net {net_name!r}: the {stage} produced an empty frontier "
            "(no legal repeater assignment at all); check the net's "
            "forbidden zones and candidate locations"
        )
        self.net_name = net_name
        self.stage = stage

    def __reduce__(self):
        # The default exception reduction replays ``args`` — here the single
        # formatted message — into ``__init__(net_name, stage)``, so the
        # error died with a TypeError on its way back through a
        # ``ProcessPoolExecutor``.  Reconstruct from both real arguments.
        return (self.__class__, (self.net_name, self.stage))


@dataclass(frozen=True)
class RipConfig:
    """Configuration of the hybrid RIP flow (defaults follow Section 6).

    Attributes
    ----------
    coarse_library:
        Library of the first DP pass; the paper uses 5 widths, 80u..400u.
    coarse_pitch:
        Candidate-location pitch of the first DP pass, meters (paper: 200 µm).
    fine_granularity:
        Width grid (units of ``u``) the refined widths are rounded to when
        building the design-specific library ``B`` (paper: 10u).
    library_neighbor_steps:
        How many additional grid steps above and below each rounded width to
        include in ``B``.  The paper's description rounds only to the nearest
        grid width; with the small nets of this reproduction a single rounded
        width per repeater regularly lands just past the timing target (the
        rounding error is not averaged over many repeaters), so the default
        keeps one neighbouring width on each side.  Set to 0 for the literal
        paper behaviour (the ablation benchmark compares both).
    location_window:
        Number of extra candidate positions kept on each side of every
        refined location (paper: 10).
    location_pitch:
        Pitch of those extra positions, meters (paper: 50 µm).
    refine:
        Configuration of the embedded REFINE algorithm.  Byte-identical
        repeated REFINE queries are answered from the exact-hit
        :class:`~repro.core.refine.RefineMemo` outright.
    pruning:
        Dominance-pruning configuration of both DP passes.
    enable_fallback:
        When the final DP cannot meet the timing target with ``B``/``S``
        (rare, caused by rounding), merge the coarse library and coarse
        candidates back in and re-run once.
    """

    coarse_library: RepeaterLibrary = field(default_factory=RepeaterLibrary.paper_coarse)
    coarse_pitch: float = 200.0e-6
    fine_granularity: float = 10.0
    library_neighbor_steps: int = 1
    location_window: int = 10
    location_pitch: float = 50.0e-6
    refine: RefineConfig = field(default_factory=RefineConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    enable_fallback: bool = True

    def __post_init__(self) -> None:
        require_positive(self.coarse_pitch, "coarse_pitch")
        require_positive(self.fine_granularity, "fine_granularity")
        require(self.library_neighbor_steps >= 0, "library_neighbor_steps must be >= 0")
        require(self.location_window >= 0, "location_window must be >= 0")
        require_positive(self.location_pitch, "location_pitch")


@dataclass(frozen=True)
class PreparedNet:
    """Target-independent part of a RIP run on one net.

    The coarse DP pass of RIP does not depend on the timing target, so when a
    net is designed for many targets (as in every experiment of the paper)
    the preparation can be shared.  ``preparation_seconds`` is added to the
    reported runtime of each subsequent :meth:`Rip.run_prepared` call so that
    runtime comparisons stay honest.
    """

    net: TwoPinNet
    coarse_result: PowerDpResult
    coarse_candidates: Tuple[float, ...]
    preparation_seconds: float


@dataclass(frozen=True)
class RipResult:
    """Outcome of the full RIP flow for one net and one timing target.

    Attributes
    ----------
    solution:
        The final discrete repeater assignment.
    metrics:
        Delay/power evaluation of that assignment against the timing target.
    coarse_solution:
        The initial solution produced by the coarse DP pass.
    refined:
        The result of the analytical REFINE step.
    final_library:
        The design-specific library ``B`` used by the final DP pass.
    final_candidates:
        The design-specific candidate locations ``S`` of the final DP pass.
    feasible:
        ``True`` when the final solution meets the timing target.
    fallback_used:
        ``True`` when the coarse library/locations had to be merged back in
        because the concise ``B``/``S`` alone could not meet the target.
    runtime_seconds:
        Wall-clock time of the whole flow, including the coarse DP pass.
    states_generated:
        DP states generated by this call's final (and fallback) DP passes —
        the coarse pass is shared via :class:`PreparedNet` and accounted
        there (``prepared.coarse_result.statistics``).  When the window
        cache serves a memoized frontier, this reports the memoized run's
        count (the states this design *logically* required, not the work
        performed by this call) — by design, so that sweep records are
        bit-identical with the cache on or off; use
        ``window_cache.statistics`` to observe actual cache work.
    """

    solution: InsertionSolution
    metrics: SolutionMetrics
    coarse_solution: InsertionSolution
    refined: RefineResult
    final_library: RepeaterLibrary
    final_candidates: Tuple[float, ...]
    feasible: bool
    fallback_used: bool
    runtime_seconds: float
    states_generated: int = 0

    @property
    def total_width(self) -> float:
        """Total repeater width of the final solution."""
        return self.solution.total_width

    @property
    def delay(self) -> float:
        """Elmore delay of the final solution, seconds."""
        return self.metrics.delay


class Rip:
    """The hybrid analytical + dynamic-programming repeater inserter.

    ``window_cache`` controls the shared window-compilation cache of the
    final DP pass (step 4): ``None``/``True`` give this inserter a private
    :class:`~repro.engine.wincache.WindowCompilationCache` (so repeated
    targets on the same net reuse candidate grids and compiled wire
    intervals), an explicit cache instance is shared as given (the batch
    engine passes its engine-, tenant- or worker-lifetime cache to every
    net task), and ``False`` disables caching.  Results are bit-for-bit
    identical with the cache on or off — keys use exact float equality,
    never quantization.

    REFINE runs go through the exact-hit
    :class:`~repro.core.refine.RefineMemo` of the window cache
    (``window_cache.refine_memo``), so a short-lived inserter built per
    task still answers a repeated ``(net, target, coarse solution)`` query
    from the records of earlier tasks on the same cache.  Without a window
    cache the inserter keeps a private memo.

    ``dp`` and ``width_solver`` inject the oracles for whole-flow
    equivalence runs: a :class:`~repro.dp.powerdp.PowerAwareDp` for both DP
    passes (default: the fused core with ``config.pruning``) and the width
    solver of REFINE (default: the compiled
    :class:`~repro.analytical.width_solver.DualBisectionWidthSolver`).
    Cache keys do not tell an oracle from production, so oracle runs pass
    ``window_cache=False``.
    """

    def __init__(
        self,
        technology: Technology,
        config: Optional[RipConfig] = None,
        *,
        window_cache: "Optional[WindowCompilationCache] | bool" = None,
        dp: Optional[PowerAwareDp] = None,
        width_solver: Optional[object] = None,
    ) -> None:
        self._technology = technology
        self._config = config or RipConfig()
        self._dp = dp or PowerAwareDp(technology, pruning=self._config.pruning)
        self._refine = Refine(technology, width_solver, config=self._config.refine)
        self._window_cache = resolve_window_cache(window_cache)
        self._refine_memo = (
            self._window_cache.refine_memo
            if self._window_cache is not None
            else RefineMemo()
        )
        # Scopes this inserter's memo entries when the memo is shared
        # across differently-configured inserters.
        self._refine_context = refine_context_fingerprint(
            technology, self._config.refine
        )
        # Everything a final-pass frontier depends on besides (net, library,
        # candidates); scopes cache entries when the cache is shared across
        # differently-configured inserters.
        self._dp_context = (
            dp_context_fingerprint(technology, self._config.pruning)
            if self._window_cache is not None
            else ""
        )

    @property
    def technology(self) -> Technology:
        """Technology the inserter designs for."""
        return self._technology

    @property
    def config(self) -> RipConfig:
        """The RIP configuration in use."""
        return self._config

    @property
    def window_cache(self) -> Optional[WindowCompilationCache]:
        """The final-pass compilation cache (``None`` when disabled)."""
        return self._window_cache

    @property
    def continuation_statistics(self) -> ContinuationStatistics:
        """Counters of the REFINE memo this inserter answers from — shared
        with every inserter on the same window cache."""
        return self._refine_memo.statistics

    def reset_continuations(self) -> None:
        """Drop all records of this inserter's REFINE memo (counters included)."""
        self._refine_memo.clear()

    # ------------------------------------------------------------------ #
    def prepare(self, net: TwoPinNet) -> PreparedNet:
        """Run the target-independent coarse DP pass for ``net``.

        The coarse frontier is drawn from (and recorded in) the window
        cache's frontier layer when one is attached — its key space
        ``(net, dp context, library, candidates)`` covers the coarse pass
        exactly like the final one, so repeated preparations (and, with a
        disk-backed cache, process restarts) skip the coarse DP outright.
        """
        started = time.perf_counter()
        candidates = uniform_candidates(net, self._config.coarse_pitch)
        cache = self._window_cache
        if cache is not None:
            coarse = cache.final_dp_result(
                net,
                self._dp_context,
                self._config.coarse_library.widths,
                candidates,
                lambda: self._dp.run(net, self._config.coarse_library, candidates),
            )
        else:
            coarse = self._dp.run(net, self._config.coarse_library, candidates)
        return PreparedNet(
            net=net,
            coarse_result=coarse,
            coarse_candidates=tuple(candidates),
            preparation_seconds=time.perf_counter() - started,
        )

    def run(self, net: TwoPinNet, timing_target: float) -> RipResult:
        """Run the full RIP flow on ``net`` for ``timing_target``."""
        return self.run_prepared(self.prepare(net), timing_target)

    def run_prepared(self, prepared: PreparedNet, timing_target: float) -> RipResult:
        """Run RIP for one timing target, reusing a prepared coarse DP pass."""
        require_positive(timing_target, "timing_target")
        started = time.perf_counter()
        net = prepared.net
        config = self._config

        # ---- step 1: initial solution from the coarse DP ---------------- #
        coarse_point = prepared.coarse_result.best_for_delay(timing_target)
        if coarse_point is None:
            # The coarse library cannot meet the target; start REFINE from
            # the fastest coarse design instead (REFINE re-sizes widths
            # continuously, so it can usually still reach the target).
            if prepared.coarse_result.frontier.is_empty():
                raise InfeasibleNetError(net.name, "coarse DP pass")
            coarse_point = prepared.coarse_result.frontier.points[0]
        coarse_solution = InsertionSolution.from_dp(coarse_point.solution)

        # ---- step 2: analytical refinement ------------------------------ #
        refined = self._refined_solution(net, coarse_solution, timing_target)

        # ---- step 3: design-specific library and candidate locations ---- #
        cache = self._window_cache
        final_library = self._build_library(refined.solution.widths)
        build_window = (
            cache.window_candidates if cache is not None else window_candidates
        )
        final_candidates: Sequence[float] = tuple(
            build_window(
                net,
                refined.solution.positions,
                window=config.location_window,
                pitch=config.location_pitch,
            )
        )

        # ---- step 4: final DP pass --------------------------------------- #
        final_result = self._run_final_dp(net, final_library, final_candidates)
        best = final_result.best_for_delay(timing_target)
        states_generated = final_result.statistics.states_generated

        fallback_used = False
        if best is None and config.enable_fallback:
            fallback_used = True
            merged_library = final_library.merged_with(config.coarse_library.widths)
            merged_candidates = merge_candidates(
                list(final_candidates) + list(prepared.coarse_candidates)
            )
            final_library = merged_library
            final_candidates = merged_candidates
            final_result = self._run_final_dp(net, merged_library, merged_candidates)
            best = final_result.best_for_delay(timing_target)
            states_generated += final_result.statistics.states_generated

        if best is None:
            # Timing cannot be met; report the fastest design found.
            if final_result.frontier.is_empty():
                raise InfeasibleNetError(net.name, "final DP pass")
            best = final_result.frontier.points[0]

        solution = InsertionSolution.from_dp(best.solution)
        metrics = evaluate_solution(
            net, self._technology, solution, timing_target=timing_target
        )
        runtime = (time.perf_counter() - started) + prepared.preparation_seconds
        return RipResult(
            solution=solution,
            metrics=metrics,
            coarse_solution=coarse_solution,
            refined=refined,
            final_library=final_library,
            final_candidates=tuple(final_candidates),
            feasible=bool(metrics.meets_timing),
            fallback_used=fallback_used,
            runtime_seconds=runtime,
            states_generated=states_generated,
        )

    def run_prepared_batch(
        self, prepared: PreparedNet, timing_targets: Sequence[float]
    ) -> List[RipResult]:
        """Run RIP for many timing targets of one prepared net, in order."""
        return [self.run_prepared(prepared, target) for target in timing_targets]

    # ------------------------------------------------------------------ #
    def _refined_solution(
        self,
        net: TwoPinNet,
        coarse_solution: InsertionSolution,
        timing_target: float,
    ) -> RefineResult:
        """Run REFINE through the exact-hit memo.

        A byte-identical repeated query ``(net, target, coarse solution)``
        is answered from the memo's record verbatim (idempotent repeats);
        otherwise REFINE runs and the new result is recorded.
        """
        return self._refine_memo.result(
            self._refine_context,
            net_fingerprint(net),
            timing_target,
            coarse_solution,
            lambda: self._refine.run(net, coarse_solution, timing_target),
        )

    # ------------------------------------------------------------------ #
    def _run_final_dp(
        self,
        net: TwoPinNet,
        library: RepeaterLibrary,
        candidates: Sequence[float],
    ) -> PowerDpResult:
        """One final-pass DP run, drawing frontier and compilation from the cache.

        On a frontier hit the whole DP run is skipped (the frontier is a
        deterministic function of the key); on a miss the compilation is
        still shared via the compiled-net layer.  ``CompiledNet`` legalises
        and merges the candidates exactly like the uncached
        ``PowerAwareDp.run`` path, so both paths are bit-identical.
        """
        cache = self._window_cache
        if cache is not None:
            return cache.final_dp_result(
                net,
                self._dp_context,
                library.widths,
                candidates,
                lambda: self._dp.run(
                    net, library, compiled=cache.compiled(net, candidates)
                ),
            )
        return self._dp.run(net, library, candidates)

    def _build_library(self, refined_widths: Sequence[float]) -> RepeaterLibrary:
        """Round the refined widths to the fine grid to form the library ``B``."""
        config = self._config
        granularity = config.fine_granularity
        widths: List[float] = []
        source = refined_widths if refined_widths else [config.coarse_library.min_width]
        for width in source:
            steps = max(1, round(width / granularity))
            widths.append(steps * granularity)
            for neighbor in range(1, config.library_neighbor_steps + 1):
                widths.append((steps + neighbor) * granularity)
                if steps - neighbor >= 1:
                    widths.append((steps - neighbor) * granularity)
        return RepeaterLibrary.from_widths(widths)
