"""Vectorized dominance-pruning kernels for the DP engines.

One pruning pass per candidate location is the DP hot path, so the Pareto
fronts are computed with numpy primitives only, never a per-state Python
loop:

* :func:`pareto_two_dimensional` — an exclusive running minimum
  (``np.minimum.accumulate`` shifted by one) over the cap-sorted states;
* :func:`bucket_prune` — the same scan *per width bucket*, using a
  logarithmic-doubling segmented scan so all buckets are processed in one
  pass with no per-bucket Python loop;
* :func:`cross_bucket_prune` — exact 3-D dominance on the bucket survivors
  via blocked pairwise comparison (survivor fronts are small, so the
  quadratic comparison is a handful of broadcast operations).

These three back the staged DP core (:mod:`repro.dp.pruning`), the oracle of
the fused core below, and the sanitizer's zero-tolerance replays.

Tolerance semantics
-------------------
The kernels compare each state against *all* earlier states in the sort
order, not only the previously kept ones.  The two rules coincide exactly
when the tolerances are zero (dominance is then transitive), which is where
``tests/test_engine_kernels.py`` checks the kept sets against the
plain-Python Pareto helpers of :mod:`repro.utils.pareto`.  Inside a
tolerance band they may differ: at delay tolerance 0.6, three states of
one bucket at ascending caps with delays ``(3, 2.5, 2)`` keep only the
first state here, while a kept-only rule would keep the first and the
last.  The fused core applies the all-earlier rule too.

The fused DP core
-----------------
The per-level kernels above still left the DP engines allocating five fresh
``count x branches`` arrays per level and copying states through three
intermediate fancy-indexing passes (expand -> bucket survivors -> cross
survivors -> next front).  :class:`DpScratch` plus :func:`fused_level` /
:func:`fused_level_2d` fuse the whole level — expand all
``(state x library-option)`` combinations, apply the compiled wire
interval, and dominance-prune — into one kernel call that operates on
preallocated, engine-lifetime scratch buffers (grown geometrically, reused
across levels, targets and nets within a worker process).  Every arithmetic
operation keeps the exact expression grouping of the staged path, so fused
frontiers are **bit-for-bit** identical to the per-level kernels of the
staged core; ``tests/test_fused_dp.py`` property-tests the equality.  The
scratch is per-process state and not thread-safe, like the in-memory cache
tiers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.analysis import faults

__all__ = [
    "DpScratch",
    "bucket_prune",
    "cross_bucket_prune",
    "fused_level",
    "fused_level_2d",
    "pareto_two_dimensional",
    "segmented_exclusive_min",
    "shared_scratch",
    "tree_merge_level",
    "tree_prune_front",
    "tree_site_level",
    "width_quantum",
    "within_width_bound",
]

_CROSS_BLOCK = 512

#: Chunk size of the fused cross-bucket pass (in-chunk work is quadratic,
#: cross-chunk work is one searchsorted per chunk — small chunks win).
_CROSS_CHUNK = 128


def segmented_exclusive_min(values: np.ndarray, group_start: np.ndarray) -> np.ndarray:
    """Exclusive running minimum of ``values`` within contiguous groups.

    ``group_start[i]`` is the index of the first row of the group row ``i``
    belongs to (groups are contiguous runs).  Entry ``i`` of the result is
    ``min(values[group_start[i] : i])`` and ``+inf`` for the first row of a
    group.  Implemented as a logarithmic-doubling segmented scan: O(n log n)
    work, all of it inside numpy ufuncs.
    """
    n = len(values)
    if n == 0:
        return np.empty(0)
    index = np.arange(n)
    # Shift by one: row i starts from its predecessor's value (or +inf at a
    # group boundary), turning the inclusive scan below into an exclusive one.
    result = np.empty(n)
    result[0] = np.inf
    result[1:] = values[:-1]
    result[index == group_start] = np.inf
    shift = 1
    while shift < n:
        reach = index - shift
        valid = reach >= group_start
        shifted = np.full(n, np.inf)
        shifted[valid] = result[reach[valid]]
        np.minimum(result, shifted, out=result)
        shift <<= 1
    return result


def pareto_two_dimensional(
    caps: np.ndarray, delays: np.ndarray, *, delay_tolerance: float
) -> np.ndarray:
    """Indices of the 2-D ``(C, D)`` Pareto front (vectorized).

    States are sorted by ``(cap, delay)``; a state survives iff its delay is
    at least ``delay_tolerance`` below every delay at smaller-or-equal cap.
    """
    if len(caps) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((delays, caps))
    delays_sorted = delays[order]
    exclusive = np.empty(len(order))
    exclusive[0] = np.inf
    np.minimum.accumulate(delays_sorted[:-1], out=exclusive[1:])
    return order[delays_sorted < exclusive - delay_tolerance]


def width_quantum(width_tolerance: float) -> float:
    """The width span of one pruning bucket: ``width_tolerance``, floored
    at ``1e-12`` so a zero tolerance still gives finite bucket keys.

    Every width-bucket key (``rint(width / quantum)``) of the staged and
    fused cores and of the width bound derives from this one quantum.
    """
    return max(width_tolerance, 1e-12)


def bucket_prune(
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    delay_tolerance: float,
    width_tolerance: float,
) -> np.ndarray:
    """Per-width-bucket 2-D pruning with no per-bucket Python loop.

    Widths are quantised to :func:`width_quantum` buckets, and inside every
    bucket the ``(C, D)`` Pareto scan of :func:`pareto_two_dimensional` is
    applied.  All buckets are scanned simultaneously with
    ``np.minimum.accumulate`` restarted at the group boundaries (segmented
    doubling scan).
    """
    n = len(caps)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    quantum = width_quantum(width_tolerance)
    keys = np.round(widths / quantum).astype(np.int64)
    order = np.lexsort((delays, caps, keys))
    keys_sorted = keys[order]
    delays_sorted = delays[order]

    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=is_start[1:])
    group_start = np.maximum.accumulate(np.where(is_start, np.arange(n), 0))

    exclusive = segmented_exclusive_min(delays_sorted, group_start)
    return order[delays_sorted < exclusive - delay_tolerance]


def cross_bucket_prune(
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    delay_tolerance: float,
    width_tolerance: float,
) -> np.ndarray:
    """Exact 3-D dominance pruning via blocked pairwise comparison.

    States are sorted by ``(cap, delay, width)`` so that any earlier state
    has cap no larger than a later one; state ``i`` is dropped iff some
    earlier state is also no worse in delay and width (within tolerances).
    The pairwise comparison runs in ``_CROSS_BLOCK``-column blocks to bound
    the broadcast matrices on very large fronts.
    """
    n = len(caps)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((widths, delays, caps))
    delays_sorted = delays[order]
    widths_sorted = widths[order]

    keep = np.ones(n, dtype=bool)
    row_index = np.arange(n)
    for start in range(1, n, _CROSS_BLOCK):
        end = min(start + _CROSS_BLOCK, n)
        block = slice(start, end)
        dominated = (
            (delays_sorted[:end, None] <= delays_sorted[None, block] + delay_tolerance)
            & (widths_sorted[:end, None] <= widths_sorted[None, block] + width_tolerance)
            & (row_index[:end, None] < row_index[None, block])
        ).any(axis=0)
        keep[block] = ~dominated
    return order[keep]


# --------------------------------------------------------------------------- #
# the fused expand-traverse-prune DP core
# --------------------------------------------------------------------------- #
class DpScratch:
    """Preallocated scratch arena of the fused DP kernels.

    One arena serves every DP run of a worker process: the buffers are sized
    to the largest expanded level seen so far and grown geometrically (never
    shrunk), so in steady state a DP level performs **no** large allocations
    beyond the unavoidable ``np.lexsort`` outputs and the per-level survivor
    bookkeeping that outlives the level.  All state lives in flat numpy
    buffers; the kernels view the leading ``m`` elements per call.

    Not thread-safe (like every in-memory cache tier); use one arena per
    thread, or the per-process :func:`shared_scratch`.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._capacity = 0
        self.grows = 0
        self._grow(max(int(capacity), 1))

    @property
    def capacity(self) -> int:
        """Current buffer capacity in expanded states."""
        return self._capacity

    def _grow(self, needed: int) -> None:
        capacity = max(self._capacity, 1)
        while capacity < needed:
            capacity <<= 1
        self._capacity = capacity
        self.grows += 1
        # Expanded-level state (count x branches rows).
        self.exp_caps = np.empty(capacity)
        self.exp_delays = np.empty(capacity)
        self.exp_widths = np.empty(capacity)
        # Surviving front (gathered back from the expanded buffers).
        self.front_caps = np.empty(capacity)
        self.front_delays = np.empty(capacity)
        self.front_widths = np.empty(capacity)
        # Pruning scratch: float work buffers, integer keys/groups, masks.
        self.f_a = np.empty(capacity)
        self.f_b = np.empty(capacity)
        self.f_c = np.empty(capacity)
        self.f_d = np.empty(capacity)
        self.f_e = np.empty(capacity)
        self.f_f = np.empty(capacity)
        self.keys = np.empty(capacity, dtype=np.int64)
        self.i_a = np.empty(capacity, dtype=np.int64)
        self.i_b = np.empty(capacity, dtype=np.int64)
        self.arange = np.arange(capacity, dtype=np.int64)
        self.mask = np.empty(capacity, dtype=bool)
        self.mask_b = np.empty(capacity, dtype=bool)
        # Pairwise scratch of the cross-bucket pass: flat buffers reshaped
        # per call to contiguous (b, b) matrices, plus per-size strict
        # upper-triangle masks encoding the ``i < j`` condition.
        self.pair_a = np.empty(_CROSS_CHUNK * _CROSS_CHUNK, dtype=bool)
        self.pair_b = np.empty(_CROSS_CHUNK * _CROSS_CHUNK, dtype=bool)
        self._upper_tri = {}

    def ensure(self, needed: int) -> None:
        """Grow the arena (geometrically) to hold ``needed`` expanded states."""
        if needed > self._capacity:
            self._grow(needed)

    def upper_tri(self, size: int) -> np.ndarray:
        """Cached strict upper-triangle mask (``mask[i, j] = i < j``)."""
        mask = self._upper_tri.get(size)
        if mask is None:
            mask = np.triu(np.ones((size, size), dtype=bool), k=1)
            self._upper_tri[size] = mask
        return mask


_SHARED_SCRATCH: Optional[DpScratch] = None


def shared_scratch() -> DpScratch:
    """The process-wide shared arena (one per worker; lazily created)."""
    global _SHARED_SCRATCH
    if _SHARED_SCRATCH is None:
        _SHARED_SCRATCH = DpScratch()
    return _SHARED_SCRATCH


# hot
def _traverse_in_place(
    scratch: DpScratch,
    interval,
    caps: np.ndarray,
    delays: np.ndarray,
) -> None:
    """Cross one compiled wire interval, mutating ``caps``/``delays``.

    Replays :meth:`CompiledNet.traverse`'s per-piece arithmetic with the
    same expression grouping, so in-place evaluation changes no bits.
    """
    count = len(caps)
    tmp = scratch.f_a[:count]
    piece_resistance = interval.piece_resistance
    piece_capacitance = interval.piece_capacitance
    piece_half = interval.piece_half_capacitance
    for piece in range(len(piece_resistance)):
        # delays += r * (half + caps); caps += c  (same grouping).
        np.add(caps, piece_half[piece], out=tmp)
        np.multiply(tmp, piece_resistance[piece], out=tmp)
        np.add(delays, tmp, out=delays)
        np.add(caps, piece_capacitance[piece], out=caps)


# hot
def _expand_level(
    scratch: DpScratch,
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    cap_lut: np.ndarray,
    ratio_lut: np.ndarray,
    width_lut: np.ndarray,
    intrinsic: float,
) -> int:
    """Expand ``(state x library-option)`` into the scratch buffers.

    Branch 0 leaves the location empty (a verbatim copy of the front);
    branch ``b >= 1`` inserts library repeater ``b - 1``.  The 2-D views
    below address branch ``b`` as row ``b`` of a ``(branches, count)``
    reshape of the flat expanded buffer — the exact layout the staged path
    writes with its per-branch slices.  Returns the expanded row count.
    """
    count = len(caps)
    branches = len(cap_lut) + 1
    m = count * branches
    scratch.ensure(m)

    exp_caps = scratch.exp_caps[:m].reshape(branches, count)
    exp_delays = scratch.exp_delays[:m].reshape(branches, count)
    exp_widths = scratch.exp_widths[:m].reshape(branches, count)

    exp_caps[0] = caps
    exp_delays[0] = delays
    exp_widths[0] = widths
    if branches > 1:
        # caps: Co * w_b per branch; delays: (intrinsic + (Rs / w_b) * caps)
        # + delays; widths: widths + w_b — all in the staged grouping.
        exp_caps[1:] = cap_lut[:, None]
        np.multiply(ratio_lut[:, None], caps[None, :], out=exp_delays[1:])
        np.add(exp_delays[1:], intrinsic, out=exp_delays[1:])
        np.add(exp_delays[1:], delays[None, :], out=exp_delays[1:])
        np.add(widths[None, :], width_lut[:, None], out=exp_widths[1:])
    return m


# hot
def _exclusive_min_scan(
    scratch: DpScratch,
    values_sorted: np.ndarray,
    group_start: np.ndarray,
    is_start: np.ndarray,
    m: int,
) -> np.ndarray:
    """Exclusive segmented running minimum over sorted rows, in place.

    Same contract as :func:`segmented_exclusive_min`, operating on the
    scratch buffers (``f_d`` result, ``f_e``/``i_a``/``mask_b`` work space)
    with the doubling scan stopped at the largest group size.  Shared by the
    fused bucket prune and the tree prune.
    """
    index = scratch.arange[:m]
    result = scratch.f_d[:m]
    result[0] = np.inf
    result[1:] = values_sorted[:-1]
    np.copyto(result, np.inf, where=is_start)
    offsets = scratch.i_a[:m]
    np.subtract(index, group_start, out=offsets)
    max_offset = int(offsets.max()) if m else 0
    shifted = scratch.f_e[:m]
    bound = offsets  # offsets no longer needed past the max above
    invalid = scratch.mask_b[:m]
    shift = 1
    while shift <= max_offset:
        shifted[:shift] = np.inf
        shifted[shift:] = result[: m - shift]
        np.add(group_start, shift, out=bound)
        np.less(index, bound, out=invalid)
        np.copyto(shifted, np.inf, where=invalid)
        np.minimum(result, shifted, out=result)
        shift <<= 1
    return result


# hot
def _fused_bucket_prune(
    scratch: DpScratch,
    m: int,
    *,
    delay_tolerance: float,
    width_tolerance: float,
) -> np.ndarray:
    """:func:`bucket_prune` over the expanded scratch buffers.

    Identical survivors in identical order; the segmented doubling scan
    runs in place and stops once the shift exceeds the largest bucket (all
    further passes are no-ops by construction).
    """
    caps = scratch.exp_caps[:m]
    delays = scratch.exp_delays[:m]
    widths = scratch.exp_widths[:m]

    quantum = width_quantum(width_tolerance)
    keys_f = scratch.f_b[:m]
    np.divide(widths, quantum, out=keys_f)
    np.rint(keys_f, out=keys_f)
    keys = scratch.keys[:m]
    keys[:] = keys_f  # cast-assign, same as .astype(np.int64)

    order = np.lexsort((delays, caps, keys))
    keys_sorted = scratch.i_a[:m]
    keys.take(order, out=keys_sorted)
    delays_sorted = scratch.f_c[:m]
    delays.take(order, out=delays_sorted)

    is_start = scratch.mask[:m]
    is_start[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=is_start[1:])
    index = scratch.arange[:m]
    group_start = scratch.i_b[:m]
    group_start[:] = 0
    np.copyto(group_start, index, where=is_start)
    np.maximum.accumulate(group_start, out=group_start)

    result = _exclusive_min_scan(scratch, delays_sorted, group_start, is_start, m)
    np.subtract(result, delay_tolerance, out=result)
    survive = scratch.mask[:m]
    np.less(delays_sorted, result, out=survive)
    return order[survive]


# hot
def _fused_cross_prune(
    scratch: DpScratch,
    survivors: np.ndarray,
    *,
    delay_tolerance: float,
    width_tolerance: float,
) -> np.ndarray:
    """:func:`cross_bucket_prune` on the bucket survivors (same output).

    State ``j`` is dominated iff some earlier state ``i`` (in ``(cap,
    delay, width)`` sort order) has ``delay_i <= delay_j + dtol`` and
    ``width_i <= width_j + wtol`` — equivalently, iff the *minimum width*
    among earlier states with small-enough delay is ``<= width_j + wtol``.
    Instead of the quadratic pairwise comparison, the states are processed
    in ``_CROSS_CHUNK``-sized chunks: completed chunks are merged into a
    delay-sorted *history* with running prefix-min widths, so each chunk
    answers the earlier-state minimum with one ``np.searchsorted`` + gather
    (exact float comparisons — identical verdicts), and only the strict
    upper triangle *inside* the chunk is compared pairwise.
    """
    n = len(survivors)
    caps = scratch.f_b[:n]
    delays = scratch.f_c[:n]
    widths = scratch.f_d[:n]
    scratch.exp_caps.take(survivors, out=caps)
    scratch.exp_delays.take(survivors, out=delays)
    scratch.exp_widths.take(survivors, out=widths)

    order = np.lexsort((widths, delays, caps))
    delays_sorted = scratch.f_e[:n]
    widths_sorted = scratch.f_f[:n]
    delays.take(order, out=delays_sorted)
    widths.take(order, out=widths_sorted)

    keep = scratch.mask[:n]
    delay_bound = scratch.f_b[:n]  # caps no longer needed past the sort
    width_bound = scratch.f_c[:n]
    np.add(delays_sorted, delay_tolerance, out=delay_bound)
    np.add(widths_sorted, width_tolerance, out=width_bound)
    _cross_prune_range(
        scratch, delays_sorted, widths_sorted, delay_bound, width_bound, keep
    )
    return order[keep]


def _cross_prune_range(
    scratch: DpScratch,
    delays_sorted: np.ndarray,
    widths_sorted: np.ndarray,
    delay_bound: np.ndarray,
    width_bound: np.ndarray,
    keep: np.ndarray,
) -> None:
    """Chunked-history cross prune of one level, into ``keep``.

    The rows must be in ``(cap, delay, width)`` sort order; the verdict of
    row ``i`` is written to ``keep[i]``.  :func:`_fused_cross_prune` runs it
    over the whole level.
    """
    n = len(keep)
    hist_delays = np.empty(0)
    hist_width_min = np.empty(0)
    for start in range(0, n, _CROSS_CHUNK):
        end = min(start + _CROSS_CHUNK, n)
        b = end - start
        dominated = scratch.mask_b[:b]
        # Inside the chunk: strict upper triangle (i < j) pairwise, on
        # contiguous (b, b) matrix views.
        tri = scratch.pair_a[: b * b].reshape(b, b)
        tri_w = scratch.pair_b[: b * b].reshape(b, b)
        np.less_equal(
            delays_sorted[start:end, None], delay_bound[None, start:end], out=tri
        )
        np.less_equal(
            widths_sorted[start:end, None], width_bound[None, start:end], out=tri_w
        )
        np.logical_and(tri, tri_w, out=tri)
        np.logical_and(tri, scratch.upper_tri(b), out=tri)
        np.logical_or.reduce(tri, axis=0, out=dominated)
        if len(hist_delays):
            # Earlier chunks: count history states with delay <= bound, and
            # compare the prefix-min width of that many smallest-delay
            # states (dominated iff it is <= the width bound; the minimum
            # realises the existential exactly).
            position = np.searchsorted(hist_delays, delay_bound[start:end], side="right")
            hit = np.nonzero(position > 0)[0]
            if len(hit):
                dominated[hit] |= (
                    hist_width_min[position[hit] - 1] <= width_bound[start + hit]
                )
        np.logical_not(dominated, out=keep[start:end])
        if end < n:
            # Merge the whole chunk — dominated states included, since the
            # pairwise rule lets them dominate later states too — into the
            # sorted history and refresh the prefix-min widths.
            hist_delays = np.concatenate((hist_delays, delays_sorted[start:end]))
            merge = np.argsort(hist_delays, kind="stable")
            hist_delays = hist_delays[merge]
            hist_width_min = np.concatenate((hist_width_min, widths_sorted[start:end]))[
                merge
            ]
            np.minimum.accumulate(hist_width_min, out=hist_width_min)


# hot
def _reduce_branches(
    scratch: DpScratch,
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    cap_lut: np.ndarray,
    ratio_lut: np.ndarray,
    width_lut: np.ndarray,
    intrinsic: float,
    width_tolerance: float,
) -> Optional[np.ndarray]:
    """Reduce the insert branches to one candidate per (branch, width bucket).

    All states of insert branch ``b`` share one cap (``Co * w_b``), so
    inside any width bucket only the branch state with the smallest
    ``(delay, flat index)`` can ever survive the bucket scan — every other
    branch-``b`` state in the bucket is preceded by it in the ``(key, cap,
    delay, index)`` sort order and blocked by its smaller-or-equal delay.
    Dropping the others is also safe on the *blocker* side: the kept state
    sorts earlier and blocks at least everything they blocked.  Survivors
    and their order are therefore exactly those of the full expansion.

    On success the reduced candidate rows are written to the scratch
    ``exp_*`` buffers (branch 0 verbatim first, then the selected insert
    rows in flat-index order, so positional sort tie-breaks match the full
    expansion) and the rows' original flat indices are returned; ``None``
    means the reduction would not pay off (nearly-distinct width buckets)
    and the caller should expand in full.
    """
    count = len(caps)
    branches = len(cap_lut) + 1
    if branches <= 1 or count <= 8:
        return None
    lc = (branches - 1) * count
    quantum = width_quantum(width_tolerance)

    order_by_width = np.argsort(widths, kind="stable")
    widths_by_width = scratch.f_b[:count]
    widths.take(order_by_width, out=widths_by_width)

    # Stage the per-branch width-bucket keys in width-sorted front order;
    # keys are monotone in the front width, so equal keys are contiguous.
    staged_widths = scratch.exp_caps[:lc].reshape(branches - 1, count)
    np.add(widths_by_width[None, :], width_lut[:, None], out=staged_widths)
    staged_keys_f = scratch.exp_widths[:lc].reshape(branches - 1, count)
    np.divide(staged_widths, quantum, out=staged_keys_f)
    np.rint(staged_keys_f, out=staged_keys_f)
    staged_keys = scratch.keys[:lc].reshape(branches - 1, count)
    staged_keys[:] = staged_keys_f

    is_start = scratch.mask[:lc].reshape(branches - 1, count)
    is_start[:, 0] = True
    np.not_equal(staged_keys[:, 1:], staged_keys[:, :-1], out=is_start[:, 1:])
    starts = np.nonzero(is_start.ravel())[0]
    reduced = count + len(starts)
    if reduced >= (count * branches) * 3 // 4:
        return None

    # Per-run argmin of (delay, front position): delays in width-sorted
    # order, run minima via reduceat, ties resolved to the smallest front
    # position (= smallest flat index within the branch).
    caps_by_width = scratch.f_c[:count]
    delays_by_width = scratch.f_d[:count]
    caps.take(order_by_width, out=caps_by_width)
    delays.take(order_by_width, out=delays_by_width)
    staged_delays = scratch.exp_delays[:lc].reshape(branches - 1, count)
    np.multiply(ratio_lut[:, None], caps_by_width[None, :], out=staged_delays)
    np.add(staged_delays, intrinsic, out=staged_delays)
    np.add(staged_delays, delays_by_width[None, :], out=staged_delays)

    run_min = np.minimum.reduceat(staged_delays.ravel(), starts)
    run_id = scratch.i_a[:lc]
    np.cumsum(is_start.ravel(), out=run_id)
    run_id -= 1
    run_min_spread = scratch.f_e[:lc]
    run_min.take(run_id, out=run_min_spread)
    tie = scratch.mask_b[:lc].reshape(branches - 1, count)
    np.equal(staged_delays.ravel(), run_min_spread, out=tie.ravel())
    candidate_pos = scratch.i_b[:lc].reshape(branches - 1, count)
    candidate_pos[:] = count  # sentinel above every real front position
    np.copyto(candidate_pos, order_by_width[None, :], where=tie)
    selected_pos = np.minimum.reduceat(candidate_pos.ravel(), starts)
    # Original flat index (branch-major expansion): insert branch b of the
    # staging is branch b + 1 of the full layout.
    selected_flat = (starts // count + 1) * count + selected_pos
    selected_flat.sort()

    branch_index = selected_flat // count - 1
    parent_pos = selected_flat % count
    selected_caps = cap_lut[branch_index]
    selected_delays = np.multiply(ratio_lut[branch_index], caps[parent_pos])
    np.add(selected_delays, intrinsic, out=selected_delays)
    np.add(selected_delays, delays[parent_pos], out=selected_delays)
    selected_widths = widths[parent_pos] + width_lut[branch_index]

    # Staging is dead; write the reduced candidate rows over it.
    scratch.exp_caps[:count] = caps
    scratch.exp_caps[count:reduced] = selected_caps
    scratch.exp_delays[:count] = delays
    scratch.exp_delays[count:reduced] = selected_delays
    scratch.exp_widths[:count] = widths
    scratch.exp_widths[count:reduced] = selected_widths
    flat = np.empty(reduced, dtype=np.int64)  # repro-lint: disable=hot-alloc
    flat[:count] = scratch.arange[:count]
    flat[count:] = selected_flat
    return flat


def within_width_bound(
    widths: np.ndarray, width_bound: float, width_tolerance: float
) -> np.ndarray:
    """Mask of the rows whose width bucket is at most ``width_bound``'s.

    The keys are the bucket prune's (``rint(width / quantum)``), so the
    mask keeps or drops whole buckets: a row wider than ``width_bound``
    survives only inside the bound's own bucket.  The staged core applies
    this mask as it stands; :func:`_drop_wider_buckets` replays it on
    scratch buffers.
    """
    quantum = width_quantum(width_tolerance)
    return np.rint(widths / quantum) <= np.rint(width_bound / quantum)


# hot
def _drop_wider_buckets(
    scratch: DpScratch,
    rows: int,
    flat: Optional[np.ndarray],
    width_bound: float,
    width_tolerance: float,
) -> Tuple[int, Optional[np.ndarray]]:
    """Compact the candidate rows to :func:`within_width_bound`'s mask.

    Works in place on the scratch ``exp_*`` buffers, in row order, so the
    positional sort tie-breaks of the prune that follows still follow the
    flat index.  Returns the new row count and the kept rows' flat indices
    (``flat`` unchanged when nothing is dropped; ``None`` stands for the
    identity of a full expansion).
    """
    quantum = width_quantum(width_tolerance)
    keys = scratch.f_a[:rows]
    np.divide(scratch.exp_widths[:rows], quantum, out=keys)
    np.rint(keys, out=keys)
    inside = scratch.mask[:rows]
    np.less_equal(keys, np.rint(width_bound / quantum), out=inside)
    kept = np.flatnonzero(inside)
    k = len(kept)
    if k == rows:
        return rows, flat
    staging = scratch.f_b[:k]
    for buffer in (scratch.exp_caps, scratch.exp_delays, scratch.exp_widths):
        buffer.take(kept, out=staging)
        buffer[:k] = staging
    return k, kept if flat is None else flat[kept]


# hot
def fused_level(
    scratch: DpScratch,
    interval,
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    cap_lut: np.ndarray,
    ratio_lut: np.ndarray,
    width_lut: np.ndarray,
    intrinsic: float,
    delay_tolerance: float,
    width_tolerance: float,
    width_bound: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """One fused power-aware DP level: traverse, expand, dominance-prune.

    ``caps``/``delays``/``widths`` are the current front (``delays`` and
    ``caps`` are mutated in place by the wire crossing; all three are
    consumed).  Returns ``(caps, delays, widths, keep, m, count)`` where the
    first three are views into the scratch front buffers (valid until the
    next kernel call on this scratch), ``keep`` are the surviving expanded
    row indices — in the *full* ``count x branches`` flat layout, in
    pruning order (``keep // count`` is the branch, ``keep % count`` the
    parent row — the caller derives its back-pointer and decision
    bookkeeping from them), and ``m`` the full expanded row count.

    Real fronts carry few distinct width buckets, so the level first tries
    :func:`_reduce_branches` and dominance-prunes the (much smaller)
    reduced candidate set; the fallback expands in full.  Both paths give
    bit-identical survivors in identical order — see the module docstring.

    With ``width_bound`` set, candidate rows in width buckets above the
    bound's are dropped before the prune (:func:`within_width_bound`).
    The mask drops whole buckets, and the branch reduction only ever
    merges rows of one bucket, so reducing before masking selects what
    masking the full expansion would: the staged core, which masks the
    full expansion, stays the bit-identical oracle.
    """
    # Fault-injection hook at the hot compiled-engine boundary every
    # two-pin DP method crosses (a no-op dict probe when REPRO_FAULTS is
    # unset; allocates nothing, so the hot-alloc discipline holds).
    faults.maybe_inject("kernels.fused-level")
    _traverse_in_place(scratch, interval, caps, delays)
    count = len(caps)
    branches = len(cap_lut) + 1
    m = count * branches
    scratch.ensure(m)

    flat = _reduce_branches(
        scratch,
        caps,
        delays,
        widths,
        cap_lut,
        ratio_lut,
        width_lut,
        intrinsic,
        width_tolerance,
    )
    if flat is None:
        _expand_level(
            scratch, caps, delays, widths, cap_lut, ratio_lut, width_lut, intrinsic
        )
        rows = m
    else:
        rows = len(flat)
    if width_bound is not None:
        rows, flat = _drop_wider_buckets(scratch, rows, flat, width_bound, width_tolerance)
        if rows == 0:
            # A bound below every candidate empties the level.
            return (
                scratch.front_caps[:0],
                scratch.front_delays[:0],
                scratch.front_widths[:0],
                scratch.arange[:0],
                m,
                count,
            )

    keep = _fused_bucket_prune(
        scratch, rows, delay_tolerance=delay_tolerance, width_tolerance=width_tolerance
    )
    if len(keep) > 1:
        sub = _fused_cross_prune(
            scratch, keep, delay_tolerance=delay_tolerance, width_tolerance=width_tolerance
        )
        keep = keep[sub]

    k = len(keep)
    front_caps = scratch.front_caps[:k]
    front_delays = scratch.front_delays[:k]
    front_widths = scratch.front_widths[:k]
    scratch.exp_caps.take(keep, out=front_caps)
    scratch.exp_delays.take(keep, out=front_delays)
    scratch.exp_widths.take(keep, out=front_widths)
    if flat is not None:
        keep = flat[keep]
    return front_caps, front_delays, front_widths, keep, m, count


# hot
def fused_level_2d(
    scratch: DpScratch,
    interval,
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    cap_lut: np.ndarray,
    ratio_lut: np.ndarray,
    width_lut: np.ndarray,
    intrinsic: float,
    delay_tolerance: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """One fused delay-optimal DP level (2-D ``(C, D)`` pruning).

    Same contract as :func:`fused_level`, with
    :func:`pareto_two_dimensional` as the pruning rule (bit-identical
    survivors and order).  The 2-D branch reduction is total: all states
    of insert branch ``b`` share one cap, so only the branch's minimum
    ``(delay, flat index)`` state can survive the ``(C, D)`` scan, and it
    sorts ahead of (and blocks at least as much as) every state it
    replaces — ``np.argmin`` per branch row, first occurrence on ties,
    is exactly that state.
    """
    _traverse_in_place(scratch, interval, caps, delays)
    count = len(caps)
    branches = len(cap_lut) + 1
    m = count * branches
    scratch.ensure(m)

    flat: Optional[np.ndarray] = None
    if branches > 1 and count > 4:
        lc = (branches - 1) * count
        staged_delays = scratch.exp_delays[:lc].reshape(branches - 1, count)
        np.multiply(ratio_lut[:, None], caps[None, :], out=staged_delays)
        np.add(staged_delays, intrinsic, out=staged_delays)
        np.add(staged_delays, delays[None, :], out=staged_delays)
        selected_pos = np.argmin(staged_delays, axis=1)
        branch_index = np.arange(branches - 1)
        selected_flat = (branch_index + 1) * count + selected_pos
        reduced = count + branches - 1

        selected_delays = staged_delays[branch_index, selected_pos].copy()  # repro-lint: disable=hot-alloc
        scratch.exp_caps[:count] = caps
        scratch.exp_caps[count:reduced] = cap_lut
        scratch.exp_delays[:count] = delays
        scratch.exp_delays[count:reduced] = selected_delays
        scratch.exp_widths[:count] = widths
        scratch.exp_widths[count:reduced] = widths[selected_pos] + width_lut
        flat = np.empty(reduced, dtype=np.int64)  # repro-lint: disable=hot-alloc
        flat[:count] = scratch.arange[:count]
        flat[count:] = selected_flat
        rows = reduced
    else:
        _expand_level(
            scratch, caps, delays, widths, cap_lut, ratio_lut, width_lut, intrinsic
        )
        rows = m

    order = np.lexsort((scratch.exp_delays[:rows], scratch.exp_caps[:rows]))
    delays_sorted = scratch.f_b[:rows]
    scratch.exp_delays.take(order, out=delays_sorted)
    exclusive = scratch.f_c[:rows]
    exclusive[0] = np.inf
    np.minimum.accumulate(delays_sorted[:-1], out=exclusive[1:])
    np.subtract(exclusive, delay_tolerance, out=exclusive)
    survive = scratch.mask[:rows]
    np.less(delays_sorted, exclusive, out=survive)
    keep = order[survive]

    k = len(keep)
    front_caps = scratch.front_caps[:k]
    front_delays = scratch.front_delays[:k]
    front_widths = scratch.front_widths[:k]
    scratch.exp_caps.take(keep, out=front_caps)
    scratch.exp_delays.take(keep, out=front_delays)
    scratch.exp_widths.take(keep, out=front_widths)
    if flat is not None:
        keep = flat[keep]
    return front_caps, front_delays, front_widths, keep, m, count


# --------------------------------------------------------------------------- #
# routing-tree kernels (multi-sink DP: per-edge site levels + branch merges)
# --------------------------------------------------------------------------- #
# The tree DP prunes with prune_pareto_3d at *zero* tolerance and exact float
# widths (no quantized buckets): a state survives iff no other state weakly
# dominates it on (cap, delay, width), and survivors come out in stable
# (cap, delay, width) sort order.  That rule decomposes exactly into
#   1. a segmented exclusive-min scan over groups of *bitwise-equal* widths
#      (in-group order (cap, delay); strict `<` against the running min — a
#      same-width earlier state with delay <= mine dominates me), then
#   2. the zero-tolerance cross prune over the scan survivors (the
#      all-earlier rule in (cap, delay, width) order; at tolerance zero
#      dominance is transitive, so "some earlier state" == "some kept
#      state" — the reference's kept-only check).
# The reference additionally hard-caps oversized fronts to the
# (width, delay)-cheapest max_states rows *only when the front overflows* —
# after a zero-tolerance prune all (width, delay) pairs are distinct (two
# states sharing both would dominate one another), so a (width, delay)
# lexsort replicates the reference's sorted()[:max_states] exactly,
# including order.


# hot
def _tree_prune(scratch: DpScratch, m: int, max_states: int) -> np.ndarray:
    """Zero-tolerance 3-D pareto prune of the expanded scratch rows.

    Returns surviving row indices in (cap, delay, width) sort order —
    bit-identical set *and* order to ``prune_pareto_3d`` at tolerance zero —
    unless the hard cap engages, in which case the kept rows are the
    reference's ``(width, delay)``-sorted prefix, in that order.
    """
    delays = scratch.exp_delays[:m]
    widths = scratch.exp_widths[:m]

    order = np.lexsort((delays, scratch.exp_caps[:m], widths))
    widths_sorted = scratch.f_b[:m]
    widths.take(order, out=widths_sorted)
    delays_sorted = scratch.f_c[:m]
    delays.take(order, out=delays_sorted)

    is_start = scratch.mask[:m]
    is_start[0] = True
    np.not_equal(widths_sorted[1:], widths_sorted[:-1], out=is_start[1:])
    index = scratch.arange[:m]
    group_start = scratch.i_b[:m]
    group_start[:] = 0
    np.copyto(group_start, index, where=is_start)
    np.maximum.accumulate(group_start, out=group_start)

    result = _exclusive_min_scan(scratch, delays_sorted, group_start, is_start, m)
    survive = scratch.mask[:m]
    np.less(delays_sorted, result, out=survive)
    keep = order[survive]
    if len(keep) > 1:
        sub = _fused_cross_prune(
            scratch, keep, delay_tolerance=0.0, width_tolerance=0.0
        )
        keep = keep[sub]
    if len(keep) > max_states:
        k = len(keep)
        cap_widths = scratch.f_b[:k]
        cap_delays = scratch.f_c[:k]
        scratch.exp_widths.take(keep, out=cap_widths)
        scratch.exp_delays.take(keep, out=cap_delays)
        keep = keep[np.lexsort((cap_delays, cap_widths))[:max_states]]
    return keep


# hot
def _tree_gather_front(
    scratch: DpScratch, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the kept rows into the scratch front views."""
    k = len(keep)
    front_caps = scratch.front_caps[:k]
    front_delays = scratch.front_delays[:k]
    front_widths = scratch.front_widths[:k]
    scratch.exp_caps.take(keep, out=front_caps)
    scratch.exp_delays.take(keep, out=front_delays)
    scratch.exp_widths.take(keep, out=front_widths)
    return front_caps, front_delays, front_widths


# hot
def tree_site_level(
    scratch: DpScratch,
    interval,
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    cap_lut: np.ndarray,
    ratio_lut: np.ndarray,
    width_lut: np.ndarray,
    intrinsic: float,
    max_states: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """One fused tree-DP site level: traverse the gap, expand, prune.

    Same contract as :func:`fused_level` (scratch front views + ``keep`` in
    the full ``count x branches`` flat layout), with the tree DP's
    zero-tolerance exact-width prune and hard front cap.  Tree levels never
    branch-reduce: the reduction's equivalence argument leans on quantized
    width buckets, which the tree prune does not have.
    """
    count = len(caps)
    branches = len(cap_lut) + 1
    scratch.ensure(count * branches)
    _traverse_in_place(scratch, interval, caps, delays)
    m = _expand_level(
        scratch, caps, delays, widths, cap_lut, ratio_lut, width_lut, intrinsic
    )
    keep = _tree_prune(scratch, m, max_states)
    front_caps, front_delays, front_widths = _tree_gather_front(scratch, keep)
    return front_caps, front_delays, front_widths, keep, m, count


# hot
def tree_merge_level(
    scratch: DpScratch,
    left_caps: np.ndarray,
    left_delays: np.ndarray,
    left_widths: np.ndarray,
    right_caps: np.ndarray,
    right_delays: np.ndarray,
    right_widths: np.ndarray,
    *,
    max_states: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Branch-merge kernel: cross-product of two sibling fronts, pruned.

    Row ``i * len(right) + j`` pairs left state ``i`` with right state ``j``
    (the reference ``_merge``'s left-major loop order): caps and widths sum,
    the worst-sink delay is the elementwise max (bitwise equal to Python's
    ``max`` for the non-NaN, non-negative delays the DP produces).  Inputs
    must be owned arrays — they may not alias this scratch's expansion or
    work buffers.  Returns the merged front (scratch views), ``keep`` (flat
    cross-product indices; ``divmod(keep, len(right))`` recovers the pair),
    and the full cross-product count ``m``.
    """
    m_left = len(left_caps)
    m_right = len(right_caps)
    m = m_left * m_right
    scratch.ensure(m)
    exp_caps = scratch.exp_caps[:m].reshape(m_left, m_right)
    exp_delays = scratch.exp_delays[:m].reshape(m_left, m_right)
    exp_widths = scratch.exp_widths[:m].reshape(m_left, m_right)
    np.add(left_caps[:, None], right_caps[None, :], out=exp_caps)
    np.maximum(left_delays[:, None], right_delays[None, :], out=exp_delays)
    np.add(left_widths[:, None], right_widths[None, :], out=exp_widths)
    keep = _tree_prune(scratch, m, max_states)
    front_caps, front_delays, front_widths = _tree_gather_front(scratch, keep)
    return front_caps, front_delays, front_widths, keep, m


# hot
def tree_prune_front(
    scratch: DpScratch,
    caps: np.ndarray,
    delays: np.ndarray,
    widths: np.ndarray,
    *,
    max_states: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Prune an explicit front (the reference's node-level ``_prune``).

    Used at tap nodes after the sink pin cap is added, and at single-child
    nodes where no merge happens but the reference still prunes.  Inputs
    must not alias this scratch's expansion or work buffers; they *may* be
    the scratch front views (they are copied into the expansion buffers
    before any gather overwrites them).
    """
    m = len(caps)
    scratch.ensure(m)
    scratch.exp_caps[:m] = caps
    scratch.exp_delays[:m] = delays
    scratch.exp_widths[:m] = widths
    keep = _tree_prune(scratch, m, max_states)
    front_caps, front_delays, front_widths = _tree_gather_front(scratch, keep)
    return front_caps, front_delays, front_widths, keep, m
