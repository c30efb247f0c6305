"""Seeded benchmark inputs: the two-pin population and the H-trees.

Everything a workload designs is a function of the ``--seed`` argument and
of the fixed sizes in ``spec.json``; the program only ever sees the
generated inputs, never the workload name.

Per-net work grows with roughly the 2.5th power of net length, and the
paper's generator spans 4 to 25 mm, so a small random population makes
throughput swing by tens of percent from one seed to the next.  The
two-pin population is therefore matched to fixed sizes: the protocol store
builds a pool of ``pool_factor`` nets per wanted net from the seed, and
for each entry of ``reference_candidates`` (quantiles of the generator's
baseline candidate count, the DP's level count) the population takes the
unused pool net closest to it.  The nets are still the generator's, but
every seed covers the size range the same way.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.engine.cache import NetCase, ProtocolConfig, ProtocolStore, TreeCase
from repro.engine.design import MethodSpec, TargetSpec, build_htree_cases
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import NODE_180NM
from repro.utils.units import from_microns

TECHNOLOGY = NODE_180NM


def sweep_methods() -> Tuple[MethodSpec, MethodSpec, MethodSpec]:
    """``rip``, ``dp-g10`` and ``tree-g20``, as ``rip sweep`` builds them."""
    return (
        MethodSpec.rip_method(),
        MethodSpec.dp_baseline("dp-g10", RepeaterLibrary.uniform(10.0, 400.0, 10.0)),
        MethodSpec.tree_method("tree-g20", RepeaterLibrary.uniform(20.0, 400.0, 20.0)),
    )


def protocol(seed: int, nets: int, targets: int) -> ProtocolConfig:
    """The paper's protocol for a pool of ``nets`` nets."""
    return ProtocolConfig(technology=TECHNOLOGY, num_nets=nets, targets_per_net=targets, seed=seed)


def matched(pool: Sequence[NetCase], sizes: Sequence[int]) -> List[NetCase]:
    """For each candidate count in ``sizes``, the unused pool net closest to it.

    Ties go to the earlier pool net; the chosen nets keep their pool order.
    """
    if len(pool) < len(sizes):
        raise ValueError(f"a pool of {len(pool)} nets cannot match {len(sizes)} sizes")
    free = list(range(len(pool)))
    chosen = []
    for size in sizes:
        best = min(free, key=lambda i: (abs(len(pool[i].candidates) - size), i))
        free.remove(best)
        chosen.append(best)
    return [pool[index] for index in sorted(chosen)]


def twopin_cases(store: ProtocolStore, seed: int, spec: dict) -> List[NetCase]:
    """The seeded two-pin population, drawn through ``ProtocolStore.cases``."""
    sizes = spec["reference_candidates"]
    pool = store.cases(protocol(seed, spec["pool_factor"] * len(sizes), spec["targets"]))
    return matched(pool, sizes)


def htree_cases(seed: int, spec: dict) -> List[TreeCase]:
    """The seeded H-tree population (``build_htree_cases`` probes tau_min).

    The seed draws the first tree's span; later trees grow by a fixed step.
    """
    low, high = spec["htree_base_span_um"]
    base_span = from_microns(random.Random(f"htree-{seed}").uniform(low, high))
    return build_htree_cases(
        TECHNOLOGY,
        count=spec["htrees"],
        levels=spec["htree_levels"],
        base_span=base_span,
        span_step=from_microns(spec["htree_span_step_um"]),
        targets=TargetSpec(count=spec["targets"]),
    )
