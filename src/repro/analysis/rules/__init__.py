"""Built-in lint rules R1–R4, R6 and R7 (R5 is retired).

Importing this package registers every rule with the
:mod:`repro.analysis.linter` registry:

========================  =====================================================
``fingerprint-completeness``  R1 — numerics knobs must join the dp-context
                              fingerprint
``hot-alloc``                 R2 — no allocating numpy calls in ``# hot``
                              kernels outside ``DpScratch``
``cache-key-hygiene``         R3 — cache/store keys go through
                              ``utils/canonical.py``, never ``repr``/``str``/
                              ``hash``/f-strings
``determinism``               R4 — no ambient entropy or ordering-sensitive
                              ``set`` iteration outside ``utils/rng.py``
``pool-exception-reduce``     R6 — custom exceptions with ``__init__`` define
                              ``__reduce__`` so they survive the pool
``fault-site-registered``     R7 — ``maybe_inject``/``maybe_corrupt`` sites are
                              string literals registered in ``SITES``, and no
                              registered site goes unexercised
========================  =====================================================
"""

from repro.analysis.rules import (  # noqa: F401  (import registers the rules)
    cachekeys,
    determinism,
    faultsites,
    fingerprint,
    hotalloc,
    pool_exceptions,
)

__all__ = [
    "cachekeys",
    "determinism",
    "faultsites",
    "fingerprint",
    "hotalloc",
    "pool_exceptions",
]
