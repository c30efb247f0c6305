"""The execution engine layer: compiled kernels and the batch design engine.

This package sits directly above the net model and below the DP/RIP layers:

* :mod:`repro.engine.kernels` — the vectorized dominance-pruning kernels
  of :mod:`repro.dp.pruning` and the fused DP level kernels;
* :mod:`repro.engine.compiled` — :class:`CompiledNet`, the precompiled
  per-interval wire representation both DP engines traverse;
* :mod:`repro.engine.cache` — the shared, disk-cacheable protocol store
  (net population + ``tau_min``) keyed by ``(seed, net_config, technology)``;
* :mod:`repro.engine.wincache` — :class:`WindowCompilationCache`, the
  per-process LRU memo of window candidate grids and per-window
  :class:`CompiledNet` slices RIP's final DP pass draws from;
* :mod:`repro.engine.design` — :class:`DesignEngine`, the batch harness
  that fans a population of nets out over methods, targets, technologies
  and worker processes and returns structured per-(net, target, method)
  records.

``kernels`` and ``compiled`` are leaf modules imported by :mod:`repro.dp`;
to keep that import acyclic the higher-level names (``DesignEngine`` and
friends, which themselves import :mod:`repro.dp` and :mod:`repro.core`) are
re-exported lazily via module ``__getattr__``.
"""

from repro.engine import kernels  # noqa: F401  (leaf module, safe to import eagerly)
from repro.engine.compiled import CompiledNet, WireInterval  # noqa: F401

_LAZY = {
    "DesignCase": "repro.engine.cache",
    "ProtocolStore": "repro.engine.cache",
    "StoreStatistics": "repro.engine.cache",
    "TreeCase": "repro.engine.cache",
    "default_store": "repro.engine.cache",
    "CacheStatistics": "repro.engine.wincache",
    "WindowCompilationCache": "repro.engine.wincache",
    "net_fingerprint": "repro.engine.wincache",
    "tree_fingerprint": "repro.engine.wincache",
    "DesignEngine": "repro.engine.design",
    "build_htree_cases": "repro.engine.design",
    "DesignRecord": "repro.engine.design",
    "EngineStatistics": "repro.engine.design",
    "MethodSpec": "repro.engine.design",
    "NetDesignResult": "repro.engine.design",
    "PopulationDesignResult": "repro.engine.design",
    "TargetSpec": "repro.engine.design",
    "WindowCacheSpec": "repro.engine.design",
}

__all__ = ["CompiledNet", "WireInterval", "kernels", *sorted(_LAZY)]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
