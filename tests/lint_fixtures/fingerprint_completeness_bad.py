"""Positive fixture for R1 (fingerprint-completeness): a numerics knob the
dp-context fingerprint never references.

The builder is defined in the same file so the rule activates when this
fixture is linted on its own (R1 only fires when ``dp_context_fingerprint``
is part of the run).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ToyDpConfig:
    kernel: str = "vectorized"
    evaluator: str = "walked"  # expect: fingerprint-completeness


def dp_context_fingerprint(config):
    return {"kernel": config.kernel}
