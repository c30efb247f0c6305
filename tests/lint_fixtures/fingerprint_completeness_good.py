"""Negative fixture for R1 (fingerprint-completeness): every knob joins the
fingerprint, either by direct reference or by a dataclasses.fields sweep."""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ToyDpConfig:
    kernel: str = "vectorized"
    evaluator: str = "walked"


@dataclass(frozen=True)
class SweptSpec:
    analytical: str = "scalar"


def dp_context_fingerprint(config):
    return {"kernel": config.kernel, "evaluator": config.evaluator}


def swept_fingerprint(swept):
    return tuple((field.name, getattr(swept, field.name)) for field in fields(swept))
