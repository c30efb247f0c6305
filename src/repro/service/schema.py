"""Wire protocol of the design service: validation and canonicalization.

A design request is a JSON object::

    {
      "tenant": "teamA",                  # optional, default "public"
      "technology": "cmos180",            # optional, default "cmos180"
      "methods": ["rip", "dp-g10"],       # optional, default ["rip"]
      "net": { ... },                     # required: repro.net.io format
      "targets": [1.2e-9, 1.5e-9],        # required: seconds, finite, > 0
      "tau_min": 1.0e-9,                  # optional, default min(targets)
      "candidate_pitch": 2.0e-4           # optional, meters, default 200 um
    }

Validation is strict and the canonical serializer is the gatekeeper:
:func:`parse_request` rebuilds the request as a plain canonical payload and
takes its :func:`~repro.utils.canonical.stable_digest` — any value without
a well-defined canonical form (a NaN target, a non-string field) is
rejected at the door with :class:`RequestError` instead of poisoning cache
keys downstream.  Cache-key hygiene *is* the wire protocol: two requests
with equal canonical payloads have equal digests, which is what the
micro-batcher uses to deduplicate concurrent identical work.

Only two-pin net requests are served over the wire (the archetypal
conf_date_LiuPP05 workload); tree populations remain a CLI/engine-level
workload (``rip sweep --population htree``).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from repro.dp.candidates import uniform_candidates
from repro.engine.cache import NetCase
from repro.engine.design import MethodSpec, NetDesignResult
from repro.net.io import net_from_dict, net_to_dict
from repro.tech.library import RepeaterLibrary
from repro.tech.nodes import available_nodes
from repro.utils.canonical import CanonicalizationError, stable_digest

__all__ = [
    "DesignRequest",
    "MAX_METHODS",
    "MAX_TARGETS",
    "RequestError",
    "method_spec",
    "parse_request",
    "response_payload",
]

#: Hard caps keeping one request from monopolizing the batcher.
MAX_TARGETS = 256
MAX_METHODS = 8

#: Tenant names become cache directory names, so they are restricted to a
#: safe slug (no separators, no dot-dot, bounded length).
_TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$")


class RequestError(ValueError):
    """A request payload failed validation or canonicalization."""


@dataclass(frozen=True)
class DesignRequest:
    """One validated, canonicalized design request.

    ``digest`` is the stable hex digest of the request's canonical payload
    — the request's identity on the wire: responses echo it, the batcher
    deduplicates on it, and equal requests are guaranteed equal digests
    across processes and machines.
    """

    tenant: str
    technology_name: str
    method_names: Tuple[str, ...]
    case: NetCase
    candidate_pitch: float
    digest: str

    def methods(self) -> Tuple[MethodSpec, ...]:
        """The resolved :class:`MethodSpec` objects of this request."""
        return tuple(method_spec(name) for name in self.method_names)


def method_spec(name: str) -> MethodSpec:
    """Resolve a wire method name to a :class:`MethodSpec`.

    ``"rip"`` is the hybrid flow; ``"dp-g<granularity>"`` is the baseline
    power-aware DP with a 10..400u library at that granularity — the same
    names ``rip sweep --methods`` accepts.
    """
    if name == "rip":
        return MethodSpec.rip_method()
    if name.startswith("dp-g"):
        try:
            granularity = float(name[len("dp-g"):])
        except ValueError:
            raise RequestError(f"malformed method {name!r}; expected dp-g<granularity>")
        if not granularity > 0.0:
            raise RequestError(f"method {name!r} needs a positive granularity")
        return MethodSpec.dp_baseline(
            name, RepeaterLibrary.uniform(10.0, 400.0, granularity)
        )
    raise RequestError(f"unknown method {name!r}; use 'rip' or 'dp-g<granularity>'")


def _finite_positive(value: Any, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise RequestError(f"{what} must be a number, got {value!r}")
    if not number > 0.0 or number != number or number in (float("inf"),):
        raise RequestError(f"{what} must be finite and > 0, got {value!r}")
    return number


def parse_request(data: Any, *, default_tenant: str = "public") -> DesignRequest:
    """Validate one wire payload and return its :class:`DesignRequest`.

    Raises :class:`RequestError` with a client-presentable message on any
    malformed field; never raises anything else for untrusted input.
    """
    if not isinstance(data, dict):
        raise RequestError("request must be a JSON object")

    tenant = data.get("tenant", default_tenant)
    if not isinstance(tenant, str) or not _TENANT_PATTERN.match(tenant):
        raise RequestError(
            f"tenant {tenant!r} is not a valid slug "
            "([A-Za-z0-9][A-Za-z0-9_-]{0,63})"
        )

    technology_name = data.get("technology", "cmos180")
    if technology_name not in available_nodes():
        known = ", ".join(available_nodes())
        raise RequestError(f"unknown technology {technology_name!r} (known: {known})")

    method_names = data.get("methods", ["rip"])
    if isinstance(method_names, str):
        method_names = [part.strip() for part in method_names.split(",") if part.strip()]
    if not isinstance(method_names, list) or not method_names:
        raise RequestError("methods must be a non-empty list of method names")
    if len(method_names) > MAX_METHODS:
        raise RequestError(f"at most {MAX_METHODS} methods per request")
    if len(set(method_names)) != len(method_names):
        raise RequestError("method names must be unique")
    for name in method_names:
        if not isinstance(name, str):
            raise RequestError(f"method name {name!r} is not a string")
        method_spec(name)  # validates; specs are rebuilt lazily per group

    if "net" not in data:
        raise RequestError("request needs a 'net' object (repro.net.io format)")
    try:
        net = net_from_dict(data["net"])
    except Exception as malformed:
        raise RequestError(f"malformed net: {malformed}")

    raw_targets = data.get("targets")
    if not isinstance(raw_targets, list) or not raw_targets:
        raise RequestError("request needs a non-empty 'targets' list (seconds)")
    if len(raw_targets) > MAX_TARGETS:
        raise RequestError(f"at most {MAX_TARGETS} targets per request")
    targets = tuple(
        _finite_positive(value, f"targets[{index}]")
        for index, value in enumerate(raw_targets)
    )

    tau_min = (
        _finite_positive(data["tau_min"], "tau_min")
        if "tau_min" in data
        else min(targets)
    )
    candidate_pitch = (
        _finite_positive(data["candidate_pitch"], "candidate_pitch")
        if "candidate_pitch" in data
        else 200.0e-6
    )
    candidates = tuple(uniform_candidates(net, candidate_pitch))
    if not candidates:
        raise RequestError(
            "candidate_pitch leaves no legal repeater locations on this net"
        )

    # The canonical payload is the request's identity: serialized with the
    # strict canonical serializer, so anything without a stable canonical
    # form is a protocol error, not a latent cache-key bug.
    payload: Dict[str, Any] = {
        "tenant": tenant,
        "technology": technology_name,
        "methods": list(method_names),
        "net": net_to_dict(net),
        "targets": list(targets),
        "tau_min": tau_min,
        "candidate_pitch": candidate_pitch,
    }
    try:
        digest = stable_digest(payload)
    except CanonicalizationError as unstable:
        raise RequestError(f"request has no canonical form: {unstable}")

    case = NetCase(net=net, tau_min=tau_min, targets=targets, candidates=candidates)
    return DesignRequest(
        tenant=tenant,
        technology_name=technology_name,
        method_names=tuple(method_names),
        case=case,
        candidate_pitch=candidate_pitch,
        digest=digest,
    )


def response_payload(
    request: DesignRequest, result: NetDesignResult
) -> Dict[str, Any]:
    """The NDJSON line of one finished request.

    A failed net reports the engine's per-net failure taxonomy
    (``failure_kind`` ``"infeasible"`` | ``"crashed"``) instead of records;
    either way the sweep the request rode in completed for every other
    request — fault isolation is per net end to end.
    """
    body: Dict[str, Any] = {
        "request": request.digest,
        "tenant": request.tenant,
        "technology": result.technology,
        "net": result.net_name,
        "tau_min": result.tau_min,
        "status": "failed" if result.failed else "ok",
        "states_generated": result.states_generated,
    }
    if result.failed:
        body["failure_kind"] = result.failure_kind
        body["error"] = result.error
    else:
        body["records"] = [asdict(record) for record in result.records]
    return body
