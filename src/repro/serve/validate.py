"""Request validation for the ``repro.serve`` HTTP API.

A job submission is a JSON object describing one cluster-size sweep:

.. code-block:: json

    {
      "workload": "jacobi",
      "params": {"n": 32, "iterations": 5},
      "total_processors": 32,
      "sizes": [1, 4, 32],
      "inter_ssmp_delay": 1000,
      "costs": {"translate_array": 10},
      "network": {"external": "bus"},
      "overrides": {"page_size": 2048},
      "protocol": "mgs"
    }

Only ``workload`` is required.  Everything else defaults to the paper's
experimental platform, exactly as :func:`repro.bench.sweep.run_sweep`
does, so a bare ``{"workload": "water"}`` reproduces the CLI's
``sweep water`` bit-for-bit.  ``inter_ssmp_delay``, ``network``,
``protocol`` and ``overrides`` together name the machine: they fold into
one dict, :attr:`JobRequest.overrides`, which is ``run_sweep``'s
``overrides`` both when a submission is checked and when its job runs.

Validation is strict and reuses the :mod:`repro.params` machinery:
nested objects go through ``dataclass_from_dict``, which rejects unknown
fields with the full list of known ones and scalar values of the wrong
type.  ``overrides`` may only name :class:`~repro.params.MachineConfig`
fields the sweep itself does not control, its scalar values are
type-checked the same way, and its ``options`` object decodes to a
:class:`~repro.params.ProtocolOptions` as a nested object does.

Every point's ``MachineConfig`` is built at submission, and with it the
point's run-cache key (:func:`~repro.bench.cache.fingerprint_run`).  The
request key is the SHA-256 over those keys in order: two submissions
that simulate the same points share it however they spell them
(omitted or explicit defaults, field order), and that is the identity
the daemon uses to coalesce identical in-flight submissions onto one
computation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any

from repro.apps import ALL_APPS, default_params
from repro.bench.cache import fingerprint_run
from repro.core.engine import engine_names
from repro.metrics import cluster_sizes
from repro.params import (
    CostModel,
    MachineConfig,
    ProtocolOptions,
    check_field_types,
    cost_model_from_dict,
    dataclass_from_dict,
    network_config_from_dict,
)
from repro.runtime import DEFAULT_QUANTUM

__all__ = ["RequestError", "JobRequest", "PARAM_CLASSES", "validate_request"]


class RequestError(ValueError):
    """A submission failed validation (HTTP 400)."""


#: workload name -> its parameter dataclass, derived from the registry
PARAM_CLASSES = {name: type(default_params(mod)) for name, mod in ALL_APPS.items()}

#: top-level request fields (anything else is rejected)
_REQUEST_FIELDS = (
    "workload",
    "params",
    "total_processors",
    "sizes",
    "inter_ssmp_delay",
    "costs",
    "network",
    "overrides",
    "protocol",
)

#: MachineConfig fields the sweep controls itself — not overridable
#: (``protocol`` has its own top-level request field)
_RESERVED_CONFIG_FIELDS = frozenset(
    ("total_processors", "cluster_size", "inter_ssmp_delay", "network",
     "protocol")
)


@dataclass(frozen=True)
class JobRequest:
    """One validated sweep submission: ``run_sweep``'s arguments, the
    submitted ``body`` and the request ``key``."""

    workload: str
    params: Any
    total_processors: int
    sizes: tuple[int, ...]
    costs: CostModel | None
    #: every ``MachineConfig`` field the request sets, the top-level
    #: ``inter_ssmp_delay``, ``network`` and ``protocol`` included
    overrides: dict[str, Any]
    body: dict
    #: SHA-256 over the points' run-cache keys: the single-flight identity
    key: str


def _require_int(body: dict, name: str, default: int) -> int:
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    return value


def validate_request(body: Any) -> JobRequest:
    """Parse one submission body; raise :class:`RequestError` on anything
    malformed, unknown, or unsatisfiable."""
    if not isinstance(body, dict):
        raise RequestError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    unknown = sorted(k for k in body if k not in _REQUEST_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown request field(s) {unknown}; "
            f"known fields: {', '.join(_REQUEST_FIELDS)}"
        )

    workload = body.get("workload")
    if workload not in PARAM_CLASSES:
        raise RequestError(
            f"workload must be one of {sorted(PARAM_CLASSES)}, "
            f"got {workload!r}"
        )

    try:
        params = dataclass_from_dict(
            PARAM_CLASSES[workload], body.get("params") or {}
        )
        costs = (
            cost_model_from_dict(body["costs"])
            if body.get("costs") is not None
            else None
        )
        network = (
            network_config_from_dict(body["network"])
            if body.get("network") is not None
            else None
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from None

    total_processors = _require_int(body, "total_processors", 32)
    inter_ssmp_delay = _require_int(body, "inter_ssmp_delay", 1000)

    protocol = body.get("protocol", "mgs")
    engines = engine_names()
    if protocol not in engines:
        raise RequestError(
            f"protocol must be one of {engines}, got {protocol!r}"
        )

    overrides = body.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise RequestError(
            f"overrides must be an object, got {type(overrides).__name__}"
        )
    config_fields = {f.name for f in fields(MachineConfig)}
    bad = sorted(
        k
        for k in overrides
        if k not in config_fields or k in _RESERVED_CONFIG_FIELDS
    )
    if bad:
        allowed = sorted(config_fields - _RESERVED_CONFIG_FIELDS)
        raise RequestError(
            f"overrides may not set {bad}; "
            f"allowed MachineConfig fields: {allowed}"
        )
    overrides = dict(overrides)
    try:
        check_field_types(MachineConfig, overrides)
        if isinstance(overrides.get("options"), dict):
            # Any other value is left to MachineConfig's own type check.
            overrides["options"] = dataclass_from_dict(
                ProtocolOptions, overrides["options"]
            )
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from None
    overrides.update(inter_ssmp_delay=inter_ssmp_delay, protocol=protocol)
    if network is not None:
        overrides["network"] = network

    sizes = body.get("sizes")
    if sizes is None:
        try:
            sizes = cluster_sizes(total_processors)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
    if not isinstance(sizes, list) or not sizes:
        raise RequestError("sizes must be a non-empty list of cluster sizes")

    # Construct every point's MachineConfig now, so an unsatisfiable
    # shape (non-power-of-two sizes, C not dividing P, bad override
    # values) is a 400 at submission rather than a failed job later;
    # each config's run-cache key goes into the request key.
    module_name = ALL_APPS[workload].__name__
    key = hashlib.sha256()
    for c in sizes:
        if isinstance(c, bool) or not isinstance(c, int):
            raise RequestError(f"sizes must be integers, got {c!r}")
        try:
            config = MachineConfig(
                total_processors=total_processors, cluster_size=c, **overrides
            )
        except (TypeError, ValueError) as exc:
            raise RequestError(f"cluster size {c}: {exc}") from None
        point_key, _ = fingerprint_run(
            config, costs, DEFAULT_QUANTUM, module_name, params
        )
        key.update(point_key.encode())
    return JobRequest(
        workload=workload,
        params=params,
        total_processors=total_processors,
        sizes=tuple(sizes),
        costs=costs,
        overrides=overrides,
        body=body,
        key=key.hexdigest(),
    )
