"""Wire-level codecs: JSON bodies <-> the request vocabulary.

The network tier speaks exactly the same objects as the library
(:class:`~repro.service.models.ScheduleRequest` /
:class:`~repro.service.models.BatchRequest`); this module only decodes
an HTTP JSON body into them and rejects malformed input with
:class:`~repro.errors.RequestError` (which the app maps to a 400).

A request body carries its workload one of two ways:

* ``"trace"`` -- the canonical text trace form
  (:mod:`repro.workloads.trace`), the same bytes ``repro workload``
  emits and the CLI consumes; the trace's embedded machine name must
  agree with the request's ``"machine"`` when both are present.
* ``"workload"`` -- a generator spec (``{"total_ops": ..., "seed": ...}``),
  synthesized deterministically on the server; the cheap way to drive
  load tests and the differential harness.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import RequestError
from repro.service.models import (
    BatchConfig,
    BatchRequest,
    ScheduleRequest,
)
from repro.service.resilience import RetryPolicy
from repro.transforms.pipeline import FINAL_STAGE
from repro.workloads import WorkloadConfig

#: Keys a ``"workload"`` generator spec may carry.
_WORKLOAD_KEYS = frozenset(
    ("total_ops", "seed", "recent_window", "live_in_registers")
)

#: Keys a schedule-request body may carry.
_SCHEDULE_KEYS = frozenset((
    "machine", "trace", "workload", "backend", "stage", "direction",
    "verify", "deadline_seconds", "client", "request_id",
    "include_schedules",
))

#: Keys a batch-request body may carry (schedule keys plus config).
_BATCH_KEYS = _SCHEDULE_KEYS | {"config"}

#: Keys the wire ``"config"`` object may set.  Deliberately narrower
#: than :class:`BatchConfig`: a server-side file (``lmdes_path``) and
#: the fault-injection surface stay server-side.
_CONFIG_KEYS = frozenset(("chunk_size", "on_error", "retries"))


def _reject_unknown(payload: Dict[str, Any], allowed, what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise RequestError(
            f"unknown {what} field(s): {', '.join(unknown)}"
        )


def _expect(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise RequestError(f"{what} must be a JSON object")
    return payload


def _decode_workload(payload: Any) -> WorkloadConfig:
    payload = _expect(payload, "workload spec")
    _reject_unknown(payload, _WORKLOAD_KEYS, "workload")
    try:
        return WorkloadConfig(**payload)
    except TypeError as exc:
        raise RequestError(f"bad workload spec: {exc}") from None


def _decode_blocks(
    payload: Dict[str, Any],
) -> Tuple[Optional[str], tuple, Optional[WorkloadConfig]]:
    """The (machine, blocks, workload) triple a body's workload implies."""
    trace_text = payload.get("trace")
    workload = payload.get("workload")
    if trace_text is not None and workload is not None:
        raise RequestError("give either a trace or a workload spec, not both")
    machine = payload.get("machine")
    if machine is not None and not isinstance(machine, str):
        raise RequestError("machine must be a string name")
    if trace_text is not None:
        if not isinstance(trace_text, str):
            raise RequestError("trace must be a string")
        from repro.workloads.trace import read_trace

        try:
            trace_machine, blocks = read_trace(trace_text)
        except Exception as exc:
            raise RequestError(f"bad trace: {exc}") from None
        if machine is not None and trace_machine and machine != trace_machine:
            raise RequestError(
                f"trace is for machine {trace_machine!r}, "
                f"request says {machine!r}"
            )
        return machine or trace_machine, tuple(blocks), None
    if workload is None:
        raise RequestError(
            "request has no work: give a trace or a workload spec"
        )
    return machine, (), _decode_workload(workload)


def _common_fields(payload: Dict[str, Any]) -> Dict[str, Any]:
    fields: Dict[str, Any] = {}
    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        try:
            fields["deadline_seconds"] = float(deadline)
        except (TypeError, ValueError):
            raise RequestError(
                f"deadline_seconds must be a number: {deadline!r}"
            ) from None
    client = payload.get("client", "default")
    if not isinstance(client, str) or not client:
        raise RequestError("client must be a non-empty string")
    fields["client"] = client
    request_id = payload.get("request_id", "")
    if not isinstance(request_id, str):
        raise RequestError("request_id must be a string")
    fields["request_id"] = request_id
    return fields


def decode_schedule_request(
    payload: Any,
) -> Tuple[ScheduleRequest, bool]:
    """Decode a ``POST /v1/schedule`` body.

    Returns the validated request plus the wire-only
    ``include_schedules`` flag (whether placements go back in the
    response body).
    """
    payload = _expect(payload, "request body")
    _reject_unknown(payload, _SCHEDULE_KEYS, "request")
    machine, blocks, workload = _decode_blocks(payload)
    if machine is None:
        raise RequestError("request names no machine")
    try:
        request = ScheduleRequest(
            machine=machine,
            blocks=blocks,
            workload=workload,
            backend=payload.get("backend"),
            stage=int(payload.get("stage", FINAL_STAGE)),
            direction=payload.get("direction", "forward"),
            verify=bool(payload.get("verify", False)),
            **_common_fields(payload),
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad request: {exc}") from None
    include = bool(payload.get("include_schedules", True))
    return request.validate(), include


def _decode_config(
    payload: Any, base: BatchConfig, backend: Optional[str],
    stage: Any, direction: Any, verify: Any,
) -> BatchConfig:
    from dataclasses import replace

    overrides: Dict[str, Any] = {}
    if backend is not None:
        overrides["backend"] = backend
    if stage is not None:
        overrides["stage"] = int(stage)
    if direction is not None:
        overrides["direction"] = direction
    if verify is not None:
        overrides["verify"] = bool(verify)
    payload = _expect(payload, "config") if payload is not None else {}
    _reject_unknown(payload, _CONFIG_KEYS, "config")
    if "chunk_size" in payload:
        try:
            overrides["chunk_size"] = int(payload["chunk_size"])
        except (TypeError, ValueError):
            raise RequestError(
                f"chunk_size must be an integer: {payload['chunk_size']!r}"
            ) from None
    if "on_error" in payload:
        overrides["on_error"] = payload["on_error"]
    if "retries" in payload:
        try:
            overrides["retry"] = RetryPolicy(retries=int(payload["retries"]))
        except (TypeError, ValueError):
            raise RequestError(
                f"retries must be an integer: {payload['retries']!r}"
            ) from None
    try:
        return replace(base, **overrides)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad config: {exc}") from None


def decode_batch_request(
    payload: Any, base_config: Optional[BatchConfig] = None,
) -> Tuple[BatchRequest, bool]:
    """Decode a ``POST /v1/schedule/batch`` body.

    ``base_config`` carries the server-side defaults (chunk size); the
    body's ``"config"`` object overrides only the client-safe subset.
    """
    payload = _expect(payload, "request body")
    _reject_unknown(payload, _BATCH_KEYS, "request")
    machine, blocks, workload = _decode_blocks(payload)
    if machine is None:
        raise RequestError("request names no machine")
    config = _decode_config(
        payload.get("config"), base_config or BatchConfig(),
        payload.get("backend"), payload.get("stage"),
        payload.get("direction"), payload.get("verify"),
    )
    try:
        request = BatchRequest(
            machine=machine,
            blocks=blocks,
            workload=workload,
            config=config,
            **_common_fields(payload),
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad request: {exc}") from None
    include = bool(payload.get("include_schedules", True))
    return request.validate(), include


__all__ = ["decode_batch_request", "decode_schedule_request"]
