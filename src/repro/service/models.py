"""The typed request/response vocabulary for every scheduling entry point.

Before this module, each entry point grew its own ad-hoc kwarg plumbing
-- a machine-or-name here, a backend string and a stage int there, a
``verify`` flag somewhere else -- and the CLI, the facade, and the batch
driver each re-validated (or forgot to validate) the same tuple.  The
redesign makes one validated object per call the contract everywhere:

* :class:`ScheduleRequest` -- one workload against one machine/backend.
  Accepted by :func:`repro.api.schedule` / :func:`repro.api.schedule_exact`,
  built by ``repro schedule`` and by the server's ``POST /v1/schedule``.
* :class:`BatchRequest` -- a workload plus the batch-service knobs
  (:class:`BatchConfig`).  Accepted by
  :func:`repro.service.schedule_batch` directly, by
  :func:`repro.api.schedule_batch`, by ``repro schedule-batch``, and by
  the server's ``POST /v1/schedule/batch``.
* :class:`ScheduleResponse` -- the uniform result envelope: counts,
  schedules, verification verdict, resilience/caching summaries, and a
  ``to_dict`` wire form the server and the CLI ``--json`` views share.

Requests are frozen: validation happens once (:meth:`validate`), the
object is then safe to ship across threads and the micro-batcher.
Blocks can be given inline or as a
:class:`~repro.workloads.WorkloadConfig` generator spec -- the paper's
"compile once, use many times" story needs requests that are cheap to
mint per call.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import RequestError
from repro.ir.block import BasicBlock
from repro.service.resilience import BlockFailure, RetryPolicy
from repro.transforms.pipeline import FINAL_STAGE
from repro.workloads import WorkloadConfig

#: Backend used when a request names neither a backend nor an LMDES file.
DEFAULT_BACKEND = "bitvector"

#: ``BatchConfig.on_error`` modes.
ON_ERROR_MODES = ("raise", "report")

#: Scheduling directions the list scheduler understands.
DIRECTIONS = ("forward", "backward")


def _machine_name(machine: Union[str, Any]) -> str:
    return machine if isinstance(machine, str) else machine.name


def new_request_id() -> str:
    """A fresh opaque request id (server fills one in when absent)."""
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class BatchConfig:
    """One batch-scheduling request's knobs.

    Attributes:
        backend: Registered query-engine backend; mutually exclusive
            with ``lmdes_path``.  ``None`` means :data:`DEFAULT_BACKEND`
            (unless ``lmdes_path`` is given).
        lmdes_path: Schedule against a pre-compiled LMDES file instead
            of a registry backend.
        stage: Transformation stage for registry backends.
        chunk_size: Blocks per chunk, the unit of retry and isolation.
            Part of the result's deterministic identity: every chunk
            gets a fresh engine, so the summed stats of engine-memoizing
            backends depend on the partition.
        cache_dir: Directory for the persistent description cache;
            ``None`` disables the disk tier.
        direction: Scheduling direction, as in the list scheduler.
        retry: Chunk retry budget and backoff shape.
        on_error: ``"raise"`` raises :class:`ServiceError` when any
            block ends up quarantined; ``"report"`` returns them as
            typed ``BatchResult.errors`` records alongside the
            surviving schedules.
        verify: Replay the assembled schedules through the independent
            oracle (:mod:`repro.verify`) after the run.  The report
            lands in ``BatchResult.verify_report``; in ``"raise"`` mode
            a failed verification raises
            :class:`~repro.errors.VerificationError`.
    """

    backend: Optional[str] = None
    lmdes_path: Optional[str] = None
    stage: int = FINAL_STAGE
    chunk_size: int = 32
    cache_dir: Optional[str] = None
    direction: str = "forward"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    on_error: str = "raise"
    verify: bool = False

    def validate(self) -> None:
        if self.backend and self.lmdes_path:
            raise ValueError(
                "BatchConfig backend and lmdes_path are mutually exclusive"
            )
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {self.chunk_size}")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}: "
                f"{self.on_error!r}"
            )
        self.retry.validate()

    @property
    def backend_label(self) -> str:
        """What the run's constraint checks came from, for reports."""
        if self.lmdes_path:
            return f"lmdes:{self.lmdes_path}"
        return self.backend or DEFAULT_BACKEND


class _RequestBase:
    """Validation and block-resolution shared by both request types."""

    def _check_backend(self, backend: Optional[str]) -> None:
        if backend is None:
            return
        from repro.engine.registry import engine_names

        if backend not in engine_names():
            raise RequestError(
                f"unknown backend {backend!r}; registered: "
                f"{', '.join(engine_names())}"
            )

    def _check_machine(self) -> None:
        if isinstance(self.machine, str):
            from repro.machines import get_machine

            try:
                get_machine(self.machine)
            except KeyError:
                raise RequestError(
                    f"unknown machine {self.machine!r}"
                ) from None

    def _check_workload(self) -> None:
        if self.blocks and self.workload is not None:
            raise RequestError(
                "give either inline blocks or a workload spec, not both"
            )
        if not self.blocks and self.workload is None:
            raise RequestError(
                "request has no work: give blocks or a workload spec"
            )

    def _check_deadline(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise RequestError(
                f"deadline_seconds must be > 0: {self.deadline_seconds}"
            )

    @property
    def machine_name(self) -> str:
        """The request's machine name (object or registry name)."""
        return _machine_name(self.machine)

    def resolve_machine(self):
        """The machine object behind the request."""
        if isinstance(self.machine, str):
            from repro.machines import get_machine

            return get_machine(self.machine)
        return self.machine

    def resolve_blocks(self) -> List[BasicBlock]:
        """The request's blocks -- inline, or generated from the spec."""
        if self.blocks:
            return list(self.blocks)
        from repro.workloads import generate_blocks

        return generate_blocks(self.resolve_machine(), self.workload)

    def with_request_id(self):
        """This request, with a minted id if it arrived without one."""
        if self.request_id:
            return self
        return replace(self, request_id=new_request_id())


@dataclass(frozen=True)
class ScheduleRequest(_RequestBase):
    """One scheduling request: a workload against a machine and backend.

    Attributes:
        machine: Registered machine name (or a machine object for
            in-process use; the wire form always names one).
        blocks: Inline workload blocks; mutually exclusive with
            ``workload``.
        workload: Generator spec -- blocks are synthesized
            deterministically from ``(total_ops, seed)`` when none are
            inline.
        backend: Registry backend; ``None`` means
            :data:`DEFAULT_BACKEND`.  Backends registered with
            ``scheduler="exact"`` dispatch to the branch-and-bound
            exact scheduler.
        stage: Transformation stage (0..4).
        direction: ``"forward"`` or ``"backward"``.
        verify: Replay the result through the independent oracle.
        keep_schedules: Retain per-block placements on the response
            (the server always keeps them; the wire form can still omit
            them per call).
        deadline_seconds: Soft deadline the service tier enforces; the
            library's synchronous path ignores it.
        client: Multi-tenant identity quotas are charged against.
        request_id: Opaque id echoed on the response (minted when
            empty).
    """

    machine: Union[str, Any]
    blocks: Tuple[BasicBlock, ...] = ()
    workload: Optional[WorkloadConfig] = None
    backend: Optional[str] = None
    stage: int = FINAL_STAGE
    direction: str = "forward"
    verify: bool = False
    keep_schedules: bool = True
    deadline_seconds: Optional[float] = None
    client: str = "default"
    request_id: str = ""

    def __post_init__(self):
        if not isinstance(self.blocks, tuple):
            object.__setattr__(self, "blocks", tuple(self.blocks))

    def validate(self) -> "ScheduleRequest":
        """Check the request; raises :class:`RequestError` when broken."""
        self._check_machine()
        self._check_backend(self.backend)
        self._check_workload()
        self._check_deadline()
        if self.direction not in DIRECTIONS:
            raise RequestError(
                f"direction must be one of {DIRECTIONS}: "
                f"{self.direction!r}"
            )
        if not 0 <= self.stage <= FINAL_STAGE:
            raise RequestError(
                f"stage must be in 0..{FINAL_STAGE}: {self.stage}"
            )
        if self.is_exact and self.direction != "forward":
            raise RequestError(
                "exact backends schedule forward only; "
                f"direction {self.direction!r} is not supported"
            )
        return self

    @property
    def backend_name(self) -> str:
        return self.backend or DEFAULT_BACKEND

    @property
    def is_exact(self) -> bool:
        """Whether the backend drives the exact scheduler."""
        from repro.engine.registry import get_engine_spec

        try:
            return get_engine_spec(self.backend_name).scheduler == "exact"
        except KeyError:
            return False

    def batch_key(self) -> Tuple:
        """Micro-batching compatibility key.

        Requests with equal keys can be concatenated into one
        ``schedule_batch`` run and split back apart without changing
        any request's schedules (block scheduling is independent per
        block; only fold-order-sensitive *stats* depend on grouping).
        """
        return (
            self.machine_name, self.backend_name, self.stage,
            self.direction, self.verify,
        )


@dataclass(frozen=True)
class BatchRequest(_RequestBase):
    """A workload plus the batch-service execution knobs.

    The single vocabulary object behind
    :func:`repro.service.schedule_batch`: what used to travel as
    ``(machine, blocks, config)`` positional plumbing.
    """

    machine: Union[str, Any]
    blocks: Tuple[BasicBlock, ...] = ()
    workload: Optional[WorkloadConfig] = None
    config: BatchConfig = field(default_factory=BatchConfig)
    deadline_seconds: Optional[float] = None
    client: str = "default"
    request_id: str = ""

    def __post_init__(self):
        if not isinstance(self.blocks, tuple):
            object.__setattr__(self, "blocks", tuple(self.blocks))

    def validate(self) -> "BatchRequest":
        self._check_machine()
        self._check_backend(self.config.backend)
        self._check_workload()
        self._check_deadline()
        try:
            self.config.validate()
        except ValueError as exc:
            raise RequestError(str(exc)) from None
        return self

    @property
    def backend_name(self) -> str:
        return self.config.backend_label


def _schedule_payload(schedule) -> Dict[str, Any]:
    """One block schedule as a JSON-ready placement record."""
    return {
        "label": schedule.block.label,
        "length": schedule.length,
        "placements": [
            [index, schedule.times[index], schedule.classes[index]]
            for index in sorted(schedule.times)
        ],
    }


@dataclass
class ScheduleResponse:
    """The uniform result envelope for every scheduling entry point.

    ``kind`` says which engine produced it (``"list"``, ``"exact"``, or
    ``"batch"``); the envelope fields are identical so the server, the
    CLI ``--json`` views, and in-process callers consume one shape.
    ``result`` keeps the underlying rich object (``RunResult``,
    ``ExactRunResult``, or ``BatchResult``) for callers that need the
    deep data; it never crosses the wire.
    """

    machine: str
    backend: str
    stage: int
    direction: str
    kind: str
    blocks: int = 0
    ops: int = 0
    cycles: int = 0
    attempts: int = 0
    attempts_per_op: float = 0.0
    options_per_attempt: float = 0.0
    checks_per_attempt: float = 0.0
    wall_seconds: float = 0.0
    schedules: List[Any] = field(default_factory=list)
    errors: List[BlockFailure] = field(default_factory=list)
    verify: Optional[Dict[str, Any]] = None
    exact: Optional[Dict[str, Any]] = None
    resilience: Optional[Dict[str, Any]] = None
    cache: Optional[Dict[str, Any]] = None
    batched: Optional[Dict[str, Any]] = None
    request_id: str = ""
    result: Any = field(default=None, repr=False)
    #: Detached trace-span dicts captured while producing this
    #: response; the server grafts them under its ``server:request``
    #: span.  Never serialized.
    captured_spans: List[Dict[str, Any]] = field(
        default_factory=list, repr=False
    )

    @property
    def ok(self) -> bool:
        """No quarantined blocks and no failed verification."""
        if self.errors:
            return False
        if self.verify is not None and not self.verify.get("ok", True):
            return False
        return True

    def signature(self) -> tuple:
        """Digest of every block schedule, in input order."""
        return tuple(s.signature() for s in self.schedules)

    def to_dict(self, include_schedules: bool = True) -> Dict[str, Any]:
        """The JSON-ready wire form (server responses, CLI ``--json``)."""
        payload: Dict[str, Any] = {
            "request_id": self.request_id,
            "machine": self.machine,
            "backend": self.backend,
            "stage": self.stage,
            "direction": self.direction,
            "kind": self.kind,
            "ok": self.ok,
            "blocks": self.blocks,
            "ops": self.ops,
            "cycles": self.cycles,
            "attempts": self.attempts,
            "attempts_per_op": self.attempts_per_op,
            "options_per_attempt": self.options_per_attempt,
            "checks_per_attempt": self.checks_per_attempt,
            "wall_seconds": self.wall_seconds,
            "errors": [failure.to_dict() for failure in self.errors],
        }
        if include_schedules:
            payload["schedules"] = [
                _schedule_payload(s) for s in self.schedules
            ]
        for key in ("verify", "exact", "resilience", "cache", "batched"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload

    # ------------------------------------------------------------------
    # Constructors from the three underlying result shapes
    # ------------------------------------------------------------------

    @classmethod
    def from_run(
        cls, request: ScheduleRequest, run, wall_seconds: float = 0.0,
        verify_report=None,
    ) -> "ScheduleResponse":
        """Wrap a list-scheduler :class:`RunResult`."""
        schedules = list(run.schedules or [])
        return cls(
            machine=request.machine_name,
            backend=request.backend_name,
            stage=request.stage,
            direction=request.direction,
            kind="list",
            blocks=len(schedules),
            ops=run.total_ops,
            cycles=run.total_cycles,
            attempts=run.stats.attempts,
            attempts_per_op=run.attempts_per_op,
            options_per_attempt=run.stats.options_per_attempt,
            checks_per_attempt=run.stats.checks_per_attempt,
            wall_seconds=wall_seconds,
            schedules=schedules,
            verify=(
                verify_report.summary()
                if verify_report is not None else None
            ),
            request_id=request.request_id,
            result=run,
        )

    @classmethod
    def from_exact(
        cls, request: ScheduleRequest, run, wall_seconds: float = 0.0,
        verify_report=None,
    ) -> "ScheduleResponse":
        """Wrap an :class:`ExactRunResult`."""
        schedules = [entry.schedule for entry in run.results]
        return cls(
            machine=request.machine_name,
            backend=request.backend_name,
            stage=request.stage,
            direction=request.direction,
            kind="exact",
            blocks=len(schedules),
            ops=run.total_ops,
            cycles=run.total_cycles,
            wall_seconds=wall_seconds,
            schedules=schedules,
            verify=(
                verify_report.summary()
                if verify_report is not None else None
            ),
            exact={
                "heuristic_cycles": run.heuristic_cycles,
                "gap_cycles": run.gap_cycles,
                "optimal_blocks": run.optimal_blocks,
                "nodes": run.nodes,
                "repairs": run.repairs,
                "pruned": run.pruned,
            },
            request_id=request.request_id,
            result=run,
        )

    @classmethod
    def from_batch(
        cls, request: BatchRequest, result, wall_seconds: float = 0.0,
    ) -> "ScheduleResponse":
        """Wrap a :class:`BatchResult`."""
        stats = result.stats
        return cls(
            machine=result.machine_name,
            backend=result.backend,
            stage=request.config.stage,
            direction=request.config.direction,
            kind="batch",
            blocks=len(result.schedules),
            ops=result.total_ops,
            cycles=result.total_cycles,
            attempts=stats.attempts,
            attempts_per_op=result.attempts_per_op,
            options_per_attempt=stats.options_per_attempt,
            checks_per_attempt=stats.checks_per_attempt,
            wall_seconds=wall_seconds,
            schedules=list(result.schedules),
            errors=list(result.errors),
            verify=(
                result.verify_report.summary()
                if result.verify_report is not None else None
            ),
            resilience=result.resilience_summary(),
            cache=result.cache_summary(),
            request_id=request.request_id,
            result=result,
        )


__all__ = [
    "BatchConfig",
    "BatchRequest",
    "DEFAULT_BACKEND",
    "DIRECTIONS",
    "ON_ERROR_MODES",
    "ScheduleRequest",
    "ScheduleResponse",
    "new_request_id",
]
