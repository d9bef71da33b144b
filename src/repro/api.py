"""``repro.api`` -- the stable, supported public surface.

Users were reaching into deep module paths (``repro.engine.registry``,
``repro.service.batch``, ``repro.transforms.pipeline``) for everyday
operations, which froze internal layout into downstream code.  This
facade is the supported contract instead: everything here is re-exported
from its canonical home, named in ``__all__``, and kept stable across
refactors -- import from ``repro.api`` and internal moves stop being
your problem::

    from repro import api

    machine = api.get_machine("SuperSPARC")
    compiled = api.compile_machine(machine)          # paper's LMDES form
    engine = api.get_engine("bitvector", machine)    # any backend

    response = api.schedule(                         # one workload
        api.ScheduleRequest(machine="SuperSPARC", blocks=blocks)
    )
    response = api.schedule_batch(                   # the service path
        api.BatchRequest(
            machine="SuperSPARC", blocks=blocks,
            config=api.BatchConfig(
                retry=api.RetryPolicy(retries=2), on_error="report",
            ),
        )
    )
    for failure in response.errors:                  # typed quarantine
        print(failure.block_index, failure.error_type)
    report = api.verify_schedule(machine, response.schedules)
    assert report.ok, report.diagnostics

Every entry point takes one validated request object
(:class:`ScheduleRequest` / :class:`BatchRequest`) and returns the
uniform :class:`ScheduleResponse` envelope -- the same vocabulary the
CLI and the network tier (:mod:`repro.server`) speak.  Passing anything
else as the first argument raises :class:`TypeError`.

The error taxonomy is part of the surface: every exception the library
raises derives from :class:`ReproError`, service-layer failures from
:class:`ServiceError`, malformed requests raise :class:`RequestError`.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.engine.cache import DescriptionCache
from repro.engine.registry import create_engine, engine_names, get_engine_spec
from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    HmdesError,
    MdesError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    RequestError,
    SchedulingError,
    ServiceError,
    ShuttingDownError,
    VerificationError,
)
from repro.hmdes import load_mdes
from repro.lowlevel.compiled import CompiledMdes, compile_mdes
from repro.lowlevel.packed import (
    PACKED_WORD_BUDGET,
    numpy_available,
    packing_eligible,
)
from repro.machines import MACHINE_NAMES, get_machine
from repro.exact import (
    ExactBlockResult,
    ExactBudget,
    ExactRunResult,
    schedule_workload_exact,
)
from repro.scheduler import BlockSchedule, RunResult, schedule_workload
from repro.service import (
    DEFAULT_BACKEND,
    BatchConfig,
    BatchRequest,
    BatchResult,
    BatchSubmitter,
    BlockFailure,
    RetryPolicy,
    ScheduleRequest,
    ScheduleResponse,
)
from repro.service import schedule_batch as _service_schedule_batch
from repro.obs.prof import flamegraph, hot_spans, self_seconds
from repro.machines.synth import (
    family_names as synth_family_names,
)
from repro.machines.synth import (
    fleet_names as synth_fleet_names,
)
from repro.machines.synth import (
    machine_name as synth_machine_name,
)
from repro.sweep import SweepConfig, SweepReport, VariantResult, run_sweep
from repro.transforms.pipeline import FINAL_STAGE, staged_mdes
from repro.verify import (
    Diagnostic,
    VerifyReport,
    exact_oracle_divergences,
    verify_schedule,
)
from repro.workloads import WorkloadConfig, generate_blocks


def _resolve_machine(machine: Union[str, object]):
    """Accept a registered machine name or a machine object."""
    if isinstance(machine, str):
        return get_machine(machine)
    return machine


def compile_machine(
    machine: Union[str, object],
    stage: int = FINAL_STAGE,
    rep: str = "andor",
    bitvector: bool = True,
) -> CompiledMdes:
    """Compile a machine to its low-level (LMDES) form.

    The paper's two-tier workflow in one call: build the high-level
    description, run the transformation pipeline through ``stage``, and
    compile to the representation the schedulers query.
    """
    machine = _resolve_machine(machine)
    if rep not in ("or", "andor"):
        raise ValueError(f"rep must be 'or' or 'andor': {rep!r}")
    base = machine.build_or() if rep == "or" else machine.build_andor()
    return compile_mdes(staged_mdes(base, stage), bitvector=bitvector)


def get_engine(
    backend: str,
    machine: Union[str, object],
    stage: int = FINAL_STAGE,
    cache: Optional[DescriptionCache] = None,
):
    """Instantiate a registered query-engine backend for a machine.

    Accepts a machine name or object; otherwise identical to the
    registry's ``create_engine``.
    """
    return create_engine(
        backend, _resolve_machine(machine), stage=stage, cache=cache
    )


def _run_list_request(
    request: ScheduleRequest,
    cache: Optional[DescriptionCache] = None,
) -> RunResult:
    """Execute a validated list-scheduler request (no envelope)."""
    machine = request.resolve_machine()
    engine = create_engine(
        request.backend_name, machine, stage=request.stage, cache=cache
    )
    return schedule_workload(
        machine, None, request.resolve_blocks(),
        keep_schedules=request.keep_schedules,
        direction=request.direction, engine=engine,
    )


def _run_exact_request(
    request: ScheduleRequest,
    budget: Optional[ExactBudget] = None,
    max_block_ops: Optional[int] = None,
    cache: Optional[DescriptionCache] = None,
) -> ExactRunResult:
    """Execute a validated exact-scheduler request (no envelope)."""
    machine = request.resolve_machine()
    spec = get_engine_spec(request.backend_name)
    if spec.scheduler != "exact":
        raise RequestError(
            f"backend {request.backend_name!r} is not an exact scheduler"
        )
    engine = create_engine(
        request.backend_name, machine, stage=request.stage, cache=cache
    )
    return schedule_workload_exact(
        machine, request.resolve_blocks(), engine=engine,
        budget=budget, max_block_ops=max_block_ops,
    )


def _maybe_verify(request: ScheduleRequest, schedules):
    """Run the oracle over a response's schedules when asked to."""
    if not request.verify:
        return None
    return verify_schedule(
        request.resolve_machine(), list(schedules),
        direction=request.direction,
    )


def _require(request, request_type: type, entry: str) -> None:
    """Reject a first argument that is not the entry point's request."""
    if not isinstance(request, request_type):
        raise TypeError(
            f"{entry}() takes a repro.api.{request_type.__name__}, "
            f"not {type(request).__name__}"
        )


def schedule(
    request: ScheduleRequest,
    *,
    cache: Optional[DescriptionCache] = None,
) -> ScheduleResponse:
    """Schedule one workload in-process.

    Takes a :class:`ScheduleRequest` and returns the
    :class:`ScheduleResponse` envelope; backends registered with
    ``scheduler="exact"`` dispatch to the branch-and-bound exact
    scheduler behind the same surface.
    """
    _require(request, ScheduleRequest, "schedule")
    request = request.validate().with_request_id()
    started = time.perf_counter()
    if request.is_exact:
        run = _run_exact_request(request, cache=cache)
        report = _maybe_verify(request, run.schedules)
        return ScheduleResponse.from_exact(
            request, run, wall_seconds=time.perf_counter() - started,
            verify_report=report,
        )
    run = _run_list_request(request, cache=cache)
    report = _maybe_verify(request, run.schedules or ())
    return ScheduleResponse.from_run(
        request, run, wall_seconds=time.perf_counter() - started,
        verify_report=report,
    )


def schedule_exact(
    request: ScheduleRequest,
    *,
    budget: Optional[ExactBudget] = None,
    max_block_ops: Optional[int] = None,
    cache: Optional[DescriptionCache] = None,
) -> ScheduleResponse:
    """Schedule one workload with the branch-and-bound exact scheduler.

    The request's backend must be registered with ``scheduler="exact"``
    (the default ``None`` resolves to ``"exact"`` here).  The
    response's ``exact`` block carries the proven-optimality counters
    behind the optimality-gap benchmark
    (``benchmarks/bench_optimality.py``).
    """
    _require(request, ScheduleRequest, "schedule_exact")
    if request.backend is None:
        from dataclasses import replace

        request = replace(request, backend="exact")
    request = request.validate().with_request_id()
    started = time.perf_counter()
    run = _run_exact_request(
        request, budget=budget, max_block_ops=max_block_ops, cache=cache
    )
    report = _maybe_verify(request, run.schedules)
    return ScheduleResponse.from_exact(
        request, run, wall_seconds=time.perf_counter() - started,
        verify_report=report,
    )


def schedule_batch(
    request: BatchRequest,
    *,
    cache: Optional[DescriptionCache] = None,
) -> ScheduleResponse:
    """Schedule a workload through the fault-tolerant batch service.

    Takes a :class:`BatchRequest` and returns the
    :class:`ScheduleResponse` envelope (resilience and cache summaries
    included).  The service-layer entry point
    :func:`repro.service.schedule_batch` returns the bare
    :class:`BatchResult` instead.
    """
    _require(request, BatchRequest, "schedule_batch")
    request = request.validate().with_request_id()
    started = time.perf_counter()
    result = _service_schedule_batch(request, cache=cache)
    return ScheduleResponse.from_batch(
        request, result, wall_seconds=time.perf_counter() - started,
    )


__all__ = [
    # Entry points
    "compile_machine",
    "get_engine",
    "schedule",
    "schedule_batch",
    "schedule_exact",
    "verify_schedule",
    # Machines and workloads
    "MACHINE_NAMES",
    "get_machine",
    "load_mdes",
    "WorkloadConfig",
    "generate_blocks",
    # Engines and compiled form
    "CompiledMdes",
    "DEFAULT_BACKEND",
    "FINAL_STAGE",
    "PACKED_WORD_BUDGET",
    "engine_names",
    "numpy_available",
    "packing_eligible",
    # Request/response vocabulary
    "BatchRequest",
    "ScheduleRequest",
    "ScheduleResponse",
    # Service types
    "BatchConfig",
    "BatchResult",
    "BatchSubmitter",
    "BlockFailure",
    "RetryPolicy",
    # Results
    "BlockSchedule",
    "RunResult",
    # Exact scheduling
    "ExactBlockResult",
    "ExactBudget",
    "ExactRunResult",
    # Synthetic fleets and sweeps
    "SweepConfig",
    "SweepReport",
    "VariantResult",
    "run_sweep",
    "synth_family_names",
    "synth_fleet_names",
    "synth_machine_name",
    # Verification
    "Diagnostic",
    "VerifyReport",
    "exact_oracle_divergences",
    # Profiling
    "flamegraph",
    "hot_spans",
    "self_seconds",
    # Error taxonomy
    "VerificationError",
    "ReproError",
    "MdesError",
    "HmdesError",
    "RequestError",
    "SchedulingError",
    "ServiceError",
    "BackpressureError",
    "QueueFullError",
    "QuotaExceededError",
    "DeadlineExceededError",
    "ShuttingDownError",
]
