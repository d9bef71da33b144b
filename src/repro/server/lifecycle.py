"""Server configuration, shared state, and the startup/drain lifecycle.

One :class:`ServerState` owns everything the routes share: the warm
description cache (via :class:`~repro.service.submit.BatchSubmitter`),
the admission gate, the micro-batcher, and the folded resilience
totals.  Its lifecycle is the ASGI lifespan: ``startup`` enables
observability and prewarms descriptions; ``shutdown`` drains -- stop
admitting, flush open batch windows, wait for in-flight work, then
close the submitter.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro import obs
from repro.engine.registry import engine_names, get_engine_spec
from repro.errors import DeadlineExceededError
from repro.machines import MACHINE_NAMES, get_machine
from repro.server.batcher import MicroBatcher
from repro.server.queue import Admission, QueuePolicy
from repro.service.models import (
    BatchConfig,
    BatchRequest,
    ScheduleRequest,
    ScheduleResponse,
)
from repro.service.submit import BatchSubmitter
from repro.transforms.pipeline import FINAL_STAGE


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` can tune.

    Attributes:
        host/port: Bind address for the socket host (ignored by the
            in-process test client).
        cache_dir: Disk tier behind the warm description cache;
            ``None`` keeps the cache memory-only.
        chunk_size: Blocks per batch chunk.
        queue: Admission limits (bounded queue + per-client quota).
        window_seconds: Micro-batching window.
        max_batch_blocks: Early-flush bound on one window.
        submit_threads: Threads running batch drivers concurrently.
        prewarm: ``(machine, backend)`` pairs compiled into the warm
            cache before traffic; ``()`` prewarms nothing.
        default_deadline_seconds: Deadline applied to requests that do
            not carry one; ``None`` means no implicit deadline.
        drain_seconds: Shutdown grace before in-flight work is
            abandoned.
    """

    host: str = "127.0.0.1"
    port: int = 8181
    cache_dir: Optional[str] = None
    chunk_size: int = 32
    queue: QueuePolicy = field(default_factory=QueuePolicy)
    window_seconds: float = 0.004
    max_batch_blocks: int = 4096
    submit_threads: int = 4
    prewarm: Tuple[Tuple[str, str], ...] = ()
    default_deadline_seconds: Optional[float] = None
    drain_seconds: float = 10.0

    def batch_defaults(self) -> BatchConfig:
        """The server-side :class:`BatchConfig` base for every run."""
        return BatchConfig(
            chunk_size=self.chunk_size, cache_dir=self.cache_dir,
        )


class ServerState:
    """The shared brain behind the routes."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.submitter = BatchSubmitter(
            cache_dir=self.config.cache_dir,
            max_workers=self.config.submit_threads,
        )
        self.admission = Admission(self.config.queue)
        self.batcher = MicroBatcher(
            runner=self.submitter.submit_captured,
            base_config=self.config.batch_defaults(),
            window_seconds=self.config.window_seconds,
            max_batch_blocks=self.config.max_batch_blocks,
        )
        self.started_at = 0.0
        self.requests_total = 0
        self.errors_total = 0
        #: Folded recovery totals from every batch run served.
        self.resilience = {"retries": 0, "quarantined": 0}

    # ------------------------------------------------------------------
    # Lifespan
    # ------------------------------------------------------------------

    async def startup(self) -> None:
        """Enable observability and prewarm the description cache."""
        obs.enable()
        self.started_at = time.time()
        for machine_name, backend in self.config.prewarm:
            self.submitter.prewarm(
                get_machine(machine_name), backend, FINAL_STAGE
            )
        obs.set_gauge(
            "repro_server_up", 1.0,
            help="1 while the scheduling server is accepting requests.",
        )

    async def shutdown(self) -> None:
        """Graceful drain: refuse, flush, wait, close."""
        self.admission.draining = True
        obs.set_gauge(
            "repro_server_up", 0.0,
            help="1 while the scheduling server is accepting requests.",
        )
        await self.batcher.drain()
        deadline = time.monotonic() + self.config.drain_seconds
        while not self.admission.idle() and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self.submitter.close(wait=True)

    # ------------------------------------------------------------------
    # Request execution (admission + routing to batcher / submitter)
    # ------------------------------------------------------------------

    def _with_default_deadline(self, request):
        default = self.config.default_deadline_seconds
        if default is None or request.deadline_seconds is not None:
            return request
        from dataclasses import replace

        return replace(request, deadline_seconds=default)

    async def handle_schedule(
        self, request: ScheduleRequest
    ) -> ScheduleResponse:
        """``POST /v1/schedule``: admission, then the batcher.

        Exact-backend requests bypass the micro-batcher (the batch
        driver runs the list scheduler) and run directly against the
        warm cache in the submitter's thread pool.
        """
        request = self._with_default_deadline(request.with_request_id())
        self.admission.admit(request.client)
        started = time.perf_counter()
        try:
            if request.is_exact:
                response = await self._run_exact(request)
            else:
                response = await self.batcher.submit(request)
                # One group produces one shared resilience summary;
                # fold it once (the rider at offset 0), not per rider.
                if (response.batched or {}).get("offset", 0) == 0:
                    self._fold_resilience(response)
            return response
        finally:
            self.admission.release(
                request.client, time.perf_counter() - started
            )
            self.requests_total += 1

    async def handle_batch(
        self, request: BatchRequest
    ) -> ScheduleResponse:
        """``POST /v1/schedule/batch``: one dedicated batch run."""
        request = self._with_default_deadline(request.with_request_id())
        self.admission.admit(request.client)
        started = time.perf_counter()
        try:
            result, spans = await self._within_deadline(
                request, self.submitter.submit_captured(request)
            )
            response = ScheduleResponse.from_batch(
                request, result,
                wall_seconds=time.perf_counter() - started,
            )
            response.captured_spans = spans
            self._fold_resilience(response)
            return response
        finally:
            self.admission.release(
                request.client, time.perf_counter() - started
            )
            self.requests_total += 1

    async def _run_exact(self, request: ScheduleRequest):
        """Run an exact-backend request off-loop against the warm cache."""
        from repro import api

        loop = asyncio.get_running_loop()

        def _run():
            with obs.capture() as capture:
                response = api.schedule(request, cache=self.submitter.cache)
            return response, capture.spans

        response, spans = await self._within_deadline(
            request, loop.run_in_executor(self.submitter._executor, _run)
        )
        response.captured_spans = spans
        return response

    @staticmethod
    async def _within_deadline(request, waiter):
        """Await ``waiter``; past the request's deadline, a 504.

        The run itself is shielded and keeps going: only the client
        stops waiting for it.
        """
        if request.deadline_seconds is None:
            return await waiter
        try:
            return await asyncio.wait_for(
                asyncio.shield(waiter), request.deadline_seconds
            )
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"request {request.request_id or '<anonymous>'} "
                f"missed its {request.deadline_seconds:g}s deadline"
            ) from None

    def _fold_resilience(self, response: ScheduleResponse) -> None:
        info = response.resilience or {}
        for key in self.resilience:
            self.resilience[key] += info.get(key, 0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body."""
        status = "draining" if self.admission.draining else "ok"
        return {
            "status": status,
            "uptime_seconds": (
                round(time.time() - self.started_at, 3)
                if self.started_at else 0.0
            ),
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "admission": self.admission.summary(),
            "pool": {
                "submit_threads": self.config.submit_threads,
                "inflight_runs": self.submitter.inflight,
                "completed_runs": self.submitter.completed,
            },
            "batcher": {
                "window_seconds": self.batcher.window_seconds,
                "batches_total": self.batcher.batches_total,
                "batched_requests_total":
                    self.batcher.batched_requests_total,
            },
            "cache": self.submitter.cache_summary(),
            "resilience": dict(self.resilience),
        }

    def machines(self) -> Dict[str, Any]:
        """The ``/v1/machines`` body."""
        return {"machines": list(MACHINE_NAMES)}

    def engines(self) -> Dict[str, Any]:
        """The ``/v1/engines`` body."""
        entries = []
        for name in engine_names():
            spec = get_engine_spec(name)
            entries.append({
                "name": name,
                "scheduler": spec.scheduler,
                "min_stage": spec.min_stage,
                "max_block_ops": spec.max_block_ops,
                "description": spec.description,
            })
        return {"engines": entries}


__all__ = ["ServerConfig", "ServerState"]
