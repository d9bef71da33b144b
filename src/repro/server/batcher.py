"""Micro-batching: many small requests, one warm batch run.

Concurrent ``POST /v1/schedule`` requests that are *compatible* -- same
machine, backend, stage, direction, and verify flag
(:meth:`ScheduleRequest.batch_key`) -- are concatenated into a single
:class:`~repro.service.models.BatchRequest` and driven through the
fault-tolerant batch driver together, then split back apart by block
range.  One description lookup and one batch run amortized over every
rider.

Splitting is lossless because block scheduling is independent per
block: a block's schedule is a pure function of (machine, backend,
stage, direction, block), never of its neighbours in the batch.  Only
fold-order-sensitive *statistics* depend on grouping, which is why the
per-request response carries the group's shared resilience/cache
summaries plus a ``batched`` note, not a fabricated per-request stats
split.  The concurrency test in ``tests/test_server.py`` asserts the
bit-identical part.

Batches run with ``on_error="report"`` regardless of what the server
default says: one rider's quarantined block must come back as *its*
typed failure record, not poison the whole group.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import DeadlineExceededError
from repro.service.models import (
    BatchConfig,
    BatchRequest,
    ScheduleRequest,
    ScheduleResponse,
)

#: runner(batch_request) -> (BatchResult, captured span dicts)
Runner = Callable[[BatchRequest], Awaitable[Tuple[Any, List[dict]]]]


@dataclass
class _Pending:
    """One rider: its request, block count, and completion future."""

    request: ScheduleRequest
    blocks: List[Any]
    future: "asyncio.Future" = field(repr=False, default=None)


@dataclass
class _Group:
    """One open batching window (one compatibility key)."""

    key: tuple
    riders: List[_Pending] = field(default_factory=list)
    total_blocks: int = 0
    flusher: Optional["asyncio.Task"] = None


class MicroBatcher:
    """Coalesce compatible schedule requests inside a short window.

    Args:
        runner: Awaitable executing one :class:`BatchRequest` off-loop
            and returning ``(BatchResult, span_dicts)`` -- normally
            :meth:`BatchSubmitter.submit_captured`; injectable so tests
            can interpose slow or failing runs.
        base_config: Server-side :class:`BatchConfig` defaults (chunk
            size); per-request fields (backend, stage, direction,
            verify) are overlaid from the batch key.
        window_seconds: How long the first rider holds the window open
            for others to join.  Zero still batches whatever lands in
            the same event-loop tick.
        max_batch_blocks: Flush early once a window holds this many
            blocks, bounding batch latency under heavy load.
    """

    def __init__(
        self,
        runner: Runner,
        base_config: Optional[BatchConfig] = None,
        window_seconds: float = 0.004,
        max_batch_blocks: int = 4096,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(
                f"window_seconds must be >= 0: {window_seconds}"
            )
        if max_batch_blocks < 1:
            raise ValueError(
                f"max_batch_blocks must be >= 1: {max_batch_blocks}"
            )
        self._runner = runner
        self._base_config = base_config or BatchConfig()
        self.window_seconds = window_seconds
        self.max_batch_blocks = max_batch_blocks
        self._groups: Dict[tuple, _Group] = {}
        self.batches_total = 0
        self.batched_requests_total = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(self, request: ScheduleRequest) -> ScheduleResponse:
        """Ride a window; resolves to this request's own response.

        A ``deadline_seconds`` on the request bounds the *wait*: past
        it the rider resolves to a
        :class:`~repro.errors.DeadlineExceededError` even though the
        underlying batch keeps running for the other riders.
        """
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request,
            blocks=request.resolve_blocks(),
            future=loop.create_future(),
        )
        key = request.batch_key()
        group = self._groups.get(key)
        if group is None:
            group = _Group(key=key)
            self._groups[key] = group
            group.flusher = loop.create_task(self._window(key))
        group.riders.append(pending)
        group.total_blocks += len(pending.blocks)
        if group.total_blocks >= self.max_batch_blocks:
            self._close_window(key)
        if request.deadline_seconds is None:
            return await pending.future
        try:
            return await asyncio.wait_for(
                asyncio.shield(pending.future), request.deadline_seconds
            )
        except asyncio.TimeoutError:
            pending.future.add_done_callback(_swallow_result)
            raise DeadlineExceededError(
                f"request {request.request_id or '<anonymous>'} missed "
                f"its {request.deadline_seconds:g}s deadline"
            ) from None

    async def _window(self, key: tuple) -> None:
        """Hold the window open, then flush whoever joined."""
        try:
            if self.window_seconds:
                await asyncio.sleep(self.window_seconds)
        except asyncio.CancelledError:
            return  # an early flush already took the group
        group = self._groups.pop(key, None)
        if group is not None:
            await self._flush(group)

    def _close_window(self, key: tuple) -> None:
        """Flush a full window immediately (its timer is cancelled)."""
        group = self._groups.pop(key, None)
        if group is None:
            return
        if group.flusher is not None:
            group.flusher.cancel()
        asyncio.get_running_loop().create_task(self._flush(group))

    async def drain(self) -> None:
        """Flush every open window now (shutdown path)."""
        for key in list(self._groups):
            self._close_window(key)
        riders = [
            pending.future
            for group in self._groups.values()
            for pending in group.riders
        ]
        if riders:  # pragma: no cover - _close_window emptied the dict
            await asyncio.gather(*riders, return_exceptions=True)

    # ------------------------------------------------------------------
    # Flush: one batch run, split back per rider
    # ------------------------------------------------------------------

    async def _flush(self, group: _Group) -> None:
        riders = group.riders
        blocks: List[Any] = []
        for pending in riders:
            blocks.extend(pending.blocks)
        machine, backend, stage, direction, verify = group.key
        from repro.service.models import DEFAULT_BACKEND

        config = replace(
            self._base_config,
            backend=None if backend == DEFAULT_BACKEND else backend,
            stage=stage,
            direction=direction,
            verify=verify,
            on_error="report",
        )
        batch = BatchRequest(
            machine=machine, blocks=tuple(blocks), config=config,
            client="batched", request_id=riders[0].request.request_id,
        )
        started = time.perf_counter()
        try:
            result, spans = await self._runner(batch)
        except Exception as exc:
            for pending in riders:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        seconds = time.perf_counter() - started
        self.batches_total += 1
        self.batched_requests_total += len(riders)
        self._split(riders, batch, result, seconds, spans)

    def _split(
        self, riders: List[_Pending], batch: BatchRequest, result,
        seconds: float, spans: List[dict],
    ) -> None:
        """Hand each rider its slice of the group's result."""
        group_note = {
            "group_requests": len(riders),
            "group_blocks": sum(len(p.blocks) for p in riders),
            "batch_seconds": seconds,
        }
        schedules = iter(result.schedules)
        failures = sorted(result.errors, key=lambda f: f.block_index)
        failure_pos = 0
        offset = 0
        for pending in riders:
            count = len(pending.blocks)
            end = offset + count
            mine = []
            while (
                failure_pos < len(failures)
                and failures[failure_pos].block_index < end
            ):
                failure = failures[failure_pos]
                mine.append(
                    replace(failure, block_index=failure.block_index - offset)
                )
                failure_pos += 1
            survived = count - len(mine)
            my_schedules = [next(schedules) for _ in range(survived)]
            response = self._rider_response(
                pending.request, result, my_schedules, mine,
                seconds, dict(group_note, offset=offset),
            )
            if offset == 0:
                # The group's captured trace rides with the first
                # rider; the app grafts it under that request's
                # server:request span (duplicating it per rider would
                # braid N copies into the tree).
                response.captured_spans = spans
            if not pending.future.done():
                pending.future.set_result(response)
            offset = end

    def _rider_response(
        self, request: ScheduleRequest, result, schedules, errors,
        seconds: float, note: dict,
    ) -> ScheduleResponse:
        return ScheduleResponse(
            machine=request.machine_name,
            backend=request.backend_name,
            stage=request.stage,
            direction=request.direction,
            kind="batch",
            blocks=len(schedules),
            ops=sum(len(s.block) for s in schedules),
            cycles=sum(s.length for s in schedules),
            wall_seconds=seconds,
            schedules=schedules,
            errors=errors,
            verify=(
                result.verify_report.summary()
                if result.verify_report is not None else None
            ),
            resilience=result.resilience_summary(),
            cache=result.cache_summary(),
            batched=note,
            request_id=request.request_id,
            result=result,
        )


def _swallow_result(future: "asyncio.Future") -> None:
    """Retrieve an abandoned rider's outcome so asyncio stays quiet."""
    if not future.cancelled():
        future.exception()


__all__ = ["MicroBatcher"]
