"""The batch driver's async submission path.

:class:`BatchSubmitter` is the bridge between an asyncio event loop
(the server tier) and the synchronous
:func:`~repro.service.batch.schedule_batch`: requests are handed to a
small thread pool via ``run_in_executor`` so the loop never blocks on a
compile or a schedule, while every run schedules out of one long-lived
warm :class:`~repro.engine.cache.DescriptionCache` -- the paper's
compile-once-use-many story held open across requests instead of
rebuilt per invocation.

The submitter is deliberately loop-free state: it owns the warm cache
and the executor, nothing else.  Admission control, batching windows,
and deadlines live above it (:mod:`repro.server`); plain synchronous
callers can use :meth:`run` directly.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.engine.cache import DescriptionCache
from repro.engine.diskcache import DiskDescriptionCache
from repro.errors import ShuttingDownError
from repro.service.models import BatchRequest
from repro.service.batch import BatchResult, schedule_batch


class BatchSubmitter:
    """Run :class:`BatchRequest`\\ s against one warm description cache.

    Args:
        cache_dir: Disk tier for the warm cache; ``None`` keeps it
            memory-only.
        max_workers: Threads running batch drivers concurrently; they
            keep compiles and schedules off the event loop.
        cache: Lend an existing cache instead of building one (tests,
            or sharing with a prewarmed registry).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_workers: int = 4,
        cache: Optional[DescriptionCache] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {max_workers}")
        if cache is None:
            disk = DiskDescriptionCache(cache_dir) if cache_dir else None
            cache = DescriptionCache(disk=disk, name="server")
        self.cache = cache
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-submit"
        )
        self._lock = threading.Lock()
        self._closed = False
        self._inflight = 0
        self._completed = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, request: BatchRequest) -> BatchResult:
        """Run one request synchronously on the caller's thread.

        The request's trace spans are captured (detached) rather than
        grafted into the calling thread's live trace: submitter runs
        may execute on any worker thread, and the server re-attaches
        the capture under its own ``server:*`` span.
        """
        with self._lock:
            if self._closed:
                raise ShuttingDownError(
                    "submitter is closed; no new batch runs"
                )
            self._inflight += 1
        try:
            return schedule_batch(request, cache=self.cache)
        finally:
            with self._lock:
                self._inflight -= 1
                self._completed += 1

    def run_captured(self, request: BatchRequest):
        """Like :meth:`run`, also returning the run's detached spans.

        The spans come back as plain dicts (``Span.to_dict`` form) so
        the server can graft them under its own ``server:request``
        node with :func:`repro.obs.attach`.
        """
        from repro import obs

        with obs.capture() as capture:
            result = self.run(request)
        return result, capture.spans

    async def submit_captured(self, request: BatchRequest):
        """:meth:`run_captured`, awaitable from the event loop."""
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._closed:
                raise ShuttingDownError(
                    "submitter is closed; no new batch runs"
                )
        return await loop.run_in_executor(
            self._executor, self.run_captured, request
        )

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Batch runs currently executing."""
        with self._lock:
            return self._inflight

    @property
    def completed(self) -> int:
        """Batch runs finished since construction."""
        with self._lock:
            return self._completed

    def prewarm(self, machine, backend: str, stage: int) -> None:
        """Compile one description into the warm cache ahead of traffic."""
        from repro.engine.registry import create_engine

        create_engine(backend, machine, stage=stage, cache=self.cache)

    def cache_summary(self) -> Dict[str, Any]:
        """The warm cache's counters, for ``/healthz`` and tests."""
        stats = self.cache.stats
        return {
            "entries": len(self.cache),
            "memory_hits": stats.hits,
            "memory_misses": stats.misses,
            "evictions": stats.evictions,
            "disk_hits": stats.disk_hits,
            "disk_misses": stats.disk_misses,
            "disk_stores": stats.disk_stores,
            "disk_quarantined": stats.disk_quarantined,
        }

    def close(self, wait: bool = True) -> None:
        """Refuse new runs and (optionally) wait out the in-flight ones."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "BatchSubmitter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["BatchSubmitter"]
