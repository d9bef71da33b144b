"""The fault-tolerant batch-scheduling driver.

A workload of basic blocks is split into chunks, the chunks are
scheduled in process one after another, and the results are reassembled
in input order with every chunk's :class:`CheckStats` and
:class:`CacheStats` folded through their ``__iadd__`` merges.

Determinism is the design center, because the differential harness
asserts bit-for-bit identical schedules and identical summed statistics
for ``schedule_batch`` and a hand-chunked serial reference:

* Chunks are formed purely from the input order and ``chunk_size``.
* Every chunk gets a **fresh engine instance** over the (shared)
  compiled description.  Engine-level memo state -- the automaton
  backend's transition table -- therefore starts empty per chunk, which
  makes the summed stats a pure function of the chunk partition.
* Each chunk's trace is captured against a detached stack and grafted
  back under the ``service:batch`` span only when the attempt succeeds.

The same properties make the driver *fault-tolerant* without weakening
the contract (:mod:`repro.service.resilience`): a failed chunk
attempt's partial outcome -- schedules, stats, spans -- is discarded
wholesale and the chunk is re-run against a fresh engine, so the outcome
that finally lands is byte-identical to a clean run's.  Recovery is
layered:

1. **Chunk retries** -- a retryable failure (transient
   ``SchedulingError``, cache corruption, an ``OSError``) consumes one
   unit of the chunk's :class:`RetryPolicy` budget and the chunk is
   re-run after a deterministic backoff.
2. **Isolation** -- a chunk that exhausts its retry budget is probed
   block by block (fault injection suppressed): deterministically
   failing blocks are quarantined as typed
   :class:`~repro.service.resilience.BlockFailure` records and the
   survivors are re-run as one clean chunk.

Every retry and quarantine emits ``repro.obs`` counters and a
``resilience:*`` span.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.engine.base import QueryEngine
from repro.engine.cache import CacheStats, DescriptionCache
from repro.engine.diskcache import DiskDescriptionCache
from repro.engine.registry import create_engine
from repro.engine.table import TableEngine
from repro.errors import ServiceError, VerificationError
from repro.ir.block import BasicBlock
from repro.lowlevel.checker import CheckStats
from repro.machines import get_machine
from repro.scheduler import ListScheduler, BlockSchedule, schedule_workload
from repro.service import faults
# The request vocabulary lives in repro.service.models; re-exported here
# because BatchConfig grew up in this module and callers import it from
# either place.
from repro.service.models import (
    BatchConfig,
    BatchRequest,
    DEFAULT_BACKEND,
    ON_ERROR_MODES,
)
from repro.service.resilience import BlockFailure, RetryPolicy, is_retryable
from repro.transforms.pipeline import FINAL_STAGE

logger = logging.getLogger("repro.service.batch")


@dataclass
class BatchResult:
    """Aggregate outcome of one batch run, in input block order.

    When blocks were quarantined (``on_error="report"``), ``schedules``
    holds the survivors in input order and ``errors`` the typed
    :class:`BlockFailure` records -- one per missing block.
    """

    machine_name: str
    backend: str
    chunk_count: int = 0
    total_ops: int = 0
    total_cycles: int = 0
    schedules: List[BlockSchedule] = field(default_factory=list)
    stats: CheckStats = field(default_factory=CheckStats)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    errors: List[BlockFailure] = field(default_factory=list)
    retries: int = 0
    #: Oracle report when the run asked for ``BatchConfig.verify``.
    verify_report: Optional[Any] = None

    @property
    def attempts_per_op(self) -> float:
        """Average scheduling attempts per operation."""
        return self.stats.attempts / self.total_ops if self.total_ops else 0.0

    @property
    def quarantined(self) -> int:
        """Blocks isolated as deterministic failures."""
        return len(self.errors)

    def signature(self) -> tuple:
        """Digest of every block schedule, in input order."""
        return tuple(schedule.signature() for schedule in self.schedules)

    def resilience_summary(self) -> Dict[str, int]:
        """The ``resilience`` block of every JSON view of this run."""
        return {"retries": self.retries, "quarantined": self.quarantined}

    def cache_summary(self) -> Dict[str, int]:
        """The ``cache`` block of every JSON view of this run."""
        cache = self.cache_stats
        return {
            "memory_hits": cache.hits,
            "memory_misses": cache.misses,
            "disk_hits": cache.disk_hits,
            "disk_misses": cache.disk_misses,
            "disk_stores": cache.disk_stores,
            "disk_quarantined": cache.disk_quarantined,
        }


@dataclass
class _ChunkOutcome:
    """One successful chunk attempt: what the driver folds in.

    ``spans`` carries the attempt's trace as plain dicts from a detached
    capture; the driver grafts them under ``service:batch``, so a failed
    attempt leaves no spans behind.
    """

    schedules: List[BlockSchedule]
    stats: CheckStats
    cache_stats: CacheStats
    spans: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class _ChunkState:
    """Driver-side bookkeeping for one chunk.

    ``attempts`` counts failed attempts so far: the next attempt's
    fault-injection key, and the backoff exponent of a retry.
    """

    index: int
    blocks: List[BasicBlock]
    offset: int
    attempts: int = 0


def _chunk_blocks(
    blocks: Sequence[BasicBlock], chunk_size: int
) -> List[List[BasicBlock]]:
    return [
        list(blocks[start : start + chunk_size])
        for start in range(0, len(blocks), chunk_size)
    ]


#: Per-process memo of LMDES files already loaded (path -> compiled).
_LMDES_FILES: dict = {}


def _make_engine(
    machine, config: BatchConfig, cache: DescriptionCache
) -> QueryEngine:
    if config.lmdes_path:
        compiled = _LMDES_FILES.get(config.lmdes_path)
        if compiled is None:
            from repro.lowlevel.serialize import load_lmdes

            with open(config.lmdes_path) as handle:
                compiled = load_lmdes(handle.read())
            _LMDES_FILES[config.lmdes_path] = compiled
        return TableEngine(compiled)
    return create_engine(
        config.backend or DEFAULT_BACKEND,
        machine,
        stage=config.stage,
        cache=cache,
    )


def _schedule_chunk(
    machine,
    index: int,
    blocks: List[BasicBlock],
    config: BatchConfig,
    cache: DescriptionCache,
) -> _ChunkOutcome:
    cache_before = cache.stats.copy()
    with obs.capture() as captured:
        with obs.span(
            "batch:chunk", memory=True, index=index, blocks=len(blocks)
        ) as sp:
            engine = _make_engine(machine, config, cache)
            run = schedule_workload(
                machine,
                None,
                blocks,
                keep_schedules=True,
                direction=config.direction,
                engine=engine,
            )
            if obs.enabled():
                sp.set(ops=run.total_ops, attempts=run.stats.attempts)
    return _ChunkOutcome(
        schedules=run.schedules or [],
        stats=run.stats,
        cache_stats=cache.stats.since(cache_before),
        spans=captured.spans,
    )


# ----------------------------------------------------------------------
# Recovery paths
# ----------------------------------------------------------------------


def _record_retry(
    state: _ChunkState, error: BaseException, config: BatchConfig
) -> None:
    """Log one retry and sleep out the deterministic backoff."""
    reason = type(error).__name__
    delay = config.retry.delay(state.index, state.attempts)
    logger.warning(
        "retrying batch chunk %d (failure %d/%d, %s) after %.3fs",
        state.index, state.attempts, config.retry.retries, reason, delay,
    )
    obs.count(
        "repro_resilience_retries_total",
        help="Chunk retries by failure type.", reason=reason,
    )
    with obs.span(
        "resilience:retry", chunk=state.index,
        failure=state.attempts, reason=reason,
    ):
        if delay > 0:
            time.sleep(delay)


def _isolate_chunk(
    machine,
    state: _ChunkState,
    config: BatchConfig,
    cache: DescriptionCache,
) -> Tuple[_ChunkOutcome, List[BlockFailure]]:
    """Quarantine a chunk that failed deterministically across retries.

    Each block is probed on its own engine (fault injection suppressed,
    probe traces discarded): blocks that still fail are quarantined as
    :class:`BlockFailure` records, and the survivors are re-run as one
    clean chunk through the normal path -- so a chunk-level flake that
    exhausted its budget still produces an outcome byte-identical to a
    clean run's.
    """
    failures: List[BlockFailure] = []
    survivors: List[BasicBlock] = []
    with faults.suppressed():
        with obs.span(
            "resilience:isolate", chunk=state.index,
            blocks=len(state.blocks),
        ) as sp:
            with obs.capture():
                # Probe pass: per-block verdicts only; spans and stats
                # from probing are deliberately thrown away.
                for offset, block in enumerate(state.blocks):
                    try:
                        engine = _make_engine(machine, config, cache)
                        ListScheduler(
                            machine, None, direction=config.direction,
                            engine=engine,
                        ).schedule_block(block)
                    except Exception as exc:
                        failures.append(BlockFailure.from_exception(
                            state.offset + offset, machine.name,
                            state.index, state.attempts, exc,
                        ))
                    else:
                        survivors.append(block)
            try:
                outcome = _schedule_chunk(
                    machine, state.index, survivors, config, cache
                )
            except Exception as exc:  # pragma: no cover - probe passed
                logger.exception(
                    "isolated chunk %d failed its clean re-run",
                    state.index,
                )
                failures = [
                    BlockFailure.from_exception(
                        state.offset + offset, machine.name,
                        state.index, state.attempts, exc,
                    )
                    for offset in range(len(state.blocks))
                ]
                outcome = _ChunkOutcome([], CheckStats(), CacheStats())
            if obs.enabled():
                sp.set(quarantined=len(failures))
    for failure in failures:
        logger.error(
            "quarantined block %d (chunk %d, machine %s) after %d "
            "attempt(s): %s: %s",
            failure.block_index, failure.chunk_index, failure.machine,
            failure.attempts, failure.error_type, failure.message,
        )
    obs.count(
        "repro_resilience_quarantined_blocks_total", len(failures),
        help="Blocks isolated as deterministic failures.",
    )
    return outcome, failures


def _run_chunk(
    machine,
    state: _ChunkState,
    config: BatchConfig,
    plan: Optional[faults.FaultPlan],
    cache: DescriptionCache,
    result: BatchResult,
) -> _ChunkOutcome:
    """One chunk through its retries, then isolation if they run out.

    Retries are counted and quarantined blocks recorded on ``result``.
    """
    while True:
        try:
            faults.apply_chunk_faults(
                plan, state.index, state.attempts,
                cache_dir=config.cache_dir,
            )
            return _schedule_chunk(
                machine, state.index, state.blocks, config, cache
            )
        except Exception as exc:
            state.attempts += 1
            if is_retryable(exc) and state.attempts <= config.retry.retries:
                result.retries += 1
                _record_retry(state, exc, config)
                continue
            outcome, failures = _isolate_chunk(machine, state, config, cache)
            result.errors.extend(failures)
            return outcome


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def schedule_batch(
    machine: Union[str, object, BatchRequest],
    blocks: Optional[Sequence[BasicBlock]] = None,
    config: Optional[BatchConfig] = None,
    *,
    cache: Optional[DescriptionCache] = None,
) -> BatchResult:
    """Schedule a workload of blocks in chunks, in process.

    The first argument is either a validated
    :class:`~repro.service.models.BatchRequest` (the canonical calling
    convention -- ``blocks`` and ``config`` must then be omitted), or a
    registered machine name / :class:`~repro.machines.base.Machine`
    with the blocks and config passed alongside.  Results come back in
    input block order.

    ``cache`` lends the run a long-lived description cache (the server
    tier's warm process-wide cache) instead of the per-call default, so
    a description compiles at most once across every request that
    shares the cache.

    Recoverable faults (transient scheduling errors, corrupt cache
    entries) are retried under ``config.retry`` without changing the
    result; blocks that fail deterministically are quarantined and
    either reported (``on_error="report"``) or raised as a
    :class:`~repro.errors.ServiceError` (``on_error="raise"``).
    """
    if isinstance(machine, BatchRequest):
        if blocks is not None or config is not None:
            raise TypeError(
                "schedule_batch(BatchRequest) takes no separate "
                "blocks/config arguments"
            )
        request = machine.validate()
        machine = request.machine
        blocks = request.resolve_blocks()
        config = request.config
    config = config or BatchConfig()
    config.validate()
    if isinstance(machine, str):
        machine = get_machine(machine)
    if cache is None:
        cache = DescriptionCache(
            disk=DiskDescriptionCache(config.cache_dir)
            if config.cache_dir else None
        )
    plan = faults.current_plan()
    block_list = list(blocks)
    chunks = _chunk_blocks(block_list, config.chunk_size)

    result = BatchResult(
        machine_name=machine.name,
        backend=config.backend_label,
        chunk_count=len(chunks),
    )
    with obs.span(
        "service:batch", memory=True, machine=machine.name,
        backend=config.backend_label, chunks=len(chunks),
    ) as sp:
        for index, chunk in enumerate(chunks):
            state = _ChunkState(
                index=index, blocks=chunk, offset=index * config.chunk_size
            )
            outcome = _run_chunk(machine, state, config, plan, cache, result)
            result.schedules.extend(outcome.schedules)
            result.stats += outcome.stats
            result.cache_stats += outcome.cache_stats
            obs.attach(outcome.spans)
        result.total_ops = sum(len(s.block) for s in result.schedules)
        result.total_cycles = sum(s.length for s in result.schedules)
        if obs.enabled():
            sp.set(ops=result.total_ops, cycles=result.total_cycles)
            obs.count(
                "repro_batch_chunks_total", len(chunks),
                help="Chunks dispatched by the batch service.",
                backend=config.backend_label,
            )
            obs.count(
                "repro_batch_runs_total",
                help="Batch-service runs.",
                backend=config.backend_label,
            )
    if obs.enabled():
        obs.observe(
            "repro_batch_seconds", sp.seconds,
            help="Wall seconds per batch-service run.",
            backend=config.backend_label,
        )
    if config.verify:
        # Late import: repro.verify sits above the service layer.
        from repro.verify import verify_schedule

        with obs.span(
            "verify:batch", machine=machine.name,
            blocks=len(result.schedules),
        ):
            result.verify_report = verify_schedule(
                machine, result.schedules, direction=config.direction
            )
        obs.count(
            "repro_verify_batch_runs_total",
            help="Batch runs verified by the oracle.",
            ok=str(result.verify_report.ok).lower(),
        )
    if result.errors and config.on_error == "raise":
        raise ServiceError(
            f"{len(result.errors)} block(s) quarantined out of "
            f"{len(block_list)} on {machine.name}",
            failures=result.errors,
        )
    if (
        result.verify_report is not None
        and not result.verify_report.ok
        and config.on_error == "raise"
    ):
        raise VerificationError(
            f"oracle rejected {machine.name} batch: "
            f"{len(result.verify_report.diagnostics)} diagnostic(s) "
            f"over {result.verify_report.blocks_checked} block(s)",
            report=result.verify_report,
        )
    return result
