"""The fault-tolerant parallel batch-scheduling driver.

This is the "serve many scheduling requests fast" architecture: a
workload of basic blocks is split into chunks, the chunks are
dispatched across a ``concurrent.futures`` process pool, and the
results are reassembled in the input order with every worker's
:class:`CheckStats` and :class:`CacheStats` folded back through their
``__iadd__`` merges.

Determinism is the design center, because the differential harness
asserts bit-for-bit identical schedules and identical summed statistics
for 1 worker, N workers, and the plain serial path:

* Chunks are formed purely from the input order and ``chunk_size``;
  results come back keyed by chunk index, so the reassembled schedule
  list is independent of worker scheduling.
* Every chunk gets a **fresh engine instance** over the (shared)
  compiled description.  Engine-level memo state -- the automaton
  backend's transition table -- therefore starts empty per chunk, which
  makes the summed stats a pure function of the chunk partition rather
  than of how chunks happened to land on workers.
* Workers never compile what the parent already holds: the parent
  compiles the description once and hands it to every worker through
  the pool initializer (inherited as-is under ``fork``, pickled once
  per worker otherwise).  When seeding is skipped, workers warm up
  from the persistent disk cache
  (:class:`~repro.engine.diskcache.DiskDescriptionCache`), which
  ``load_lmdes``'s the compiled description instead of re-parsing HMDES
  and re-running the transformation pipeline -- the paper's
  ship-the-low-level-file workflow applied to our own pool.

The same properties make the driver *fault-tolerant* without weakening
the contract (:mod:`repro.service.resilience`): a failed chunk
attempt's partial outcome is discarded wholesale and the chunk is
re-dispatched against a fresh engine, so the outcome that finally lands
is byte-identical to a clean run's.  Recovery is layered:

1. **Chunk retries** -- a retryable failure (transient
   ``SchedulingError``, worker crash, timeout, cache corruption)
   consumes one unit of the chunk's :class:`RetryPolicy` budget and the
   chunk is resubmitted after a deterministic backoff.
2. **Pool restarts** -- ``BrokenProcessPool`` (a dead worker) or an
   expired :class:`TimeoutPolicy` budget abandons the pool and
   resubmits every unfinished chunk to a fresh one, at most
   ``max_pool_restarts`` times.
3. **Degradation** -- past that, the run falls back to the in-process
   serial path and finishes there.
4. **Isolation** -- a chunk that exhausts its retry budget is probed
   block by block (fault injection suppressed): deterministically
   failing blocks are quarantined as typed
   :class:`~repro.service.resilience.BlockFailure` records and the
   survivors are re-run as one clean chunk.

Every retry, timeout, restart, degradation, and quarantine emits
``repro.obs`` counters and a ``resilience:*`` span.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.engine.base import QueryEngine
from repro.engine.cache import CacheStats, DescriptionCache
from repro.engine.diskcache import (
    DiskDescriptionCache,
    is_persistent_token,
    machine_content_token,
)
from repro.engine.registry import create_engine, get_engine_spec
from repro.engine.table import TableEngine
from repro.errors import ChunkTimeoutError, ServiceError, VerificationError
from repro.ir.block import BasicBlock
from repro.lowlevel.checker import CheckStats
from repro.lowlevel.compiled import CompiledMdes
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
from repro.service.resilience import (
    BlockFailure,
    RetryPolicy,
    TimeoutPolicy,
    is_retryable,
)
from repro.transforms.pipeline import FINAL_STAGE

logger = logging.getLogger("repro.service.batch")

#: Poll interval for the pool wait loop while a chunk deadline is armed.
_WAIT_TICK = 0.05


@dataclass
class BatchResult:
    """Aggregate outcome of one batch run, in input block order.

    When blocks were quarantined (``on_error="report"``), ``schedules``
    holds the survivors in input order and ``errors`` the typed
    :class:`BlockFailure` records -- one per missing block.
    """

    machine_name: str
    backend: str
    workers: int
    chunk_count: int = 0
    total_ops: int = 0
    total_cycles: int = 0
    schedules: List[BlockSchedule] = field(default_factory=list)
    stats: CheckStats = field(default_factory=CheckStats)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    errors: List[BlockFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    #: Summed per-chunk engine-construction time, in seconds -- the
    #: setup cost seeding workers with the parent's compile collapses.
    chunk_setup_seconds: float = 0.0
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


@dataclass
class _ChunkOutcome:
    """What one chunk sends back to the driver (picklable).

    ``spans`` carries the chunk's trace as plain dicts (live spans hold
    thread-local parent pointers and must not cross the pickle
    boundary); the driver grafts them back in chunk order, so the merged
    trace is identical for 1 and N workers.
    """

    index: int
    schedules: List[BlockSchedule]
    stats: CheckStats
    cache_stats: CacheStats
    spans: List[Dict[str, Any]] = field(default_factory=list)
    setup_seconds: float = 0.0


@dataclass
class _ChunkState:
    """Driver-side bookkeeping for one chunk's dispatch lifecycle.

    ``submissions`` counts dispatches (it is the fault-injection attempt
    key and the backoff exponent); ``failures`` counts chunk-level
    failures charged against the retry budget.  A pool restart
    resubmits a chunk without charging its budget -- the chunk was
    never proven bad, its pool was.
    """

    index: int
    blocks: List[BasicBlock]
    offset: int
    submissions: int = 0
    failures: int = 0
    last_error: Optional[BaseException] = None


@dataclass
class _Tally:
    """Recovery-event counts for one run (folded into the result)."""

    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    #: Cache activity of the parent's seed compile, which runs against
    #: its own cache -- folded into the result so a seeded run still
    #: reports its cold store / warm hit / quarantine counters.
    cache_stats: CacheStats = field(default_factory=CacheStats)


def _chunk_blocks(
    blocks: Sequence[BasicBlock], chunk_size: int
) -> List[List[BasicBlock]]:
    return [
        list(blocks[start : start + chunk_size])
        for start in range(0, len(blocks), chunk_size)
    ]


# ----------------------------------------------------------------------
# Per-chunk execution (runs in the parent or in a pool worker)
# ----------------------------------------------------------------------

#: Per-process description cache for pool workers, created by
#: :func:`_init_worker`.  Forked workers deliberately build their own
#: cache rather than inheriting the parent's, so what a worker holds is
#: the initializer's seed plus the disk tier, whatever the start method.
_WORKER_CACHE: Optional[DescriptionCache] = None

#: Per-process memo of LMDES files already loaded (path -> compiled).
_LMDES_FILES: dict = {}

#: A parent-compiled description for the pool initializer: the
#: :meth:`DescriptionCache.seed_compiled` key fields and the compiled
#: form itself.
_Seed = Tuple[Tuple[str, str, str, int, bool, bool], CompiledMdes]


def _init_worker(
    cache_dir: Optional[str],
    obs_enabled: bool = False,
    plan: Optional[faults.FaultPlan] = None,
    seed: Optional[_Seed] = None,
    obs_memory: bool = False,
) -> None:
    global _WORKER_CACHE
    if obs_enabled:
        # Spawned workers start with a fresh module flag; forked ones
        # inherit it.  Either way, make the worker match the parent.
        obs.enable()
    if obs_memory:
        obs.enable_memory()
    faults.install(plan)
    disk = DiskDescriptionCache(cache_dir) if cache_dir else None
    _WORKER_CACHE = DescriptionCache(disk=disk)
    if seed is not None:
        # A plain insertion: no counters, no spans, so worker traces and
        # folded cache stats keep the shapes the differential harness
        # pins down.
        key, compiled = seed
        _WORKER_CACHE.seed_compiled(*key, compiled)


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
    # The chunk's trace is captured against a detached stack -- also on
    # the serial path -- so driver-side grafting produces one tree shape
    # regardless of the worker count.
    with obs.capture() as captured:
        with obs.span(
            "batch:chunk", memory=True, index=index, blocks=len(blocks)
        ) as sp:
            setup_start = time.perf_counter()
            engine = _make_engine(machine, config, cache)
            setup_seconds = time.perf_counter() - setup_start
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
        index=index,
        schedules=run.schedules or [],
        stats=run.stats,
        cache_stats=cache.stats.since(cache_before),
        spans=captured.spans,
        setup_seconds=setup_seconds,
    )


def _pool_chunk(
    payload: Tuple[int, int, str, List[BasicBlock], BatchConfig]
) -> _ChunkOutcome:
    index, attempt, machine_name, blocks, config = payload
    assert _WORKER_CACHE is not None, "worker initializer did not run"
    try:
        faults.apply_chunk_faults(
            faults.current_plan(), index, attempt,
            cache_dir=config.cache_dir, in_worker=True,
        )
        return _schedule_chunk(
            get_machine(machine_name), index, blocks, config, _WORKER_CACHE
        )
    except Exception:
        # The pool surfaces only the pickled exception; log the chunk's
        # identity on the worker side before it propagates.
        logger.exception(
            "batch chunk %d (%d blocks, machine %s) failed in worker",
            index, len(blocks), machine_name,
        )
        raise


# ----------------------------------------------------------------------
# Recovery paths (always run in the parent)
# ----------------------------------------------------------------------


def _record_retry(state: _ChunkState, config: BatchConfig,
                  tally: _Tally) -> None:
    """Charge one retry and sleep out the deterministic backoff."""
    tally.retries += 1
    reason = type(state.last_error).__name__
    delay = config.retry.delay(state.index, state.failures)
    logger.warning(
        "retrying batch chunk %d (failure %d/%d, %s) after %.3fs",
        state.index, state.failures, config.retry.retries, reason, delay,
    )
    obs.count(
        "repro_resilience_retries_total",
        help="Chunk retries by failure type.", reason=reason,
    )
    with obs.span(
        "resilience:retry", chunk=state.index,
        failure=state.failures, reason=reason,
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
                            state.index, state.submissions, exc,
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
                        state.index, state.submissions, exc,
                    )
                    for offset in range(len(state.blocks))
                ]
                outcome = _ChunkOutcome(
                    state.index, [], CheckStats(), CacheStats()
                )
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


def _run_serial(
    machine,
    states: List[_ChunkState],
    config: BatchConfig,
    plan: Optional[faults.FaultPlan],
    cache: DescriptionCache,
    outcomes: Dict[int, _ChunkOutcome],
    block_failures: List[BlockFailure],
    tally: _Tally,
) -> None:
    """The in-process path: one chunk at a time, retries and isolation.

    Also serves as the degradation target when the pool path gives up.
    Timeout budgets are not enforced here: a hung chunk cannot be
    preempted from its own thread (see :class:`TimeoutPolicy`).
    """
    for state in states:
        while True:
            attempt = state.submissions
            state.submissions += 1
            try:
                faults.apply_chunk_faults(
                    plan, state.index, attempt,
                    cache_dir=config.cache_dir, in_worker=False,
                )
                outcomes[state.index] = _schedule_chunk(
                    machine, state.index, state.blocks, config, cache
                )
                break
            except Exception as exc:
                state.last_error = exc
                state.failures += 1
                if is_retryable(exc) and \
                        state.failures <= config.retry.retries:
                    _record_retry(state, config, tally)
                    continue
                outcome, failures = _isolate_chunk(
                    machine, state, config, cache
                )
                outcomes[state.index] = outcome
                block_failures.extend(failures)
                break


def _shutdown_abandoned_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool we no longer trust without waiting on it.

    A hung worker would make ``shutdown(wait=True)`` block for the
    duration of the hang, so the workers are terminated outright; the
    ``_processes`` attribute is stdlib-private but has been the only
    handle on pool workers since 3.7, and termination is best-effort by
    design (an already-dead worker is fine).
    """
    try:
        processes = list((pool._processes or {}).values())
    except Exception:  # pragma: no cover - platform-dependent cleanup
        processes = []
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            logger.warning(
                "could not terminate abandoned pool worker %r", process
            )


def _seeding_enabled(
    config: BatchConfig, plan: Optional[faults.FaultPlan]
) -> bool:
    """Whether this run may seed its pool workers from the parent.

    ``lmdes_path`` runs already have their compact artifact on disk per
    worker, and cache-corruption fault profiles exist precisely to
    drive the disk tier's quarantine path -- seeding workers past the
    disk would mask the behaviour those runs are asserting.
    """
    if config.lmdes_path:
        return False
    return plan is None or not any(
        rule.kind == "corrupt" for rule in plan.rules
    )


def _compile_seed(
    machine, config: BatchConfig, tally: _Tally,
    cache: Optional[DescriptionCache] = None,
) -> Optional[_Seed]:
    """Compile once in the parent for the pool initializer (best effort).

    The compile runs against a discarded trace capture: the parent's
    span tree must stay identical whether or not seeding kicked in
    (span-merge determinism is asserted across worker counts).

    A caller-lent long-lived ``cache`` (the server's warm cache) is
    used as-is -- a warm hit seeds without recompiling -- and only this
    call's stats *delta* is folded into the tally, so a cache that
    outlives many runs is never double-counted.  On failure the workers
    compile for themselves.
    """
    try:
        spec = get_engine_spec(config.backend or DEFAULT_BACKEND)
    except KeyError:
        return None
    if config.stage < spec.min_stage:
        return None  # the worker raises the typed error on its own
    token = machine_content_token(machine)
    if not is_persistent_token(token):
        return None
    try:
        if cache is None:
            cache = DescriptionCache(
                disk=DiskDescriptionCache(config.cache_dir)
                if config.cache_dir else None
            )
        before = cache.stats.copy()
        try:
            with obs.capture():
                compiled = cache.compiled(
                    machine, spec.rep, config.stage, spec.bitvector,
                    reduce=spec.reduce,
                )
        finally:
            tally.cache_stats += cache.stats.since(before)
    except Exception:
        logger.exception(
            "could not compile %s in the parent; pool workers will "
            "compile it themselves", machine.name,
        )
        return None
    key = (machine.name, token, spec.rep, config.stage, spec.bitvector,
           spec.reduce)
    return key, compiled


def _run_pooled(
    machine,
    states: List[_ChunkState],
    config: BatchConfig,
    plan: Optional[faults.FaultPlan],
    outcomes: Dict[int, _ChunkOutcome],
    block_failures: List[BlockFailure],
    tally: _Tally,
    cache: Optional[DescriptionCache] = None,
) -> None:
    """The pool path: dispatch, watch deadlines, recover, reassemble.

    Pool generations run until every chunk has an outcome or is bound
    for isolation; ``BrokenProcessPool`` and chunk timeouts abandon the
    generation and resubmit the survivors to a fresh pool, bounded by
    ``retry.max_pool_restarts``, after which the run degrades to the
    serial path.  Every generation's workers are seeded with the one
    parent compile, so restart recovery stays warm.
    """
    seed = (
        _compile_seed(machine, config, tally, cache=cache)
        if _seeding_enabled(config, plan) else None
    )
    policy = config.retry
    budget = config.timeout.chunk_seconds
    pending: Dict[int, _ChunkState] = {s.index: s for s in states}
    to_isolate: List[_ChunkState] = []

    def submit(pool, futures, deadlines, state) -> None:
        attempt = state.submissions
        state.submissions += 1
        future = pool.submit(
            _pool_chunk,
            (state.index, attempt, machine.name, state.blocks, config),
        )
        futures[future] = state
        if budget:
            deadlines[future] = time.monotonic() + budget

    while pending:
        if tally.pool_restarts > policy.max_pool_restarts:
            tally.degraded = True
            logger.error(
                "degrading to the serial path after %d pool failure(s); "
                "%d chunk(s) remaining",
                tally.pool_restarts, len(pending),
            )
            obs.count(
                "repro_resilience_degradations_total",
                help="Batch runs degraded from the pool to serial.",
            )
            with obs.span(
                "resilience:degrade", remaining=len(pending),
                pool_restarts=tally.pool_restarts,
            ):
                cache = DescriptionCache(
                    disk=DiskDescriptionCache(config.cache_dir)
                    if config.cache_dir else None
                )
                _run_serial(
                    machine,
                    sorted(pending.values(), key=lambda s: s.index),
                    config, plan, cache, outcomes, block_failures, tally,
                )
            pending.clear()
            break

        pool = ProcessPoolExecutor(
            max_workers=config.workers,
            initializer=_init_worker,
            initargs=(config.cache_dir, obs.enabled(), plan, seed,
                      obs.memory_enabled()),
        )
        broken = False
        futures: Dict[Any, _ChunkState] = {}
        deadlines: Dict[Any, float] = {}
        try:
            for state in sorted(pending.values(), key=lambda s: s.index):
                submit(pool, futures, deadlines, state)
            while futures and not broken:
                done, _ = wait(
                    set(futures),
                    timeout=_WAIT_TICK if budget else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    state = futures.pop(future)
                    deadlines.pop(future, None)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    except Exception as exc:
                        state.last_error = exc
                        state.failures += 1
                        if is_retryable(exc) and \
                                state.failures <= policy.retries:
                            _record_retry(state, config, tally)
                            submit(pool, futures, deadlines, state)
                        else:
                            pending.pop(state.index, None)
                            to_isolate.append(state)
                    else:
                        pending.pop(state.index, None)
                        outcomes[state.index] = outcome
                if broken or not budget:
                    continue
                now = time.monotonic()
                expired = [
                    future for future, deadline in deadlines.items()
                    if now >= deadline and not future.done()
                ]
                for future in expired:
                    state = futures.pop(future)
                    deadlines.pop(future, None)
                    state.last_error = ChunkTimeoutError(
                        f"chunk {state.index} exceeded its "
                        f"{budget:g}s budget"
                    )
                    state.failures += 1
                    tally.timeouts += 1
                    logger.warning(
                        "batch chunk %d timed out after %gs "
                        "(failure %d/%d); abandoning the pool",
                        state.index, budget, state.failures,
                        policy.retries,
                    )
                    obs.count(
                        "repro_resilience_timeouts_total",
                        help="Chunk dispatches that exceeded their "
                             "wall-clock budget.",
                    )
                    with obs.span("resilience:timeout",
                                  chunk=state.index):
                        pass
                    if state.failures > policy.retries:
                        pending.pop(state.index, None)
                        to_isolate.append(state)
                    # A timed-out future cannot be cancelled (its
                    # worker is wedged), so the whole generation is
                    # abandoned; other in-flight chunks stay pending
                    # without being charged.
                    broken = True
        except BrokenProcessPool:
            broken = True
        if broken:
            tally.pool_restarts += 1
            obs.count(
                "repro_resilience_pool_restarts_total",
                help="Fresh pools built after worker death or timeout.",
            )
            with obs.span(
                "resilience:pool-restart",
                restart=tally.pool_restarts, remaining=len(pending),
            ):
                _shutdown_abandoned_pool(pool)
        else:
            pool.shutdown(wait=True)

    if to_isolate:
        cache = DescriptionCache(
            disk=DiskDescriptionCache(config.cache_dir)
            if config.cache_dir else None
        )
        for state in sorted(to_isolate, key=lambda s: s.index):
            outcome, failures = _isolate_chunk(
                machine, state, config, cache
            )
            outcomes[state.index] = outcome
            block_failures.extend(failures)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _resolve_machine(machine: Union[str, object], parallel: bool):
    if isinstance(machine, str):
        return get_machine(machine)
    if parallel:
        # Workers rebuild the machine from the registry by name; an
        # unregistered (or same-named but different) machine would
        # silently schedule against the wrong description.
        try:
            registered = get_machine(machine.name)
        except KeyError:
            registered = None
        if registered is None or machine_content_token(
            registered
        ) != machine_content_token(machine):
            raise ValueError(
                "parallel batch scheduling needs a registered machine "
                f"name; {machine.name!r} does not match the registry"
            )
    return machine


def schedule_batch(
    machine: Union[str, object, BatchRequest],
    blocks: Optional[Sequence[BasicBlock]] = None,
    config: Optional[BatchConfig] = None,
    *,
    cache: Optional[DescriptionCache] = None,
) -> BatchResult:
    """Schedule a workload of blocks, sharded across a process pool.

    The first argument is either a validated
    :class:`~repro.service.models.BatchRequest` (the canonical calling
    convention -- ``blocks`` and ``config`` must then be omitted), or a
    registered machine name / :class:`~repro.machines.base.Machine`
    with the blocks and config passed alongside.  Parallel runs require
    the machine to resolve through the registry so workers can rebuild
    it.  Results come back in input block order regardless of worker
    count, and the summed statistics are identical for any ``workers``
    value.

    ``cache`` lends the run a long-lived description cache (the server
    tier's warm process-wide cache) instead of the per-call default;
    the in-process path schedules straight out of it and the pool path
    seeds its workers from it, so a description compiles at most once
    across every request that shares the cache.

    Recoverable faults (worker death, chunk timeouts, transient
    scheduling errors, corrupt cache entries) are retried under
    ``config.retry`` / ``config.timeout`` without changing the result;
    blocks that fail deterministically are quarantined and either
    reported (``on_error="report"``) or raised as a
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
        config = request.effective_config()
    config = config or BatchConfig()
    config.validate()
    machine = _resolve_machine(machine, parallel=config.workers > 1)
    plan = faults.current_plan()
    block_list = list(blocks)
    chunks = _chunk_blocks(block_list, config.chunk_size)
    states = [
        _ChunkState(
            index=index, blocks=chunk, offset=index * config.chunk_size
        )
        for index, chunk in enumerate(chunks)
    ]

    outcomes: Dict[int, _ChunkOutcome] = {}
    block_failures: List[BlockFailure] = []
    tally = _Tally()
    with obs.span(
        "service:batch", memory=True, machine=machine.name,
        backend=config.backend_label, workers=config.workers,
        chunks=len(chunks),
    ) as sp:
        if config.workers == 1:
            if cache is None:
                cache = DescriptionCache(
                    disk=DiskDescriptionCache(config.cache_dir)
                    if config.cache_dir else None
                )
            _run_serial(
                machine, states, config, plan, cache,
                outcomes, block_failures, tally,
            )
        else:
            _run_pooled(
                machine, states, config, plan,
                outcomes, block_failures, tally, cache=cache,
            )

        result = BatchResult(
            machine_name=machine.name,
            backend=config.backend_label,
            workers=config.workers,
            chunk_count=len(chunks),
            retries=tally.retries,
            timeouts=tally.timeouts,
            pool_restarts=tally.pool_restarts,
            degraded=tally.degraded,
        )
        result.cache_stats += tally.cache_stats
        # Chunk order, not completion order: the stats fold, the
        # schedule list, and the grafted trace must not depend on pool
        # timing.
        for index in sorted(outcomes):
            outcome = outcomes[index]
            result.schedules.extend(outcome.schedules)
            result.stats += outcome.stats
            result.cache_stats += outcome.cache_stats
            result.chunk_setup_seconds += outcome.setup_seconds
            obs.attach(outcome.spans)
        result.errors = sorted(
            block_failures, key=lambda f: f.block_index
        )
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
