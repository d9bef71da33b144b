"""Batch-scheduling service layer.

Schedules a workload of basic blocks in chunks, in process, compiling
the machine description once into an in-memory cache -- or loading a
shipped LMDES file (``BatchConfig(lmdes_path=...)``), the paper's "load
the low-level file quickly" workflow (section 4)::

    from repro.service import BatchConfig, RetryPolicy, schedule_batch

    result = schedule_batch(
        "SuperSPARC", blocks,
        BatchConfig(backend="bitvector", retry=RetryPolicy(retries=2)),
    )
    result.signature()     # one digest per block, in input order
    result.stats           # CheckStats, folded across chunks
    result.cache_stats     # LRU hit/miss counters
    result.errors          # typed BlockFailure quarantine records

The service is fault-tolerant by construction
(:mod:`repro.service.resilience`): transient scheduling errors are
retried without changing the result, blocks that fail
deterministically are quarantined, and the deterministic
fault-injection harness (:mod:`repro.service.faults`, gated by
``REPRO_FAULTS``) exists so tests can prove exactly that.
"""

from repro.service.batch import BatchResult, schedule_batch
from repro.service.faults import FaultPlan, FaultRule, parse_faults
from repro.service.models import (
    DEFAULT_BACKEND,
    ON_ERROR_MODES,
    BatchConfig,
    BatchRequest,
    ScheduleRequest,
    ScheduleResponse,
)
from repro.service.resilience import (
    BlockFailure,
    RetryPolicy,
    is_retryable,
)
from repro.service.submit import BatchSubmitter

__all__ = [
    "BatchConfig",
    "BatchRequest",
    "BatchResult",
    "BatchSubmitter",
    "BlockFailure",
    "DEFAULT_BACKEND",
    "FaultPlan",
    "FaultRule",
    "ON_ERROR_MODES",
    "RetryPolicy",
    "ScheduleRequest",
    "ScheduleResponse",
    "is_retryable",
    "parse_faults",
    "schedule_batch",
]
