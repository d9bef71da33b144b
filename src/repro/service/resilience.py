"""Fault-tolerance policies for the batch-scheduling service.

The scheduling literature's contract for production batch compilation
is that a per-block solver failure degrades to a fallback instead of
failing the compilation unit (Castaneda Lozano & Schulte's register
allocation/instruction-scheduling survey makes the same point for
combinatorial solvers).  This module is that contract made typed and
explicit for :func:`repro.service.schedule_batch`:

* :class:`RetryPolicy` -- bounded per-chunk retries with exponential
  backoff and **deterministic** jitter: the delay for (chunk, attempt)
  is a pure function of the policy seed, so a recovered run is
  reproducible, not merely likely to converge.
* :class:`BlockFailure` -- the typed quarantine record
  ``BatchResult.errors`` collects when ``on_error="report"``: which
  block, in which chunk, after how many attempts, failing how.

The *determinism-under-retry* argument, which the differential tests in
``tests/test_resilience.py`` assert bit-for-bit: every chunk attempt
runs against a fresh engine over the same compiled description, and a
failed attempt's partial outcome (schedules, stats, spans) is discarded
wholesale.  The surviving outcome of a retried chunk is therefore
byte-identical to the outcome a clean run produces, so the reassembled
schedule list, the folded :class:`~repro.lowlevel.checker.CheckStats`,
and the grafted chunk-span tree are all invariant under any recoverable
fault profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import CacheCorruptionError, SchedulingError

#: Failure types worth retrying: transient by nature (a
#: quarantined-and-rebuilt cache entry, an I/O error) or by convention
#: (SchedulingError covers injected transients and solver give-ups that
#: a fresh attempt may clear).  Everything else -- a KeyError from an
#: unknown opcode, a ValueError from bad config -- is deterministic and
#: goes straight to isolation.
RETRYABLE_TYPES = (
    SchedulingError,
    CacheCorruptionError,
    OSError,
)


def is_retryable(error: BaseException) -> bool:
    """Whether a fresh attempt could plausibly clear this failure."""
    return isinstance(error, RETRYABLE_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Attributes:
        retries: Extra attempts per chunk after the first (0 disables
            chunk-level retry; isolation still runs).
        backoff_base: Delay before the first retry, in seconds.
        backoff_factor: Multiplier per further retry.
        backoff_max: Delay ceiling, in seconds.
        jitter: Fraction of the delay added deterministically from
            ``seed`` (0 disables; 0.5 means up to +50%).
        seed: Jitter seed; part of the run's reproducible identity.
    """

    retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    @property
    def attempts(self) -> int:
        """Total chunk attempts the policy allows."""
        return self.retries + 1

    def delay(self, chunk_index: int, attempt: int) -> float:
        """Seconds to wait before ``attempt`` of ``chunk_index``.

        ``attempt`` is 1-based here (the retry number).  The jitter
        component is drawn from a PRNG seeded by (seed, chunk, attempt),
        so two runs of the same policy back off identically -- recovered
        runs are reproducible end to end.
        """
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if not self.jitter:
            return base
        fraction = random.Random(
            f"{self.seed}|{chunk_index}|{attempt}"
        ).random()
        return base * (1.0 + self.jitter * fraction)


@dataclass(frozen=True)
class BlockFailure:
    """One quarantined block: the typed record in ``BatchResult.errors``.

    Attributes:
        block_index: Global index into the batch's input block list.
        machine: Machine the batch ran against.
        chunk_index: Chunk the block arrived in.
        attempts: Chunk attempts consumed before isolation gave up.
        error_type: Exception class name of the final cause.
        message: Final cause, stringified, so the record stays plain
            JSON-ready data.
    """

    block_index: int
    machine: str
    chunk_index: int
    attempts: int
    error_type: str
    message: str

    @classmethod
    def from_exception(
        cls, block_index: int, machine: str, chunk_index: int,
        attempts: int, error: BaseException,
    ) -> "BlockFailure":
        return cls(
            block_index=block_index,
            machine=machine,
            chunk_index=chunk_index,
            attempts=attempts,
            error_type=type(error).__name__,
            message=str(error),
        )

    def to_dict(self) -> dict:
        """JSON-ready form for CLI reports."""
        return {
            "block_index": self.block_index,
            "machine": self.machine,
            "chunk_index": self.chunk_index,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
        }


__all__ = [
    "BlockFailure",
    "RETRYABLE_TYPES",
    "RetryPolicy",
    "is_retryable",
]
