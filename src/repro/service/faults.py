"""Deterministic fault injection for the batch service.

The resilience layer (:mod:`repro.service.resilience`) claims that a
batch run survives transient scheduling errors and corrupt disk-cache
entries *without changing its output*.  That claim is only testable if
the faults themselves are reproducible, so this module injects them by
**seeded rule**, not by chance: every rule names the chunk index and
attempt numbers it fires on, which makes a fault profile a pure
function of the batch partition -- the same property the service's
determinism contract is built on.

Faults are off unless a plan is installed programmatically
(:func:`install` / :func:`injected`) or via the ``REPRO_FAULTS``
environment variable (mirroring ``REPRO_OBS``).  The spec grammar is a
``;``-separated rule list::

    REPRO_FAULTS="seed=42;sched@0#0,1;corrupt@2"

    rule    := kind '@' chunk ['#' attempts]
    kind    := 'sched' | 'corrupt'
    attempts:= '*' | int (',' int)*      (default: first attempt only)

* ``sched``  -- raise a transient :class:`~repro.errors.SchedulingError`.
* ``corrupt``-- scribble over every published LMDES artifact in the
  run's cache directory, so the next description load exercises the
  disk tier's quarantine-and-rebuild path for real.

``attempts`` defaults to ``(0,)``: a fault fires on its chunk's first
attempt and not on retries, which is what *transient* means here.
``#*`` makes a fault deterministic (fires on every attempt) -- the
profile used to prove poisoned-chunk isolation.

Faults never fire inside the driver's quarantine/isolation path
(:func:`suppressed`): isolation is the last-resort clean re-run that
decides whether a failure was the chunk's or a block's, and injecting
there would make every fault look like a poisoned block.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.errors import SchedulingError

logger = logging.getLogger("repro.service.faults")

#: Recognised fault kinds, in the order multiple matches are applied.
KINDS = ("corrupt", "sched")

#: Environment variable holding the process-wide fault spec.
ENV_VAR = "REPRO_FAULTS"

#: What corrupt rules overwrite artifacts with -- deliberately not
#: JSON, so ``load_lmdes`` fails structurally, not subtly.
CORRUPT_BYTES = b"\x00repro-fault-injection: corrupted artifact\x00"


@dataclass(frozen=True)
class FaultRule:
    """One seeded fault: *kind* fires when *chunk* runs at *attempts*.

    ``attempts`` is the tuple of attempt numbers the rule fires on; the
    empty tuple means every attempt (a deterministic, non-transient
    fault).
    """

    kind: str
    chunk: int
    attempts: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if self.chunk < 0:
            raise ValueError(f"fault chunk must be >= 0: {self.chunk}")

    def matches(self, chunk: int, attempt: int) -> bool:
        if chunk != self.chunk:
            return False
        return not self.attempts or attempt in self.attempts

    def spec(self) -> str:
        """This rule in the ``REPRO_FAULTS`` grammar."""
        text = f"{self.kind}@{self.chunk}"
        if not self.attempts:
            text += "#*"
        elif self.attempts != (0,):
            text += "#" + ",".join(str(a) for a in self.attempts)
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A full seeded fault profile for one batch run."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def rules_for(self, chunk: int, attempt: int) -> List[FaultRule]:
        """Matching rules in application order (corrupt before sched)."""
        matched = [r for r in self.rules if r.matches(chunk, attempt)]
        matched.sort(key=lambda rule: KINDS.index(rule.kind))
        return matched

    def spec(self) -> str:
        """The plan in the ``REPRO_FAULTS`` grammar (parse round-trip)."""
        parts = [f"seed={self.seed}"]
        parts.extend(rule.spec() for rule in self.rules)
        return ";".join(parts)

    def __bool__(self) -> bool:
        return bool(self.rules)


def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    rules: List[FaultRule] = []
    seed = 0
    for raw in spec.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        if entry.startswith("seed="):
            seed = int(entry[len("seed="):])
            continue
        if "@" not in entry:
            raise ValueError(
                f"bad fault rule {entry!r}: expected kind@chunk[#attempts]"
            )
        kind, _, rest = entry.partition("@")
        attempts: Tuple[int, ...] = (0,)
        if "#" in rest:
            rest, _, attempts_text = rest.partition("#")
            if attempts_text.strip() == "*":
                attempts = ()
            else:
                attempts = tuple(
                    int(a) for a in attempts_text.split(",") if a.strip()
                )
        rules.append(
            FaultRule(kind=kind.strip(), chunk=int(rest), attempts=attempts)
        )
    return FaultPlan(rules=tuple(rules), seed=seed)


# ----------------------------------------------------------------------
# Process-wide plan state
# ----------------------------------------------------------------------

#: Programmatically installed plan; overrides the environment.
_PLAN: Optional[FaultPlan] = None

#: While > 0, no fault fires (the driver's isolation/quarantine path).
_SUPPRESS_DEPTH = 0


def install(plan: Optional[FaultPlan]) -> None:
    """Install a plan for this process (``None`` reverts to the env)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Remove any programmatically installed plan."""
    install(None)


def current_plan() -> Optional[FaultPlan]:
    """The active plan: the installed one, else ``REPRO_FAULTS``."""
    if _PLAN is not None:
        return _PLAN
    spec = os.environ.get(ENV_VAR, "").strip()
    if not spec:
        return None
    return parse_faults(spec)


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Temporarily install a plan (test scaffolding)."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


@contextmanager
def suppressed() -> Iterator[None]:
    """Disable fault firing for a region (the isolation re-run path)."""
    global _SUPPRESS_DEPTH
    _SUPPRESS_DEPTH += 1
    try:
        yield
    finally:
        _SUPPRESS_DEPTH -= 1


# ----------------------------------------------------------------------
# The injection hook
# ----------------------------------------------------------------------


def _corrupt_cache_dir(cache_dir: Optional[str]) -> int:
    """Overwrite every published artifact in ``cache_dir``; returns count.

    The corruption is real bytes on disk, so recovery runs through the
    production quarantine path in :mod:`repro.engine.diskcache`, not a
    mock.
    """
    if not cache_dir:
        return 0
    corrupted = 0
    for path in sorted(Path(cache_dir).glob("*.lmdes.json")):
        try:
            path.write_bytes(CORRUPT_BYTES)
            corrupted += 1
        except OSError:  # pragma: no cover - fs race; injection is best-effort
            pass
    return corrupted


def apply_chunk_faults(
    plan: Optional[FaultPlan],
    chunk: int,
    attempt: int,
    cache_dir: Optional[str] = None,
) -> None:
    """Fire every rule matching ``(chunk, attempt)``; called per attempt.

    Runs before the chunk's trace capture opens, so a faulted attempt
    leaves no spans behind -- the recovered trace stays identical to a
    clean run's.
    """
    if plan is None or _SUPPRESS_DEPTH:
        return
    for rule in plan.rules_for(chunk, attempt):
        logger.warning(
            "injecting fault %s on chunk %d attempt %d",
            rule.spec(), chunk, attempt,
        )
        if rule.kind == "corrupt":
            count = _corrupt_cache_dir(cache_dir)
            logger.warning(
                "fault injection corrupted %d cache artifact(s) in %s",
                count, cache_dir,
            )
        elif rule.kind == "sched":
            raise SchedulingError(
                f"injected transient fault (chunk {chunk}, "
                f"attempt {attempt})"
            )


__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "KINDS",
    "apply_chunk_faults",
    "clear",
    "current_plan",
    "injected",
    "install",
    "parse_faults",
    "suppressed",
]
