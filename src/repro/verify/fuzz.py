"""The differential fuzzer driver.

One fuzz *case* is a seeded draw from the description grammar plus a
synthetic workload for it.  Running a case means scheduling that
workload through the full stage x backend matrix *and* after every
individual transform stage, comparing schedules, query answers, and the
independent oracle's verdicts (see :mod:`repro.verify.differential`).
Any disagreement is a failure; failures are shrunk to minimal HMDES
reproducers before they are reported.

Everything is deterministic in ``seed``: case ``i`` of a run seeded
with ``s`` is exactly ``generate_case(s + i)``, so a CI failure line
like ``case seed 20161234`` reproduces locally with one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.mdes import Mdes
from repro.ir.block import BasicBlock
from repro.machines.base import Machine
from repro.machines.synth.grammar import (
    DEFAULT_GRAMMAR,
    FuzzGrammar,
    build_machine,
    generate_mdes,
)
from repro.verify.differential import (
    DEFAULT_STAGES,
    Divergence,
    differential_runs,
    verify_transform_stages,
)
from repro.verify.shrink import case_size, shrink_case
from repro.workloads.generator import WorkloadConfig, generate_blocks


@dataclass
class FuzzCase:
    """One generated description plus its workload."""

    seed: int
    mdes: Mdes
    machine: Machine
    blocks: List[BasicBlock]

    @property
    def source(self) -> str:
        """The HMDES source text of the case's description."""
        return self.machine.hmdes_source

    @property
    def total_ops(self) -> int:
        return sum(len(block) for block in self.blocks)


@dataclass
class FuzzFailure:
    """A diverging case, before and after shrinking."""

    seed: int
    divergences: List[Divergence]
    source: str                    # original HMDES source
    shrunk_source: str             # minimal reproducer HMDES source
    shrink_steps: int
    original_size: Tuple[int, int, int]
    shrunk_size: Tuple[int, int, int]
    case: FuzzCase                 # the minimal case

    def summary(self) -> dict:
        """A JSON-friendly digest (sources included -- they are small)."""
        return {
            "seed": self.seed,
            "divergences": [
                {
                    "kind": d.kind,
                    "where": d.where,
                    "reference": d.reference,
                    "detail": d.detail,
                }
                for d in self.divergences
            ],
            "shrink_steps": self.shrink_steps,
            "original_size": list(self.original_size),
            "shrunk_size": list(self.shrunk_size),
            "shrunk_hmdes": self.shrunk_source,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    cases: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def generate_case(
    seed: int, grammar: FuzzGrammar = DEFAULT_GRAMMAR
) -> FuzzCase:
    """Deterministically build the fuzz case for one seed."""
    rng = random.Random(f"repro.verify.fuzz:{seed}")
    mdes = generate_mdes(rng, f"Fuzz{seed}", grammar)
    machine = build_machine(mdes, rng, grammar)
    blocks = generate_blocks(machine, WorkloadConfig(
        total_ops=rng.randint(
            grammar.min_block_ops, grammar.max_block_ops
        ),
        seed=seed,
    ))
    return FuzzCase(seed=seed, mdes=mdes, machine=machine, blocks=blocks)


def run_case(
    case: FuzzCase,
    stages: Sequence[int] = DEFAULT_STAGES,
    backends: Optional[Sequence[str]] = None,
) -> List[Divergence]:
    """All divergences one case exhibits (empty == the case passes)."""
    divergences = differential_runs(
        case.machine, case.blocks, stages=stages, backends=backends
    )
    divergences.extend(
        verify_transform_stages(case.machine, case.blocks)
    )
    return divergences


def fuzz(
    seed: int = 0,
    cases: int = 50,
    shrink: bool = True,
    grammar: FuzzGrammar = DEFAULT_GRAMMAR,
    stages: Sequence[int] = DEFAULT_STAGES,
    backends: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzReport:
    """Run ``cases`` seeded differential cases; shrink any failures.

    ``progress``, when given, is called as ``progress(done, failures)``
    after every case (the CLI uses it for a live line).
    """
    from repro import obs

    report = FuzzReport(seed=seed, cases=cases)
    with obs.span("verify:fuzz", seed=seed, cases=cases) as sp:
        for i in range(cases):
            case = generate_case(seed + i, grammar)
            with obs.span("verify:case", seed=case.seed):
                divergences = run_case(case, stages, backends)
            obs.count(
                "repro_verify_fuzz_cases_total",
                help="Differential fuzz cases executed.",
            )
            if divergences:
                report.failures.append(_build_failure(
                    case, divergences, shrink, stages, backends
                ))
                obs.count(
                    "repro_verify_fuzz_failures_total",
                    help="Fuzz cases that exhibited a divergence.",
                )
            if progress is not None:
                progress(i + 1, len(report.failures))
    if obs.enabled():
        sp.set(failures=len(report.failures))
    return report


def _build_failure(
    case: FuzzCase,
    divergences: List[Divergence],
    shrink: bool,
    stages: Sequence[int],
    backends: Optional[Sequence[str]],
) -> FuzzFailure:
    original_size = case_size(case)
    shrunk, steps = case, 0
    if shrink:
        shrunk, steps, _ = shrink_case(
            case, lambda candidate: bool(
                run_case(candidate, stages, backends)
            ),
        )
        # Report the divergences of the *minimal* case: that is what a
        # regression test will assert against.
        divergences = run_case(shrunk, stages, backends) or divergences
    return FuzzFailure(
        seed=case.seed,
        divergences=divergences,
        source=case.source,
        shrunk_source=shrunk.source,
        shrink_steps=steps,
        original_size=original_size,
        shrunk_size=case_size(shrunk),
        case=shrunk,
    )
