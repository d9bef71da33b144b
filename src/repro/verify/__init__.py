"""``repro.verify`` -- the independent correctness layer.

Three instruments, all judging the optimized pipeline from outside it:

* the **oracle** (:mod:`repro.verify.oracle`): replays finished
  schedules against the raw, untransformed high-level description --
  a deliberately naive interpreter that shares no code with the
  engines it checks;
* the **differential fuzzer** (:mod:`repro.verify.fuzz`,
  :mod:`repro.verify.differential`, :mod:`repro.verify.shrink`):
  seeded random descriptions from :mod:`repro.machines.synth.grammar`
  scheduled through every backend and every transform stage,
  disagreements shrunk to minimal HMDES reproducers;
* the **golden corpus** (:mod:`repro.verify.golden`): pinned schedule
  digests for the four paper machines across every backend, checked in
  under ``tests/golden/``.

Entry points: :func:`verify_schedule` (also re-exported from
``repro.api``), :func:`fuzz`, and the CLI's ``verify``/``fuzz``
commands.
"""

from repro.machines.synth.grammar import DEFAULT_GRAMMAR, FuzzGrammar
from repro.verify.differential import (
    DEFAULT_STAGES,
    Divergence,
    differential_runs,
    exact_oracle_divergences,
    verify_transform_stages,
)
from repro.verify.fuzz import (
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    fuzz,
    generate_case,
    run_case,
)
from repro.verify.golden import (
    CORPUS_SEED,
    CORPUS_STAGE,
    CORPUS_VERSION,
    SYNTH_FLEET_FILE,
    SYNTH_FLEET_SEED,
    check_corpus,
    check_synth_fleet,
    compute_exact_entry,
    corpus_workload,
    exact_corpus_workload,
    schedule_digest,
    synth_fleet_names,
    write_corpus,
    write_synth_fleet,
)
from repro.verify.oracle import (
    LATENCY_VIOLATION,
    RESOURCE_CONFLICT,
    SEARCH_BUDGET_EXCEEDED,
    UNKNOWN_CLASS,
    UNPLACED_OPERATION,
    Diagnostic,
    ScheduleOracle,
    VerifyReport,
    verify_schedule,
)
from repro.verify.shrink import shrink_case

__all__ = [
    # Oracle
    "Diagnostic",
    "ScheduleOracle",
    "VerifyReport",
    "verify_schedule",
    "RESOURCE_CONFLICT",
    "LATENCY_VIOLATION",
    "UNKNOWN_CLASS",
    "UNPLACED_OPERATION",
    "SEARCH_BUDGET_EXCEEDED",
    # Differential fuzzer
    "DEFAULT_GRAMMAR",
    "DEFAULT_STAGES",
    "Divergence",
    "FuzzCase",
    "FuzzFailure",
    "FuzzGrammar",
    "FuzzReport",
    "differential_runs",
    "exact_oracle_divergences",
    "fuzz",
    "generate_case",
    "run_case",
    "shrink_case",
    "verify_transform_stages",
    # Golden corpus
    "CORPUS_SEED",
    "CORPUS_STAGE",
    "CORPUS_VERSION",
    "SYNTH_FLEET_FILE",
    "SYNTH_FLEET_SEED",
    "check_corpus",
    "check_synth_fleet",
    "compute_exact_entry",
    "corpus_workload",
    "exact_corpus_workload",
    "schedule_digest",
    "synth_fleet_names",
    "write_corpus",
    "write_synth_fleet",
]
