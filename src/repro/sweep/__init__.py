"""``repro.sweep`` -- description-space sweeps over machine fleets.

The design-space-exploration tier: schedule one fixed workload shape
across hundreds-to-thousands of synthetic machine variants
(:mod:`repro.machines.synth`) in a single batched run, and aggregate
per-variant schedule lengths, transform effect columns, oracle
verdicts, and exact-gap samples into a :class:`SweepReport` -- the
paper's transform-effectiveness story measured as a function of
machine complexity instead of at four fixed points.

::

    from repro.sweep import SweepConfig, run_sweep

    report = run_sweep(SweepConfig(
        family="superscalar-wide", count=200, seed=7,
    ))
    assert report.ok
    report.write_jsonl("sweep.jsonl")
    print(report.summary_table())

CLI: ``repro sweep --family superscalar-wide --count 200``.
"""

from repro.sweep.driver import (
    SWEEP_CACHE_SIZE,
    SweepConfig,
    run_sweep,
    transform_effects_for,
)
from repro.sweep.report import REPORT_VERSION, SweepReport, VariantResult

__all__ = [
    "REPORT_VERSION",
    "SWEEP_CACHE_SIZE",
    "SweepConfig",
    "SweepReport",
    "VariantResult",
    "run_sweep",
    "transform_effects_for",
]
