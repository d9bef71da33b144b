"""Shared pieces of the workloads: statistics and the run outcome."""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

#: How many times each workload repeats its set-up; ``setup_s`` is the
#: median.
SETUP_REPEATS = 3

#: Relative tolerance of the traced run's check that the layers' self
#: times add up to the traced wall time.
SELF_SUM_TOLERANCE = 0.02


def percentile(values: List[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0..1) of ``values``.

    Nearest rank, not interpolation: where the values form separate
    groups (a few slow descriptions among many fast ones), interpolating
    across the gap would make the figure swing with tiny changes.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value: Any) -> str:
    """Short stable digest of a repr-able value."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What a workload measured, before it becomes metrics.

    Workloads that repeat the same items every cycle report each item's
    fastest time in the run (:meth:`item`).  On a shared 2-vCPU VM the
    speed drifted by up to a third over tens of seconds, and a slowdown
    only ever adds time, so the fastest repetition is the steadiest
    estimate of an item's cost.  The open-loop ``serve`` workload reports rates and
    latency windows instead.
    """

    #: Fastest seconds, work units and latency group of each item.
    best: Dict[Any, float] = field(default_factory=dict)
    units: Dict[Any, float] = field(default_factory=dict)
    groups: Dict[Any, Any] = field(default_factory=dict)
    #: Items per second of each open-loop pass; ``items_per_s`` is their
    #: median.
    rates: List[float] = field(default_factory=list)
    #: Request latencies in seconds, in consecutive windows of a pass;
    #: each reported percentile is the median over the windows, so one
    #: slow stretch of a run does not decide it.
    windows: List[List[float]] = field(default_factory=list)
    sched_cycles: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Workload-specific figures shown in the human-readable summary.
    notes: Dict[str, Any] = field(default_factory=dict)

    def item(self, key, seconds: float, units: float = 1,
             group=None) -> None:
        """One repetition of an item; ``group`` items add up to one
        latency (all of them by default count one each)."""
        if key not in self.best or seconds < self.best[key]:
            self.best[key] = seconds
        self.units[key] = units
        self.groups[key] = key if group is None else group

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def setup_median(setup: Callable[[], None]) -> float:
    """Run ``setup`` ``SETUP_REPEATS`` times; the median seconds."""
    durations = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        setup()
        durations.append(time.perf_counter() - started)
    return median(durations)


def _throughput_and_latencies(outcome: Outcome):
    """``(items per second, [(p50, p90) seconds])`` of a run."""
    if not outcome.best:
        return median(outcome.rates), [
            (percentile(window, 0.5), percentile(window, 0.9))
            for window in outcome.windows
        ]
    grouped: Dict[Any, float] = {}
    for key, seconds in outcome.best.items():
        group = outcome.groups[key]
        grouped[group] = grouped.get(group, 0.0) + seconds
    latencies = list(grouped.values())
    rate = sum(outcome.units.values()) / sum(latencies)
    return rate, [(percentile(latencies, 0.5), percentile(latencies, 0.9))]


def end_to_end_metrics(outcome: Outcome, setup_s: float) -> Dict[str, Any]:
    """The ``--trace 0`` metrics of one run."""
    attempted = max(outcome.attempted, 1)
    rate, quantiles = _throughput_and_latencies(outcome)
    # Failed requests carry an infinite latency; JSON has no infinity.
    p50 = min(median([p for p, _ in quantiles]) * 1e3, 1e12)
    p90 = min(median([p for _, p in quantiles]) * 1e3, 1e12)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "sched_cycles": (outcome.sched_cycles, "cycles"),
        "ok_share": ((attempted - outcome.failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
