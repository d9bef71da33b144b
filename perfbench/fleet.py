"""``fleet``: a cold ``run_sweep`` over a fixed mix of every synth family.

Each cycle is one sweep of the same fleet as a fresh process would run
it: no resolved variants, a fresh description cache, the oracle on.
One variant is one item; its time is the time between two progress
callbacks.
"""

from __future__ import annotations

import random
import time

from perfbench.common import Outcome, median

#: Variants per sweep, spread evenly over the families.
VARIANTS = 240

#: Operations in the workload every variant schedules.
OPS = 64

#: The fleet is a fixed seeded mix, and every variant schedules the
#: sweep's fixed default workload; the run seed only shuffles the order
#: the sweep visits them in.  A seed-drawn fleet or workload moved the
#: fleet's total schedule length, or its slowest variants, by a tenth
#: from seed to seed.
FLEET_SEED = 1996


class Fleet:
    name = "fleet"
    # Untimed first cycle of a traced run (see run.py).
    warmup = True

    def __init__(self, seed: int, seconds: float, traced: bool) -> None:
        self.seed = seed
        self.digests = set()
        self.report = None
        self.variant_seconds = []

    def setup(self):
        """Name the fleet and check that every variant builds."""
        from repro.machines import synth

        families = synth.family_names()
        names = [
            synth.machine_name(
                families[i % len(families)], FLEET_SEED, i // len(families)
            )
            for i in range(VARIANTS)
        ]
        random.Random(self.seed).shuffle(names)
        self.names = tuple(names)
        for name in self.names:
            synth.build_variant(*synth.parse_name(name))

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cycle(self, outcome: Outcome) -> None:
        from repro import obs, sweep
        from repro.machines import synth

        # A cold sweep: nothing resolved, nothing left in the trace
        # buffer by the previous sweep (``run_sweep`` records spans).
        synth.clear_resolve_cache()
        obs.reset()
        marks = [time.perf_counter()]
        report = sweep.run_sweep(
            sweep.SweepConfig(names=self.names, ops=OPS, verify=True),
            progress=lambda done, total: marks.append(time.perf_counter()),
        )
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        for name, seconds in zip(self.names, latencies):
            outcome.item(name, seconds)
        self.variant_seconds = latencies
        outcome.attempted += len(report.variants)
        for variant in report.variants:
            if not variant.ok:
                outcome.fail(f"{variant.name}: quarantined "
                             f"({variant.error_type})")
            elif variant.verify_ok is not True:
                outcome.fail(f"{variant.name}: oracle rejected the schedule")
        outcome.sched_cycles = sum(v.cycles for v in report.variants)
        self.digests.add(report.signature_digest())
        if len(self.digests) != 1:
            outcome.fail("sweep signature changed between repeats")
        outcome.notes["distinct_descriptions"] = report.distinct_descriptions
        self.report = report

    def finish_cycle(self, outcome: Outcome):
        return sorted(self.digests)

    def layer_extra(self) -> dict:
        cache = self.report.cache
        return {
            "sweep.variant_s": median(self.variant_seconds),
            "sweep.quarantined": self.report.quarantined,
            "engine.cache_hits": cache.get("memory_hits", 0),
            "engine.cache_misses": cache.get("memory_misses", 0),
            "engine.cache_evictions": cache.get("evictions", 0),
        }
