"""``schedule``: large workloads on warm descriptions, both directions.

Set-up compiles every paper machine for every list backend into one
description cache and generates one large workload per machine.  Each
cycle then schedules every workload with every backend, forward and
backward, and replays every schedule through the oracle.  One
(machine, backend, direction) run is one item; ``items_per_s`` counts
operations scheduled and verified.
"""

from __future__ import annotations

import time

from perfbench.common import Outcome, digest
from perfbench.describe import fresh_machine
from perfbench.layers import BACKENDS

#: Operations generated per machine; two cycles fit in a run.
OPS = 6000

DIRECTIONS = ("forward", "backward")

#: Blocks each (machine, backend, direction) schedules in set-up, so the
#: first measured cycle does not pay for lazy initialization.
WARM_BLOCKS = 8


class Schedule:
    name = "schedule"
    # Set-up warms the scheduling path itself (see WARM_BLOCKS).
    warmup = False

    def __init__(self, seed: int, seconds: float, traced: bool) -> None:
        self.seed = seed
        self.digests = set()

    def setup(self):
        from repro.engine import registry
        from repro.engine.cache import DescriptionCache
        from repro.machines import MACHINE_NAMES, get_machine
        from repro.workloads import WorkloadConfig, generate_blocks

        self.cache = DescriptionCache(name="schedule")
        self.compiled = []
        self.workloads = {}
        for name in MACHINE_NAMES:
            machine = fresh_machine(get_machine(name))
            for backend in BACKENDS:
                self.compiled.append(registry.create_engine(
                    backend, machine, cache=self.cache
                ).compiled)
            self.workloads[name] = (machine, generate_blocks(
                machine, WorkloadConfig(total_ops=OPS, seed=self.seed)
            ))
        self._run_all(Outcome(), WARM_BLOCKS)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cycle(self, outcome: Outcome) -> None:
        signatures, total_cycles = self._run_all(outcome)
        outcome.sched_cycles = total_cycles
        self.digests.add(digest(signatures))
        if len(self.digests) != 1:
            outcome.fail("schedules changed between repeats")

    def _run_all(self, outcome: Outcome, limit=None):
        """Every machine x direction x backend on the first ``limit``
        blocks; ``(schedule signatures, total cycles)``."""
        from repro import verify
        from repro.engine import registry
        from repro.scheduler import list_scheduler

        signatures = []
        total_cycles = 0
        for name, (machine, all_blocks) in self.workloads.items():
            blocks = all_blocks[:limit]
            for direction in DIRECTIONS:
                per_backend = {}
                for backend in BACKENDS:
                    outcome.attempted += 1
                    started = time.perf_counter()
                    engine = registry.create_engine(
                        backend, machine, cache=self.cache
                    )
                    run = list_scheduler.schedule_workload(
                        machine, None, blocks, keep_schedules=True,
                        direction=direction, engine=engine,
                    )
                    report = verify.verify_schedule(
                        machine, run, direction=direction
                    )
                    outcome.item(
                        (name, backend, direction),
                        time.perf_counter() - started, units=run.total_ops,
                    )
                    if not report.ok:
                        outcome.fail(
                            f"{name}/{backend}/{direction}: oracle rejected "
                            f"the schedule: {report.codes()}"
                        )
                    per_backend[backend] = run.signature()
                    total_cycles += run.total_cycles
                if len(set(per_backend.values())) != 1:
                    outcome.fail(
                        f"{name}/{direction}: backends disagree on the "
                        "schedule"
                    )
                signatures.append(
                    (name, direction, per_backend[BACKENDS[0]])
                )
        return signatures, total_cycles

    def finish_cycle(self, outcome: Outcome):
        return sorted(self.digests)

    def layer_extra(self) -> dict:
        from repro.lowlevel.serialize import save_lmdes

        stats = self.cache.stats
        return {
            "lowlevel.size_bytes": sum(
                len(save_lmdes(compiled)) for compiled in self.compiled
            ),
            "engine.cache_hits": stats.hits,
            "engine.cache_misses": stats.misses,
            "engine.cache_evictions": stats.evictions,
        }
