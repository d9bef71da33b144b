"""``describe``: HMDES source text to a verified schedule, cold.

Each cycle takes every paper machine through every list backend but
the ``SKIPPED`` ones, from its source text: a fresh machine object (no
parsed or expanded memo), a fresh ``DescriptionCache`` without a disk
tier, the engine, a schedule of a small fixed workload, and the
oracle's replay of it.  One (machine, backend) description is one item
of ``items_per_s``.  A latency is one machine through its backends: per
description the times fall in separate groups (flat-OR compiles take
hundreds of milliseconds, most others a few), so a percentile would
pick one short, noisy item.
"""

from __future__ import annotations

import dataclasses
import time

from perfbench.common import Outcome, digest
from perfbench.layers import BACKENDS

#: Operations in each machine's small workload.
OPS = 300

#: Descriptions left out of the timed cycle.  K5's two flat-OR compiles
#: are single calls of several seconds each; where the machine's speed
#: drifts by a third over tens of seconds (as on a shared 2-vCPU VM)
#: they would decide the figure on their own.  The ``schedule`` workload compiles them in its set-up,
#: so they are timed in its ``setup_s`` and attributed in its trace.
SKIPPED = {("K5", "ortree"), ("K5", "eichenberger")}


def fresh_machine(machine):
    """A copy of ``machine`` with none of its parsed forms memoized."""
    return dataclasses.replace(
        machine, _mdes=None, _mdes_andor=None, _mdes_or=None
    )


class Describe:
    name = "describe"
    # Untimed first cycle of a traced run (see run.py).
    warmup = True

    def __init__(self, seed: int, seconds: float, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.digests = set()
        #: Compiled descriptions of the last cycle, per (machine, backend).
        self.compiled = {}

    def setup(self):
        from repro.machines import MACHINE_NAMES, get_machine
        from repro.workloads import WorkloadConfig, generate_blocks

        self.workloads = {}
        for name in MACHINE_NAMES:
            machine = get_machine(name)
            self.workloads[name] = (machine, generate_blocks(
                machine, WorkloadConfig(total_ops=OPS, seed=self.seed)
            ))

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cycle(self, outcome: Outcome) -> None:
        from repro import verify
        from repro.engine import registry
        from repro.engine.cache import DescriptionCache
        from repro.scheduler import list_scheduler

        signatures = []
        total_cycles = 0
        compiled = {}
        for name, (base, blocks) in self.workloads.items():
            per_backend = {}
            for backend in BACKENDS:
                if (name, backend) in SKIPPED:
                    continue
                outcome.attempted += 1
                started = time.perf_counter()
                machine = fresh_machine(base)
                engine = registry.create_engine(
                    backend, machine, cache=DescriptionCache(name="describe")
                )
                run = list_scheduler.schedule_workload(
                    machine, None, blocks, keep_schedules=True,
                    engine=engine,
                )
                report = verify.verify_schedule(machine, run)
                outcome.item((name, backend), time.perf_counter() - started,
                             group=name)
                if not report.ok:
                    outcome.fail(
                        f"{name}/{backend}: oracle rejected the schedule: "
                        f"{report.codes()}"
                    )
                per_backend[backend] = run.signature()
                total_cycles += run.total_cycles
                if self.traced:
                    compiled[(name, backend)] = engine.compiled
            if len(set(per_backend.values())) != 1:
                outcome.fail(f"{name}: backends disagree on the schedule")
            signatures.append((name, next(iter(per_backend.values()))))
        outcome.sched_cycles = total_cycles
        self.digests.add(digest(signatures))
        if len(self.digests) != 1:
            outcome.fail("schedules changed between repeats")
        self.compiled = compiled

    def finish_cycle(self, outcome: Outcome):
        """The last cycle's schedules and serialized LMDES, as digests."""
        from repro.lowlevel.serialize import save_lmdes

        texts = {
            key: save_lmdes(value) for key, value in self.compiled.items()
        }
        self.size_bytes = sum(len(text) for text in texts.values())
        return sorted(self.digests), digest(sorted(texts.items()))

    def layer_extra(self) -> dict:
        return {"lowlevel.size_bytes": self.size_bytes}
