"""``serve``: open-loop traffic on ``repro.server.App``, in process.

Requests go through the app's ASGI interface with ``AsgiClient`` (no
socket), from one asyncio thread, on a seeded arrival plan at a fixed
mean rate.  Some arrivals are same-machine bursts, so the micro-batcher
coalesces them; about a tenth name a synth variant the server has not
seen, so its warm description cache takes misses beside hits.  Latency
runs from each request's due time to its response, so a stall also
delays the requests queued behind it; how late the generator sent them
is reported as well.  One completed request is one item.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics

from perfbench.common import Outcome, digest, percentile

#: Mean offered load, requests per second: about 30% of what the
#: in-process server sustains with this request size.  Nearer
#: saturation, queueing multiplies every drift in the machine's speed
#: into the tail latency.
RATE = 60.0

#: Operations in each request's generated workload.
OPS = 40

#: Backends requests name for the paper machines (all prewarmed).
BACKENDS = ("andor", "bitvector", "automata")

#: Share of requests naming a synth variant new to the server.
SYNTH_SHARE = 0.1

#: Share of arrivals that are a same-machine burst, and burst sizes.
BURST_SHARE = 0.25
BURST_SIZES = (2, 3, 4)

#: Distinct client names the requests rotate through.
CLIENTS = 16

#: Responses compared against a one-shot ``repro.api.schedule`` run.
SAMPLE = 24

#: Seconds between the plan's start and its first due time.
LEAD = 0.05

#: Consecutive windows of the plan; the latency percentiles reported
#: are medians over the windows, so one stall does not decide them.
WINDOWS = 5


class Serve:
    name = "serve"
    warmup = False

    def __init__(self, seed: int, seconds: float, traced: bool) -> None:
        self.seed = seed
        # A traced run splits its time between an untraced and a traced
        # pass of the same plan.
        self.duration = seconds / 2 if traced else seconds
        self.loop = asyncio.new_event_loop()
        self.client = None
        self.app = None
        self.results = []

    # ------------------------------------------------------------------
    # Set-up: the arrival plan and a started, prewarmed app
    # ------------------------------------------------------------------

    def setup(self):
        self._stop()
        self.plan = self._plan()
        self._start()

    def _plan(self):
        """``(due offset seconds, request body)`` in due order."""
        from repro.machines import MACHINE_NAMES, synth

        # The arrival pattern (gaps, bursts, which arrivals name a synth
        # variant) is the same for every seed; the seed draws what each
        # request asks for.  With a seeded pattern too, the p90 latency
        # spread by more than a quarter of its median across ten seeds.
        shape = random.Random("perfbench-serve-arrivals")
        rng = random.Random(f"perfbench-serve:{self.seed}")
        families = synth.family_names()
        total = round(RATE * self.duration)
        events = []
        fresh = 0
        planned = 0
        while planned < total:
            if shape.random() < SYNTH_SHARE:
                machine = synth.machine_name(
                    families[fresh % len(families)], self.seed, fresh
                )
                fresh += 1
                backend, size = "bitvector", 1
            else:
                machine = rng.choice(MACHINE_NAMES)
                backend = rng.choice(BACKENDS)
                size = (shape.choice(BURST_SIZES)
                        if shape.random() < BURST_SHARE else 1)
            events.append([
                {
                    "machine": machine,
                    "backend": backend,
                    "workload": {
                        "total_ops": OPS, "seed": rng.randrange(1 << 30),
                    },
                    "verify": True,
                }
                for _ in range(size)
            ])
            planned += size
        # Exponential gaps, scaled so the plan spans exactly its duration
        # and the mean rate is RATE whatever the draw.
        gaps = [shape.expovariate(1.0) for _ in events]
        scale = self.duration / sum(gaps)
        plan = []
        due = 0.0
        for gap, event in zip(gaps, events):
            for body in event:
                body["client"] = f"c{len(plan) % CLIENTS}"
                plan.append((due, body))
            due += gap * scale
        return plan

    def _start(self) -> None:
        from repro.machines import MACHINE_NAMES, synth
        from repro.server import App, ServerConfig
        from repro.server.queue import QueuePolicy
        from repro.server.testing import AsgiClient

        synth.clear_resolve_cache()
        self.app = App(ServerConfig(
            prewarm=tuple(
                (machine, backend)
                for machine in MACHINE_NAMES for backend in BACKENDS
            ),
            queue=QueuePolicy(max_inflight=1024, per_client_inflight=1024),
        ))
        self.client = AsgiClient(self.app)
        self.loop.run_until_complete(self.client.__aenter__())

    def _stop(self) -> None:
        if self.client is not None:
            self.loop.run_until_complete(
                self.client.__aexit__(None, None, None)
            )
            self.client = None

    def reset(self) -> None:
        """A fresh app, so the next pass sees the same cold variants."""
        from repro import obs

        self._stop()
        obs.reset()
        self._start()

    def close(self) -> None:
        try:
            self._stop()
        finally:
            self.loop.run_until_complete(
                self.loop.shutdown_default_executor()
            )
            self.loop.close()

    # ------------------------------------------------------------------
    # One pass of the plan
    # ------------------------------------------------------------------

    async def _send(self, due: float, body: dict):
        loop = asyncio.get_running_loop()
        sent = loop.time()
        response = await self.client.post(
            "/v1/schedule", json.dumps(body).encode()
        )
        return due, sent, loop.time(), response.status, response.body

    async def _drive(self):
        loop = asyncio.get_running_loop()
        start = loop.time() + LEAD
        tasks = []
        for offset, body in self.plan:
            delay = start + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(self._send(start + offset, body)))
        results = await asyncio.gather(*tasks)
        return start, results

    def cycle(self, outcome: Outcome) -> None:
        self.cache_before = self.app.state.submitter.cache.stats.copy()
        start, self.results = self.loop.run_until_complete(self._drive())
        self.cache_after = self.app.state.submitter.cache.stats.copy()
        self.span = max(done for _, _, done, _, _ in self.results) - start

    def finish_cycle(self, outcome: Outcome):
        """Every response verified; a sample equal to one-shot runs."""
        self.payloads = []
        total_cycles = 0
        completed = 0
        latencies = []
        for (due, sent, done, status, body), (_, request) in zip(
            self.results, self.plan
        ):
            outcome.attempted += 1
            # A refused or failed request misses any latency limit.
            latencies.append(done - due if status == 200 else float("inf"))
            if status != 200:
                outcome.fail(f"{request['machine']}: HTTP {status}")
                self.payloads.append(None)
                continue
            payload = json.loads(body)
            self.payloads.append(payload)
            verified = payload.get("verify") or {}
            if not (payload["ok"] and verified.get("ok")
                    and not payload["errors"]):
                outcome.fail(f"{request['machine']}: response not verified")
                continue
            if payload["cycles"] != sum(
                block["length"] for block in payload["schedules"]
            ):
                outcome.fail(f"{request['machine']}: cycles do not add up")
                continue
            completed += 1
            total_cycles += payload["cycles"]
        outcome.sched_cycles = total_cycles
        outcome.rates.append(completed / self.span)
        size = -(-len(latencies) // WINDOWS)
        outcome.windows.extend(
            latencies[i:i + size] for i in range(0, len(latencies), size)
        )
        self._check_sample(outcome)
        return digest([
            None if payload is None else
            (payload["cycles"], [b["placements"] for b in payload["schedules"]])
            for payload in self.payloads
        ])

    def _check_sample(self, outcome: Outcome) -> None:
        from repro import api
        from repro.workloads import WorkloadConfig

        rng = random.Random(f"perfbench-serve-sample:{self.seed}")
        for index in sorted(rng.sample(range(len(self.plan)), SAMPLE)):
            payload = self.payloads[index]
            if payload is None:
                continue
            request = self.plan[index][1]
            reference = api.schedule(api.ScheduleRequest(
                machine=request["machine"],
                backend=request["backend"],
                workload=WorkloadConfig(**request["workload"]),
                verify=True,
            ))
            expected = [
                [[i, s.times[i], s.classes[i]] for i in sorted(s.times)]
                for s in reference.schedules
            ]
            served = [block["placements"] for block in payload["schedules"]]
            if served != expected or payload["cycles"] != reference.cycles:
                outcome.fail(
                    f"{request['machine']}: response differs from a "
                    "one-shot api.schedule run"
                )

    def layer_extra(self) -> dict:
        groups = [
            payload["batched"] for payload in self.payloads
            if payload is not None and payload["batched"]["offset"] == 0
        ]
        waits = [
            (done - due - payload["batched"]["batch_seconds"]) * 1e3
            for (due, _, done, _, _), payload in zip(
                self.results, self.payloads
            )
            if payload is not None
        ]
        lags = [(sent - due) * 1e3 for due, sent, _, _, _ in self.results]
        cache = self.cache_after.since(self.cache_before)
        return {
            "service.batch_s": statistics.median(
                group["batch_seconds"] for group in groups
            ),
            "service.group_requests": statistics.mean(
                group["group_requests"] for group in groups
            ),
            "server.wait_ms": statistics.median(waits),
            "server.rejected": sum(
                1 for result in self.results if result[3] != 200
            ),
            "server.generator_lag_ms": percentile(lags, 0.9),
            "engine.cache_hits": cache.hits,
            "engine.cache_misses": cache.misses,
            "engine.cache_evictions": cache.evictions,
        }
