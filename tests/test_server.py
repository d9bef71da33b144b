"""The scheduling service end to end, driven in-process.

Tentpole test of the server PR: every test runs the real ASGI app --
routing, wire decoding, admission, micro-batching, the warm shared
description cache, error mapping, metrics -- through
:class:`repro.server.testing.AsgiClient`, which speaks the same ASGI
exchange the socket host does.

The acceptance bar lives in ``TestConcurrency``: one warm server
serves 100+ mixed-machine concurrent requests bit-identical to
one-shot :func:`repro.api.schedule` runs, compiling each description
at most once (asserted from the cache counters), and sheds load with
429 + ``Retry-After`` when the bounded queue fills.
"""

import asyncio
import json

import pytest

from repro import api, obs
from repro.server import QueuePolicy, ServerConfig, create_app
from repro.server.testing import AsgiClient
from repro.workloads import WorkloadConfig, generate_blocks
from repro.workloads.trace import write_trace
from repro.machines import MACHINE_NAMES, get_machine


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Startup calls ``obs.enable()``; restore the session's state."""
    was_enabled = obs.enabled()
    obs.reset()
    yield
    obs.reset()
    obs.enable() if was_enabled else obs.disable()


def run(coro):
    return asyncio.run(coro)


def payload(machine="Pentium", ops=120, seed=7, **extra):
    body = {"machine": machine, "workload": {"total_ops": ops, "seed": seed}}
    body.update(extra)
    return body


def serial_schedule(machine, ops, seed, **kwargs):
    """The one-shot facade run the server must match bit-for-bit."""
    return api.schedule(api.ScheduleRequest(
        machine=machine,
        workload=WorkloadConfig(total_ops=ops, seed=seed),
        **kwargs,
    ))


def make_app(**overrides):
    overrides.setdefault("window_seconds", 0.002)
    return create_app(ServerConfig(**overrides))


class TestIntrospection:
    def test_healthz_reports_a_live_gate_and_cache(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                response = await client.get("/healthz")
                assert response.status == 200
                body = response.json()
                assert body["status"] == "ok"
                assert body["admission"]["inflight"] == 0
                assert body["admission"]["draining"] is False
                assert body["cache"]["entries"] == 0
                assert body["resilience"]["retries"] == 0
                assert body["pool"]["inflight_runs"] == 0
        run(scenario())

    def test_machines_and_engines_routes(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                machines = (await client.get("/v1/machines")).json()
                assert machines["machines"] == list(MACHINE_NAMES)
                engines = (await client.get("/v1/engines")).json()
                names = {e["name"] for e in engines["engines"]}
                assert {"bitvector", "exact"} <= names
                exact = next(
                    e for e in engines["engines"] if e["name"] == "exact"
                )
                assert exact["scheduler"] == "exact"
        run(scenario())

    def test_unknown_route_404_and_wrong_method_405(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                assert (await client.get("/nope")).status == 404
                response = await client.post("/healthz", {})
                assert response.status == 405
                assert (await client.get("/v1/schedule")).status == 405
        run(scenario())


class TestScheduleRoute:
    def test_happy_path_matches_the_one_shot_facade_run(self):
        serial = serial_schedule("Pentium", 200, 11)
        async def scenario():
            async with AsgiClient(make_app()) as client:
                response = await client.post(
                    "/v1/schedule", payload("Pentium", 200, 11)
                )
                assert response.status == 200
                return response.json()
        body = run(scenario())
        assert body["kind"] == "batch"
        assert body["machine"] == "Pentium"
        assert body["cycles"] == serial.cycles
        assert body["ops"] == serial.ops
        assert body["schedules"] == serial.to_dict()["schedules"]
        assert body["request_id"]
        assert body["batched"]["group_requests"] == 1

    def test_trace_body_is_accepted_and_checked(self):
        machine = get_machine("K5")
        blocks = generate_blocks(
            machine, WorkloadConfig(total_ops=80, seed=3)
        )
        trace = write_trace(blocks, machine_name="K5")
        async def scenario():
            async with AsgiClient(make_app()) as client:
                ok = await client.post(
                    "/v1/schedule", {"machine": "K5", "trace": trace}
                )
                mismatched = await client.post(
                    "/v1/schedule", {"machine": "Pentium", "trace": trace}
                )
                return ok, mismatched
        ok, mismatched = run(scenario())
        assert ok.status == 200
        assert ok.json()["ops"] == sum(len(b) for b in blocks)
        assert mismatched.status == 400
        assert "trace is for machine" in mismatched.json()["message"]

    def test_exact_backend_bypasses_the_batcher(self):
        serial = serial_schedule("Pentium", 40, 5, backend="exact")
        async def scenario():
            async with AsgiClient(make_app()) as client:
                response = await client.post(
                    "/v1/schedule", payload("Pentium", 40, 5, backend="exact")
                )
                health = (await client.get("/healthz")).json()
                return response, health
        response, health = run(scenario())
        assert response.status == 200
        body = response.json()
        assert body["kind"] == "exact"
        assert body["cycles"] == serial.cycles
        assert body["exact"]["optimal_blocks"] == \
            serial.exact["optimal_blocks"]
        assert body["schedules"] == serial.to_dict()["schedules"]
        # No micro-batch ran: the exact path goes straight to the pool.
        assert health["batcher"]["batches_total"] == 0

    def test_verify_flag_replays_through_the_oracle(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                return (await client.post(
                    "/v1/schedule", payload("SuperSPARC", 120, 9, verify=True)
                )).json()
        body = run(scenario())
        assert body["verify"]["ok"] is True
        assert body["verify"]["blocks"] == body["blocks"]

    def test_include_schedules_false_slims_the_body(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                return (await client.post(
                    "/v1/schedule",
                    payload("Pentium", 80, 2, include_schedules=False),
                )).json()
        body = run(scenario())
        assert "schedules" not in body
        assert body["cycles"] > 0

    def test_malformed_bodies_map_to_400(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                empty = await client.post("/v1/schedule", b"")
                not_json = await client.post("/v1/schedule", b"{nope")
                unknown_field = await client.post(
                    "/v1/schedule", payload(bogus=1)
                )
                unknown_machine = await client.post(
                    "/v1/schedule", payload(machine="PDP11")
                )
                unknown_backend = await client.post(
                    "/v1/schedule", payload(backend="nand")
                )
                no_work = await client.post(
                    "/v1/schedule", {"machine": "Pentium"}
                )
                return [
                    empty, not_json, unknown_field, unknown_machine,
                    unknown_backend, no_work,
                ]
        responses = run(scenario())
        for response in responses:
            assert response.status == 400
            assert response.json()["error"] == "RequestError"


class TestBatchRoute:
    def test_dedicated_batch_run_with_config_overrides(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                response = await client.post("/v1/schedule/batch", dict(
                    payload("K5", 160, 13),
                    config={"chunk_size": 16, "on_error": "report"},
                ))
                return response
        response = run(scenario())
        assert response.status == 200
        body = response.json()
        assert body["kind"] == "batch"
        assert body["resilience"]["retries"] == 0
        assert body["cache"]["memory_misses"] >= 1
        serial = serial_schedule("K5", 160, 13)
        assert body["cycles"] == serial.cycles
        assert body["schedules"] == serial.to_dict()["schedules"]

    def test_server_side_config_knobs_stay_server_side(self):
        # Placement is a deployment setting, and the other keys are no
        # BatchConfig field at all: a client body setting any of them
        # is a typed 400, never an override.
        knobs = {
            "cache_dir": "/tmp/evil", "workers": 2,
            "shared_descriptions": True, "chunk_timeout_seconds": 2.5,
        }

        async def scenario():
            async with AsgiClient(make_app()) as client:
                return [
                    await client.post("/v1/schedule/batch", dict(
                        payload("K5", 40, 1), config={key: value},
                    ))
                    for key, value in knobs.items()
                ]
        for key, response in zip(knobs, run(scenario())):
            assert response.status == 400, key
            assert key in response.json()["message"]


class TestBackpressure:
    def _slow(self, app, seconds):
        """Wrap the batcher's runner so each batch takes ``seconds``."""
        original = app.state.batcher._runner

        async def slow_runner(batch):
            await asyncio.sleep(seconds)
            return await original(batch)

        app.state.batcher._runner = slow_runner

    def test_client_quota_sheds_with_429_and_retry_after(self):
        app = make_app(
            queue=QueuePolicy(max_inflight=8, per_client_inflight=1),
            window_seconds=0.05,
        )
        async def scenario():
            async with AsgiClient(app) as client:
                self._slow(app, 0.2)
                first = asyncio.ensure_future(client.post(
                    "/v1/schedule", payload(client="tenant-a")
                ))
                await asyncio.sleep(0.02)
                shed = await client.post(
                    "/v1/schedule", payload(client="tenant-a")
                )
                other = await client.post(
                    "/v1/schedule", payload(client="tenant-b")
                )
                return await first, shed, other
        first, shed, other = run(scenario())
        assert first.status == 200
        assert shed.status == 429
        assert shed.json()["error"] == "QuotaExceededError"
        assert float(shed.headers["retry-after"]) > 0
        assert shed.json()["retry_after_seconds"] > 0
        # Another tenant still gets in: the quota is per client.
        assert other.status == 200

    def test_full_queue_sheds_with_429(self):
        app = make_app(
            queue=QueuePolicy(max_inflight=1, per_client_inflight=1),
            window_seconds=0.05,
        )
        async def scenario():
            async with AsgiClient(app) as client:
                self._slow(app, 0.2)
                first = asyncio.ensure_future(client.post(
                    "/v1/schedule", payload(client="a")
                ))
                await asyncio.sleep(0.02)
                shed = await client.post(
                    "/v1/schedule", payload(client="b")
                )
                return await first, shed
        first, shed = run(scenario())
        assert first.status == 200
        assert shed.status == 429
        assert shed.json()["error"] == "QueueFullError"

    def test_rejections_show_up_in_healthz(self):
        app = make_app(
            queue=QueuePolicy(max_inflight=1, per_client_inflight=1),
            window_seconds=0.05,
        )
        async def scenario():
            async with AsgiClient(app) as client:
                self._slow(app, 0.2)
                first = asyncio.ensure_future(client.post(
                    "/v1/schedule", payload(client="a")
                ))
                await asyncio.sleep(0.02)
                await client.post("/v1/schedule", payload(client="b"))
                health = (await client.get("/healthz")).json()
                await first
                return health
        health = run(scenario())
        assert health["admission"]["rejected_total"] == 1
        assert health["admission"]["admitted_total"] >= 1


class TestDeadlines:
    def test_deadline_maps_to_504_while_the_batch_survives(self):
        app = make_app(window_seconds=0.0)
        async def scenario():
            async with AsgiClient(app) as client:
                original = app.state.batcher._runner

                async def slow_runner(batch):
                    await asyncio.sleep(0.3)
                    return await original(batch)

                app.state.batcher._runner = slow_runner
                late = await client.post(
                    "/v1/schedule",
                    payload(deadline_seconds=0.02, client="hurried"),
                )
                # The shed rider must not wedge the gate: a fresh
                # request (no deadline) still completes.
                app.state.batcher._runner = original
                ok = await client.post("/v1/schedule", payload())
                health = (await client.get("/healthz")).json()
                return late, ok, health
        late, ok, health = run(scenario())
        assert late.status == 504
        assert late.json()["error"] == "DeadlineExceededError"
        assert ok.status == 200
        assert health["admission"]["inflight"] == 0

    def test_batch_route_deadline_maps_to_504(self):
        app = make_app()

        async def scenario():
            async with AsgiClient(app) as client:
                original = app.state.submitter.submit_captured

                async def slow_submit(request):
                    await asyncio.sleep(0.3)
                    return await original(request)

                app.state.submitter.submit_captured = slow_submit
                late = await client.post(
                    "/v1/schedule/batch",
                    payload("K5", 40, 1, deadline_seconds=0.02),
                )
                app.state.submitter.submit_captured = original
                ok = await client.post(
                    "/v1/schedule/batch", payload("K5", 40, 1)
                )
                health = (await client.get("/healthz")).json()
                return late, ok, health
        late, ok, health = run(scenario())
        assert late.status == 504
        assert late.json()["error"] == "DeadlineExceededError"
        assert ok.status == 200
        assert health["admission"]["inflight"] == 0

    def test_default_deadline_comes_from_server_config(self):
        app = make_app(window_seconds=0.0, default_deadline_seconds=0.02)
        async def scenario():
            async with AsgiClient(app) as client:
                original = app.state.batcher._runner

                async def slow_runner(batch):
                    await asyncio.sleep(0.3)
                    return await original(batch)

                app.state.batcher._runner = slow_runner
                return await client.post("/v1/schedule", payload())
        response = run(scenario())
        assert response.status == 504


class TestLifecycle:
    def test_draining_rejects_new_work_with_503(self):
        app = make_app()
        async def scenario():
            async with AsgiClient(app) as client:
                app.state.admission.draining = True
                health = await client.get("/healthz")
                shed = await client.post("/v1/schedule", payload())
                return health, shed
        health, shed = run(scenario())
        assert health.status == 503
        assert health.json()["status"] == "draining"
        assert shed.status == 503
        assert shed.json()["error"] == "ShuttingDownError"

    def test_shutdown_flushes_open_batch_windows(self):
        # A 30s window would hold the rider far past the test's
        # patience; graceful drain must flush it immediately.
        app = make_app(window_seconds=30.0)
        async def scenario():
            async with AsgiClient(app) as client:
                rider = asyncio.ensure_future(
                    client.post("/v1/schedule", payload())
                )
                await asyncio.sleep(0.05)
                assert not rider.done()
                return rider
        async def drive():
            loop = asyncio.get_running_loop()
            started = loop.time()
            rider = await scenario()  # __aexit__ ran the drain
            response = await rider
            return response, loop.time() - started
        response, elapsed = run(drive())
        assert response.status == 200
        assert elapsed < 10.0


class TestMetrics:
    def test_request_counters_and_spans_reach_the_registry(self):
        async def scenario():
            async with AsgiClient(make_app()) as client:
                await client.post("/v1/schedule", payload())
                await client.post("/v1/schedule", payload(machine="Nope"))
                await client.get("/healthz")
                metrics = await client.get("/metrics")
                return metrics
        metrics = run(scenario())
        assert metrics.status == 200
        assert "text/plain" in metrics.headers["content-type"]
        parsed = obs.parse_prometheus(metrics.text)
        samples = {
            (name, dict(labels).get("route"), dict(labels).get("status")):
                value
            for (name, labels), value in parsed["samples"].items()
        }
        assert samples[
            ("repro_server_requests_total", "/v1/schedule", "200")
        ] == 1.0
        assert samples[
            ("repro_server_requests_total", "/v1/schedule", "400")
        ] == 1.0
        assert parsed["types"]["repro_server_request_seconds"] == "histogram"
        assert samples[("repro_server_up", None, None)] == 1.0
        # The request landed a server:request span in the trace tree.
        roots = [s.name for s in obs.TRACER.roots]
        assert "server:request" in roots


    def test_trace_keeps_only_the_newest_request_trees(self, monkeypatch):
        from repro.obs import trace

        monkeypatch.setattr(trace, "MAX_ROOTS", 3)

        async def scenario():
            async with AsgiClient(make_app()) as client:
                ids = []
                for seed in range(7):
                    response = await client.post(
                        "/v1/schedule", payload(ops=40, seed=seed)
                    )
                    assert response.status == 200
                    ids.append(response.json()["request_id"])
                return ids
        ids = run(scenario())
        roots = obs.TRACER.roots
        assert isinstance(roots, list)
        assert len(roots) <= 3
        kept = [root.attrs.get("request_id") for root in roots]
        assert ids[-1] in kept
        assert ids[0] not in kept


class TestConcurrency:
    """The PR's acceptance bar, in one class."""

    REQUESTS = 104
    MACHINES = list(MACHINE_NAMES)

    def _mixed_payloads(self):
        bodies = []
        for index in range(self.REQUESTS):
            machine = self.MACHINES[index % len(self.MACHINES)]
            ops = 40 + 10 * (index % 3)
            seed = 100 + index % 5
            bodies.append((machine, ops, seed, payload(
                machine, ops, seed, client=f"tenant-{index % 13}",
            )))
        return bodies

    def test_100_concurrent_requests_are_bit_identical_to_serial(self):
        bodies = self._mixed_payloads()
        serial = {}
        for machine, ops, seed, _ in bodies:
            key = (machine, ops, seed)
            if key not in serial:
                serial[key] = serial_schedule(machine, ops, seed).to_dict()
        app = make_app(
            queue=QueuePolicy(max_inflight=256, per_client_inflight=64),
            window_seconds=0.005,
            prewarm=tuple(
                (name, "bitvector") for name in self.MACHINES
            ),
        )
        async def scenario():
            async with AsgiClient(app) as client:
                after_prewarm = (await client.get("/healthz")).json()
                responses = await asyncio.gather(*[
                    client.post("/v1/schedule", body)
                    for _, _, _, body in bodies
                ])
                health = (await client.get("/healthz")).json()
                return after_prewarm, responses, health
        after_prewarm, responses, health = run(scenario())

        # Prewarm compiled each machine's description exactly once (two
        # cache entries per machine: the staged mdes + its compiled
        # lmdes form)...
        assert after_prewarm["cache"]["entries"] == 2 * len(self.MACHINES)
        assert after_prewarm["cache"]["memory_misses"] \
            == 2 * len(self.MACHINES)
        # ...and the traffic never compiled again: not one new miss
        # across 100+ requests, every lookup a warm hit.
        assert health["cache"]["entries"] == after_prewarm["cache"]["entries"]
        assert health["cache"]["memory_misses"] \
            == after_prewarm["cache"]["memory_misses"]
        assert health["cache"]["memory_hits"] >= 1

        for (machine, ops, seed, _), response in zip(bodies, responses):
            assert response.status == 200, response.text
            body = response.json()
            expected = serial[(machine, ops, seed)]
            assert body["machine"] == machine
            assert body["cycles"] == expected["cycles"], (machine, ops, seed)
            assert body["ops"] == expected["ops"]
            assert body["schedules"] == expected["schedules"], \
                (machine, ops, seed)
            assert body["errors"] == []

        # Micro-batching actually coalesced: far fewer batch runs than
        # requests, and every request rode one.
        assert health["batcher"]["batched_requests_total"] == self.REQUESTS
        assert health["batcher"]["batches_total"] < self.REQUESTS
        # A clean run recovers from nothing.
        assert health["resilience"] == {"retries": 0, "quarantined": 0}
        assert health["admission"]["rejected_total"] == 0
        assert health["requests_total"] == self.REQUESTS

    def test_batched_and_solo_runs_agree_on_the_envelope_signature(self):
        """Riders split from one group carry their own block slices."""
        app = make_app(window_seconds=0.01)
        async def scenario():
            async with AsgiClient(app) as client:
                a, b = await asyncio.gather(
                    client.post("/v1/schedule", payload("PA7100", 60, 1)),
                    client.post("/v1/schedule", payload("PA7100", 90, 2)),
                )
                health = (await client.get("/healthz")).json()
                return a, b, health
        a, b, health = run(scenario())
        assert a.status == 200 and b.status == 200
        body_a, body_b = a.json(), b.json()
        # Same window, same batch: the group note says both rode it.
        if health["batcher"]["batches_total"] == 1:
            assert body_a["batched"]["group_requests"] == 2
            assert body_b["batched"]["offset"] > 0 or \
                body_a["batched"]["offset"] > 0
        for (machine, ops, seed), body in (
            (("PA7100", 60, 1), body_a), (("PA7100", 90, 2), body_b),
        ):
            expected = serial_schedule(machine, ops, seed).to_dict()
            assert body["cycles"] == expected["cycles"]
            assert body["schedules"] == expected["schedules"]


class TestWireModels:
    def test_decode_rejects_both_trace_and_workload(self):
        from repro.errors import RequestError
        from repro.server.models import decode_schedule_request

        with pytest.raises(RequestError, match="not both"):
            decode_schedule_request({
                "machine": "Pentium", "trace": ".machine Pentium",
                "workload": {"total_ops": 10},
            })

    def test_decode_normalizes_the_config_subset(self):
        from repro.server.models import decode_batch_request
        from repro.service.models import BatchConfig

        request, include = decode_batch_request(
            {
                "machine": "K5",
                "workload": {"total_ops": 30, "seed": 1},
                "config": {"retries": 1, "chunk_size": 8},
                "include_schedules": False,
            },
            base_config=BatchConfig(lmdes_path="/srv/k5.lmdes.json"),
        )
        assert include is False
        assert request.config.retry.retries == 1
        assert request.config.chunk_size == 8
        # A server-side field the wire cannot set survives the overlay.
        assert request.config.lmdes_path == "/srv/k5.lmdes.json"

    def test_response_to_dict_round_trips_json(self):
        response = serial_schedule("Pentium", 50, 4)
        body = json.loads(json.dumps(response.to_dict()))
        assert body["cycles"] == response.cycles
        assert len(body["schedules"]) == response.blocks


class TestSynthFleetChurn:
    """Server load test: a fleet of distinct synth machines through
    ``/v1/schedule``.

    The server's warm cache is built for a handful of hand-written
    machines; a synth fleet deliberately overflows it.  The contract
    under churn: every response stays correct (200, ok, nonzero
    cycles), the cache grows only to its bound and starts evicting,
    and no resilience machinery ever fires -- eviction is a capacity
    event, not a fault.
    """

    FLEET = 64

    def test_64_distinct_synth_machines_churn_the_cache(self):
        from repro.machines.synth import fleet_names

        names = fleet_names("superscalar-narrow", 21, self.FLEET)
        app = make_app(
            queue=QueuePolicy(max_inflight=256, per_client_inflight=64),
        )

        async def scenario():
            async with AsgiClient(app) as client:
                before = (await client.get("/healthz")).json()
                responses = []
                # Waves of 8 concurrent requests, each wave all-new
                # machines: sustained compile pressure, not one burst.
                for start in range(0, len(names), 8):
                    wave = names[start:start + 8]
                    responses.extend(await asyncio.gather(*[
                        client.post(
                            "/v1/schedule", payload(name, 40, 17)
                        )
                        for name in wave
                    ]))
                health = (await client.get("/healthz")).json()
                return before, responses, health

        before, responses, health = run(scenario())

        assert before["cache"]["entries"] == 0
        for name, response in zip(names, responses):
            assert response.status == 200, response.text
            body = response.json()
            assert body["ok"], name
            assert body["machine"] == name
            assert body["cycles"] > 0
            assert body["errors"] == []

        cache = health["cache"]
        # Every distinct description compiled at least once...
        assert cache["memory_misses"] >= self.FLEET
        # ...the resident set respected the LRU bound (64 entries,
        # two per machine, 64 machines -> must have evicted)...
        assert cache["entries"] <= 64
        assert cache["evictions"] > 0
        # ...and churn produced zero resilience events.
        assert health["resilience"] == {"retries": 0, "quarantined": 0}
        assert health["status"] == "ok"
