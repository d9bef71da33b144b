"""The ``repro.api`` facade contract.

``repro.api`` is the supported public surface: everything in its
``__all__`` must import, and the convenience entry points must agree
bit-for-bit with the deep-path equivalents they wrap.
"""

import pytest

from repro import api
from repro.engine import create_engine
from repro.errors import (
    DeadlineExceededError,
    MdesError,
    ReproError,
    SchedulingError,
    ServiceError,
    VerificationError,
)
from repro.machines import get_machine
from repro.scheduler import schedule_workload
from repro.workloads import WorkloadConfig, generate_blocks

MACHINE = "K5"
STAGE = 4


def workload(ops=120, seed=11):
    machine = get_machine(MACHINE)
    return machine, generate_blocks(
        machine, WorkloadConfig(total_ops=ops, seed=seed)
    )


class TestFacadeSurface:
    def test_every_name_in_all_is_importable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_error_taxonomy_roots_at_repro_error(self):
        for error_type in (SchedulingError, ServiceError, MdesError):
            assert issubclass(error_type, ReproError)
        for error_type in (DeadlineExceededError, VerificationError):
            assert issubclass(error_type, ServiceError)
        failure_records = ServiceError("boom", failures=["record"])
        assert failure_records.failures == ["record"]

    def test_compile_machine_matches_deep_path(self):
        from repro.lowlevel.compiled import compile_mdes
        from repro.lowlevel.serialize import save_lmdes
        from repro.transforms.pipeline import staged_mdes

        machine = get_machine(MACHINE)
        deep = compile_mdes(
            staged_mdes(machine.build_andor(), STAGE), bitvector=True
        )
        assert save_lmdes(api.compile_machine(MACHINE, stage=STAGE)) \
            == save_lmdes(deep)

    def test_compile_machine_rejects_unknown_rep(self):
        with pytest.raises(ValueError):
            api.compile_machine(MACHINE, rep="nand")

    def test_get_engine_accepts_name_or_object(self):
        machine = get_machine(MACHINE)
        by_name = api.get_engine("bitvector", MACHINE, stage=STAGE)
        by_object = api.get_engine("bitvector", machine, stage=STAGE)
        assert type(by_name) is type(by_object)
        assert by_name.name == "bitvector"
        assert set(api.engine_names()) >= {"bitvector", "automata"}

    def test_schedule_matches_deep_path(self):
        machine, blocks = workload()
        response = api.schedule(api.ScheduleRequest(
            machine=MACHINE, blocks=tuple(blocks),
            backend="bitvector", stage=STAGE,
        ))
        deep = schedule_workload(
            machine, None, blocks, keep_schedules=True,
            engine=create_engine("bitvector", machine, stage=STAGE),
        )
        assert isinstance(response, api.ScheduleResponse)
        assert [s.signature() for s in response.schedules] \
            == [s.signature() for s in deep.schedules]
        assert response.cycles == deep.total_cycles
        assert response.signature() \
            == tuple(s.signature() for s in deep.schedules)
        assert response.kind == "list" and response.ok
        assert response.request_id

    def test_schedule_response_serializes_to_json(self):
        import json

        _, blocks = workload(ops=60)
        response = api.schedule(api.ScheduleRequest(
            machine=MACHINE, blocks=tuple(blocks), stage=STAGE,
            verify=True,
        ))
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["machine"] == MACHINE
        assert payload["cycles"] == response.cycles
        assert payload["verify"]["ok"] is True
        assert len(payload["schedules"]) == response.blocks
        slim = response.to_dict(include_schedules=False)
        assert "schedules" not in slim

    def test_schedule_rejects_mixed_calling_styles(self):
        _, blocks = workload(ops=40)
        request = api.ScheduleRequest(machine=MACHINE, blocks=tuple(blocks))
        with pytest.raises(TypeError):
            api.schedule(request, backend="bitvector")
        with pytest.raises(TypeError):
            api.schedule_batch(
                api.BatchRequest(machine=MACHINE, blocks=tuple(blocks)),
                config=api.BatchConfig(),
            )

    def test_entry_points_reject_a_non_request_first_argument(self):
        for entry, request_type in (
            (api.schedule, "ScheduleRequest"),
            (api.schedule_exact, "ScheduleRequest"),
            (api.schedule_batch, "BatchRequest"),
        ):
            with pytest.raises(TypeError, match=request_type):
                entry(MACHINE)

    def test_schedule_request_validation_is_typed(self):
        from repro.errors import RequestError

        _, blocks = workload(ops=40)
        with pytest.raises(RequestError):
            api.schedule(api.ScheduleRequest(
                machine="NoSuchMachine", blocks=tuple(blocks),
            ))
        with pytest.raises(RequestError):
            api.schedule(api.ScheduleRequest(
                machine=MACHINE, blocks=tuple(blocks), backend="nope",
            ))

    def test_schedule_batch_takes_batch_request(self):
        from repro.service import schedule_batch

        _, blocks = workload(ops=60)
        config = api.BatchConfig(chunk_size=8, stage=STAGE)
        response = api.schedule_batch(api.BatchRequest(
            machine=MACHINE, blocks=tuple(blocks), config=config,
        ))
        assert isinstance(response, api.ScheduleResponse)
        assert response.kind == "batch"
        assert response.ops == sum(len(b) for b in blocks)
        assert response.errors == []
        assert response.resilience is not None
        assert response.cache is not None
        # The service-layer entry point returns the bare result.
        bare = schedule_batch(get_machine(MACHINE), blocks, config)
        assert response.signature() == bare.signature()
