"""Tests for the LMDES file format."""

import json

import pytest

from repro.engine import DescriptionCache, create_engine
from repro.transforms.pipeline import staged_mdes
from repro.errors import MdesError
from repro.lowlevel import compile_mdes, mdes_size_bytes
from repro.lowlevel.serialize import LMDES_VERSION, load_lmdes, save_lmdes
from repro.machines import MACHINE_NAMES, get_machine
from repro.scheduler import schedule_workload
from repro.workloads import WorkloadConfig, generate_blocks


def roundtrip(compiled):
    return load_lmdes(save_lmdes(compiled))


class TestRoundTrip:
    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    @pytest.mark.parametrize("bitvector", [False, True])
    def test_sizes_exact(self, machine_name, bitvector):
        machine = get_machine(machine_name)
        compiled = compile_mdes(machine.build_andor(), bitvector)
        loaded = roundtrip(compiled)
        assert mdes_size_bytes(loaded) == mdes_size_bytes(compiled)
        assert loaded.bitvector == compiled.bitvector

    def test_sharing_topology_preserved(self):
        machine = get_machine("SuperSPARC")
        compiled = compile_mdes(machine.build_andor())
        loaded = roundtrip(compiled)
        originals = compiled.unique_objects()
        recovered = loaded.unique_objects()
        assert [len(group) for group in originals] == [
            len(group) for group in recovered
        ]

    def test_constraint_level_sharing_preserved(self):
        """PA7100's load and store share one AND/OR-tree."""
        machine = get_machine("PA7100")
        loaded = roundtrip(compile_mdes(machine.build_andor()))
        assert loaded.constraints["load"] is loaded.constraints["store"]

    def test_checks_identical(self):
        machine = get_machine("K5")
        compiled = compile_mdes(
            staged_mdes(machine.build_andor(), 4), bitvector=True
        )
        loaded = roundtrip(compiled)
        for class_name, constraint in compiled.constraints.items():
            recovered = loaded.constraints[class_name]
            assert type(recovered) is type(constraint)

    def test_scheduling_behaviour_identical(self):
        machine = get_machine("SuperSPARC")
        compiled = compile_mdes(
            staged_mdes(machine.build_andor(), 4), bitvector=True
        )
        loaded = roundtrip(compiled)
        blocks = generate_blocks(machine, WorkloadConfig(total_ops=400))
        original = schedule_workload(machine, compiled, blocks,
                                     keep_schedules=True)
        recovered = schedule_workload(machine, loaded, blocks,
                                      keep_schedules=True)
        assert original.signature() == recovered.signature()
        assert (
            original.stats.resource_checks
            == recovered.stats.resource_checks
        )

    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    def test_cold_build_and_lmdes_load_are_equivalent(self, machine_name):
        """A saved stage-4 description loads back into one that
        schedules identically, counters included."""
        machine = get_machine(machine_name)
        cold = DescriptionCache().compiled(machine, "andor", 4, True)
        loaded = roundtrip(cold)
        assert loaded is not cold
        assert mdes_size_bytes(loaded) == mdes_size_bytes(cold)
        blocks = generate_blocks(
            machine, WorkloadConfig(total_ops=150, seed=7)
        )
        reference = schedule_workload(
            machine, cold, blocks, keep_schedules=True
        )
        recovered = schedule_workload(
            machine, loaded, blocks, keep_schedules=True
        )
        assert recovered.signature() == reference.signature()
        assert recovered.stats == reference.stats

    def test_reduced_description_round_trips(self):
        """The Eichenberger-Davidson reduction is baked into the file."""
        machine = get_machine("PA7100")
        blocks = generate_blocks(
            machine, WorkloadConfig(total_ops=150, seed=7)
        )
        engine = create_engine(
            "eichenberger", machine, cache=DescriptionCache()
        )
        loaded = roundtrip(engine.compiled)
        reference = schedule_workload(
            machine, None, blocks, keep_schedules=True, engine=engine
        )
        recovered = schedule_workload(
            machine, loaded, blocks, keep_schedules=True
        )
        assert recovered.signature() == reference.signature()
        assert recovered.stats == reference.stats

    def test_metadata_preserved(self):
        machine = get_machine("SuperSPARC")
        loaded = roundtrip(compile_mdes(machine.build_andor()))
        source = loaded.source
        assert source.name == "SuperSPARC"
        assert source.op_class("load").read_time == -1
        assert source.bypass_for("ialu_1src", "ialu_1src") is not None
        assert source.opcode_map == machine.build().opcode_map


class TestFormatErrors:
    def test_not_lmdes(self):
        text = save_lmdes(compile_mdes(get_machine("PA7100").build_andor()))
        document = json.loads(text)
        for bad in (
            json.dumps({"format": "elf"}),
            "[1, 2]",
            json.dumps({"format": "lmdes", "version": LMDES_VERSION}),
            text[: len(text) // 2],
            json.dumps(dict(document, or_trees=[[len(document["options"])]])),
            json.dumps(dict(document, bypasses=[["alu"]])),
        ):
            with pytest.raises(MdesError, match="not an LMDES"):
                load_lmdes(bad)

    def test_wrong_version(self):
        document = json.loads(
            save_lmdes(compile_mdes(get_machine("PA7100").build_andor()))
        )
        document["version"] = LMDES_VERSION + 1
        with pytest.raises(MdesError, match="version"):
            load_lmdes(json.dumps(document))

    def test_document_shape(self):
        text = save_lmdes(compile_mdes(get_machine("K5").build_andor()))
        document = json.loads(text)
        assert document["machine"] == "K5"
        assert document["options"]
        assert document["or_trees"]
        assert document["andor_trees"]
