"""Synthetic machine fleets (``repro.machines.synth``).

The fleet generator's contract, pinned four ways:

* **Determinism**: the same ``(family, seed, index)`` triple builds
  byte-identical HMDES source in any process -- the property that lets
  the server, the sweep driver and the description cache rebuild or
  find any variant from its registry name alone.
* **Full-stack legality**: every variant's source is writer-serialized
  HMDES, so building it exercises the writer -> parser -> translator
  front end; every preset family must come out schedulable.
* **Backend agreement**: a shared seeded workload scheduled on every
  registered list backend produces bit-identical signatures, and the
  independent oracle accepts the schedules.
* **Registry integration**: ``synth:<family>:<seed>:<index>`` names
  resolve through ``get_machine`` under a bounded LRU, and malformed
  names fail with the registry's KeyError contract.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import create_engine, engine_names
from repro.machines import get_machine
from repro.machines.synth import (
    FAMILIES,
    RESOLVE_CACHE_SIZE,
    build_variant,
    clear_resolve_cache,
    describe_complexity,
    family_names,
    fleet_names,
    is_synth_name,
    machine_name,
    parse_name,
    resolve,
    resolve_cache_len,
)
from repro.scheduler import schedule_workload
from repro.verify import verify_schedule
from repro.workloads import WorkloadConfig, generate_blocks

WORKLOAD_SEED = 20161202
COMPLEXITY_KEYS = {
    "resources", "classes", "opcodes",
    "stored_options", "stored_usages", "flat_options",
}


class TestNaming:
    def test_machine_name_parse_roundtrip(self):
        for family in family_names():
            name = machine_name(family, 7, 3)
            assert name == f"synth:{family}:7:3"
            assert is_synth_name(name)
            assert parse_name(name) == (family, 7, 3)

    @pytest.mark.parametrize("bad", [
        "synth:",
        "synth:vliw-narrow",
        "synth:vliw-narrow:7",
        "synth:vliw-narrow:7:x",
        "synth:no-such-family:7:0",
        "PA7100",
    ])
    def test_malformed_names_raise_keyerror(self, bad):
        with pytest.raises(KeyError):
            resolve(bad)

    def test_fleet_names_in_index_order(self):
        names = fleet_names("vliw-narrow", 5, 4)
        assert names == tuple(
            machine_name("vliw-narrow", 5, i) for i in range(4)
        )
        with pytest.raises(KeyError):
            fleet_names("no-such-family", 5, 4)


class TestRegistry:
    def test_get_machine_resolves_synth_names(self):
        name = machine_name("superscalar-narrow", 11, 2)
        machine = get_machine(name)
        assert machine.name == name
        # Same name, same cached object.
        assert get_machine(name) is machine

    def test_unknown_machine_mentions_synth_namespace(self):
        with pytest.raises(KeyError, match="synth:<family>"):
            get_machine("NoSuchMachine")

    def test_resolve_cache_is_bounded(self):
        clear_resolve_cache()
        try:
            for index in range(RESOLVE_CACHE_SIZE + 16):
                resolve(machine_name("vliw-narrow", 1, index))
                assert resolve_cache_len() <= RESOLVE_CACHE_SIZE
            assert resolve_cache_len() == RESOLVE_CACHE_SIZE
        finally:
            clear_resolve_cache()


class TestGeneration:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 1000),
        index=st.integers(0, 50),
    )
    def test_seeded_generation_is_reproducible(self, family, seed, index):
        first = build_variant(family, seed, index)
        second = build_variant(family, seed, index)
        assert first.hmdes_source == second.hmdes_source
        assert first.name == second.name == machine_name(
            family, seed, index
        )
        assert first.opcode_profile == second.opcode_profile

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 100),
    )
    def test_neighbouring_indices_differ(self, family, seed):
        """A fleet is a *family*, not one machine repeated."""
        sources = {
            build_variant(family, seed, index).hmdes_source
            for index in range(4)
        }
        assert len(sources) > 1

    def test_every_family_parses_and_translates(self):
        """build() parses the writer-serialized source: the full
        writer -> parser -> translator round-trip per variant."""
        for family in family_names():
            machine = build_variant(family, 13, 0)
            mdes = machine.build()
            assert mdes.or_trees(), family
            andor = machine.build_andor()
            # Every profiled opcode must map to a translated class.
            for spec in machine.opcode_profile:
                assert andor.class_for_opcode(spec.opcode), (
                    family, spec.opcode
                )
            complexity = describe_complexity(machine)
            assert set(complexity) == COMPLEXITY_KEYS
            assert complexity["stored_options"] > 0
            assert complexity["flat_options"] > 0


class TestScheduling:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_backends_agree_and_oracle_accepts(self, family):
        """One shared workload, every backend, one signature -- and the
        independent oracle signs off on the placements."""
        machine = build_variant(family, 5, 0)
        blocks = generate_blocks(machine, WorkloadConfig(
            total_ops=48, seed=WORKLOAD_SEED,
        ))
        signatures = {}
        for backend in engine_names(scheduler="list"):
            engine = create_engine(backend, machine, stage=4)
            run = schedule_workload(
                machine, None, blocks, keep_schedules=True, engine=engine
            )
            signatures[backend] = run.signature()
            report = verify_schedule(machine, run)
            assert report.ok, (
                f"{family}/{backend}: {report.diagnostics[:3]}"
            )
        assert len(set(signatures.values())) == 1, (
            f"{family}: backends disagree: "
            f"{sorted((k, hash(v)) for k, v in signatures.items())}"
        )

    def test_transform_pipeline_reduces_every_family(self):
        """The planted redundancy/domination fodder must give the
        transforms something to remove in every preset.  The fodder is
        drawn per variant, so the floor is per small fleet, not per
        individual machine."""
        from repro.sweep import transform_effects_for

        for family in family_names():
            total = 0
            for index in range(6):
                machine = build_variant(family, 5, index)
                effects = transform_effects_for(machine, stage=4)
                total += sum(
                    e.get("options_delta", 0) for e in effects
                )
            assert total < 0, f"{family}: no option was ever removed"


class TestFuzzCompat:
    def test_fuzz_case_generation_unchanged(self):
        """The move to repro.machines.synth.grammar preserved draw
        order: the fuzzer's seeded cases are bit-identical."""
        from repro.verify.fuzz import generate_case

        one = generate_case(42)
        two = generate_case(42)
        assert one.machine.hmdes_source == two.machine.hmdes_source
