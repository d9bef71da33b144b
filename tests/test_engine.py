"""Tests for the pluggable query-engine layer (:mod:`repro.engine`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AutomatonEngine,
    CacheStats,
    DescriptionCache,
    EngineSpec,
    GLOBAL_CACHE,
    TableEngine,
    create_engine,
    engine_names,
    get_engine_spec,
    machine_content_token,
    register_engine,
)
from repro.errors import MdesError, SchedulingError
from repro.lowlevel.checker import CheckStats
from repro.machines import MACHINE_NAMES, get_machine
from repro.scheduler import schedule_workload
from repro.workloads import WorkloadConfig, generate_blocks

ALL_BACKENDS = (
    "ortree", "andor", "bitvector", "automata", "eichenberger", "exact",
)


def small_workload(machine, ops=120, seed=3):
    return generate_blocks(
        machine, WorkloadConfig(total_ops=ops, seed=seed)
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert engine_names() == ALL_BACKENDS

    def test_unknown_backend_lists_known(self):
        with pytest.raises(KeyError, match="ortree"):
            get_engine_spec("no-such-backend")

    def test_duplicate_registration_rejected(self):
        spec = get_engine_spec("ortree")
        with pytest.raises(ValueError, match="already registered"):
            register_engine(spec)
        register_engine(spec, replace=True)  # idempotent with replace

    def test_custom_backend_reachable_by_name(self):
        spec = EngineSpec(
            name="ortree-scalar-test",
            rep="or",
            bitvector=False,
            engine_cls=TableEngine,
            description="test-only clone of ortree",
        )
        register_engine(spec)
        try:
            engine = create_engine(
                "ortree-scalar-test", get_machine("K5")
            )
            assert engine.name == "ortree-scalar-test"
            state = engine.new_state()
            class_name = sorted(engine.compiled.constraints)[0]
            assert engine.try_reserve(state, class_name, 0) is not None
        finally:
            from repro.engine import registry

            del registry._REGISTRY["ortree-scalar-test"]

    def test_stage_below_minimum_rejected(self):
        with pytest.raises(MdesError, match="stage >= 3"):
            create_engine("automata", get_machine("K5"), stage=0)


class TestEngineProtocol:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_reserve_block_release_cycle(self, backend):
        engine = create_engine(backend, get_machine("SuperSPARC"))
        state = engine.new_state()
        class_name = sorted(engine.compiled.constraints)[0]
        first = engine.try_reserve(state, class_name, 0)
        assert first is not None and len(first) > 0
        # The same slot cannot be taken twice...
        assert engine.try_reserve(state, class_name, 0) is None
        # ...until the reservation is released.
        engine.release(first)
        assert engine.try_reserve(state, class_name, 0) is not None

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_stats_injection(self, backend):
        shared = CheckStats()
        engine = create_engine(
            backend, get_machine("K5"), stats=shared
        )
        machine = get_machine("K5")
        schedule_workload(
            machine, None, small_workload(machine), engine=engine
        )
        assert engine.stats is shared
        assert shared.attempts > 0

    def test_automaton_memoized_attempts_cost_nothing(self):
        machine = get_machine("SuperSPARC")
        engine = create_engine("automata", machine)
        state = engine.new_state()
        class_name = sorted(engine.compiled.constraints)[0]
        engine.try_reserve(state, class_name, 0)
        cold = engine.stats.resource_checks
        assert cold > 0
        # An identical query on a fresh region hits the transition table.
        engine.try_reserve(engine.new_state(), class_name, 0)
        assert engine.stats.resource_checks == cold
        assert engine.stats.attempts == 2


class TestSchedulerIntegration:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    def test_identical_schedules_across_backends(
        self, machine_name, backend
    ):
        machine = get_machine(machine_name)
        blocks = small_workload(machine)
        reference = schedule_workload(
            machine, None, blocks, keep_schedules=True,
            engine=create_engine("ortree", machine),
        )
        run = schedule_workload(
            machine, None, blocks, keep_schedules=True,
            engine=create_engine(backend, machine),
        )
        assert run.signature() == reference.signature()
        assert run.stats.attempts == reference.stats.attempts

    @given(seed=st.integers(min_value=0, max_value=2**20),
           ops=st.integers(min_value=10, max_value=80))
    @settings(max_examples=12, deadline=None)
    def test_property_backends_agree_on_random_workloads(self, seed, ops):
        """Every registered engine schedules every machine identically."""
        for machine_name in MACHINE_NAMES:
            machine = get_machine(machine_name)
            blocks = generate_blocks(
                machine, WorkloadConfig(total_ops=ops, seed=seed)
            )
            signatures = {
                schedule_workload(
                    machine, None, blocks, keep_schedules=True,
                    engine=create_engine(name, machine),
                ).signature()
                for name in engine_names()
            }
            assert len(signatures) == 1

    def test_operation_scheduler_accepts_engine(self):
        from repro.scheduler.operation_scheduler import OperationScheduler

        machine = get_machine("SuperSPARC")
        blocks = small_workload(machine, ops=60)
        by_table = OperationScheduler(
            machine, engine=create_engine("bitvector", machine)
        )
        by_automaton = OperationScheduler(
            machine, engine=create_engine("automata", machine)
        )
        for block in blocks:
            a = by_table.schedule_block(block)
            b = by_automaton.schedule_block(block)
            assert a.schedule.signature() == b.schedule.signature()
            assert b.stats.attempts == a.stats.attempts

    def test_modulo_scheduler_runs_on_table_backends(self):
        from repro.modulo import make_recurrence_loop, modulo_schedule

        machine = get_machine("SuperSPARC")
        loop = make_recurrence_loop(machine, 3, 2)
        compiled = GLOBAL_CACHE.compiled(machine, "andor", 4, True)
        by_compiled = modulo_schedule(loop, machine, compiled)
        by_engine = modulo_schedule(
            loop, machine, engine=create_engine("bitvector", machine)
        )
        assert by_engine.ii == by_compiled.ii
        assert by_engine.times == by_compiled.times

    def test_modulo_needs_a_source(self):
        from repro.modulo import make_recurrence_loop, modulo_schedule

        machine = get_machine("SuperSPARC")
        with pytest.raises(SchedulingError, match="engine"):
            modulo_schedule(make_recurrence_loop(machine, 2, 1), machine)

    def test_modulo_rejects_non_modulo_backends(self):
        """The section 10 capability gap, surfaced as a typed error."""
        from repro.modulo import make_recurrence_loop, modulo_schedule

        machine = get_machine("SuperSPARC")
        with pytest.raises(SchedulingError, match="modulo"):
            modulo_schedule(
                make_recurrence_loop(machine, 2, 1), machine,
                engine=create_engine("automata", machine),
            )

    def test_cycle_scheduler_engine_backend(self):
        from repro.automata import EngineBackend, TableBackend
        from repro.automata.cycle_scheduler import cycle_schedule_workload

        machine = get_machine("K5")
        blocks = small_workload(machine, ops=80)
        table_run, _ = cycle_schedule_workload(
            machine, TableBackend(
                GLOBAL_CACHE.compiled(machine, "andor", 3, True)
            ), blocks,
        )
        engine_run, _ = cycle_schedule_workload(
            machine,
            EngineBackend(create_engine("automata", machine, stage=3)),
            blocks,
        )
        assert engine_run.signature() == table_run.signature()


class TestStatsFolding:
    def test_iadd_merges_counters(self):
        machine = get_machine("K5")
        blocks = small_workload(machine)
        runs = [
            schedule_workload(
                machine, None, blocks, engine=create_engine(name, machine)
            )
            for name in ("ortree", "andor")
        ]
        total = CheckStats()
        for run in runs:
            total += run.stats
        assert total.attempts == sum(r.stats.attempts for r in runs)
        assert total.resource_checks == sum(
            r.stats.resource_checks for r in runs
        )

    def test_sum_folding(self):
        machine = get_machine("K5")
        blocks = small_workload(machine)
        runs = [
            schedule_workload(
                machine, None, blocks, engine=create_engine(name, machine)
            )
            for name in ("ortree", "bitvector")
        ]
        folded = sum((run.stats for run in runs), CheckStats())
        assert folded.attempts == sum(r.stats.attempts for r in runs)
        plain_sum = sum(run.stats for run in runs)  # __radd__ on 0
        assert plain_sum.attempts == folded.attempts

    def test_since_reports_only_the_delta(self):
        machine = get_machine("K5")
        engine = create_engine("andor", machine)
        schedule_workload(
            machine, None, small_workload(machine), engine=engine
        )
        before = engine.stats.copy()
        second = schedule_workload(
            machine, None, small_workload(machine), engine=engine
        )
        delta = engine.stats.since(before)
        assert delta.attempts == second.stats.attempts
        assert engine.stats.attempts == before.attempts + delta.attempts


class TestDescriptionCache:
    def test_repeated_compiles_hit_the_cache(self):
        cache = DescriptionCache(maxsize=8)
        machine = get_machine("Pentium")
        first = cache.compiled(machine, "andor", 4, True)
        assert cache.stats.misses > 0
        misses = cache.stats.misses
        second = cache.compiled(machine, "andor", 4, True)
        assert second is first
        assert cache.stats.misses == misses
        assert cache.stats.hits >= 1

    def test_repeated_engine_creation_hits_the_cache(self):
        machine = get_machine("PA7100")
        GLOBAL_CACHE.compiled(machine, "or", 4, False)
        hits = GLOBAL_CACHE.stats.hits
        misses = GLOBAL_CACHE.stats.misses
        create_engine("ortree", machine)
        create_engine("ortree", machine)
        assert GLOBAL_CACHE.stats.hits >= hits + 2
        assert GLOBAL_CACHE.stats.misses == misses

    def test_repeated_analysis_suites_share_compilations(self):
        from repro.analysis import ExperimentSuite

        first = ExperimentSuite(total_ops=300)
        first.compiled("K5", "andor", 4, True)
        misses = GLOBAL_CACHE.stats.misses
        hits = GLOBAL_CACHE.stats.hits
        second = ExperimentSuite(total_ops=600)
        second.compiled("K5", "andor", 4, True)
        assert GLOBAL_CACHE.stats.misses == misses
        assert GLOBAL_CACHE.stats.hits > hits

    def test_lru_eviction(self):
        cache = DescriptionCache(maxsize=2)
        machine = get_machine("K5")
        cache.mdes(machine, "or", 0)
        cache.mdes(machine, "or", 1)
        cache.mdes(machine, "andor", 0)  # evicts ("or", 0)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        misses = cache.stats.misses
        cache.mdes(machine, "or", 0)  # rebuilt, not cached
        assert cache.stats.misses == misses + 1

    def test_same_name_different_machine_never_aliases(self):
        cache = DescriptionCache()
        real = get_machine("K5")

        class Impostor:
            name = "K5"

            def build_or(self):
                return real.build_or()

        impostor = Impostor()
        cache.mdes(real, "or", 0)
        cache.mdes(impostor, "or", 0)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_clear_resets_entries_and_counters(self):
        cache = DescriptionCache()
        cache.mdes(get_machine("K5"), "or", 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0

    def test_clear_resets_stats_in_place(self):
        """Holders of the stats object must see the reset, not a stale
        snapshot left behind by rebinding."""
        cache = DescriptionCache()
        held = cache.stats
        cache.mdes(get_machine("K5"), "or", 0)
        assert held.misses == 1
        cache.clear()
        assert cache.stats is held
        assert held.misses == 0 and held.hits == 0

    def test_since_windows_the_counters(self):
        """A ``copy`` is a frozen snapshot and ``since`` the activity
        after it, every counter included."""
        machine = get_machine("PA7100")
        cache = DescriptionCache(maxsize=2)
        cache.compiled(machine, "andor", 4, True)  # mdes + lmdes misses
        snapshot = cache.stats.copy()
        assert snapshot == CacheStats(misses=2)

        cache.compiled(machine, "andor", 4, True)  # an LRU hit
        cache.mdes(machine, "or", 4)  # a miss that evicts one entry
        assert cache.stats.since(snapshot) == CacheStats(
            hits=1, misses=1, evictions=1
        )
        assert snapshot == CacheStats(misses=2)  # the copy stayed put

    def test_reset_zeroes_counters_but_keeps_entries(self):
        """``reset`` zeroes every counter of the held object; it is
        bookkeeping only, so cached entries stay warm."""
        machine = get_machine("PA7100")
        cache = DescriptionCache()
        first = cache.compiled(machine, "andor", 4, True)
        held = cache.stats
        held.reset()
        assert held == CacheStats()
        assert cache.stats.since(CacheStats()) == CacheStats()

        # Reset is not invalidation: the entry still hits, and the
        # counters start moving again from zero.
        assert cache.compiled(machine, "andor", 4, True) is first
        assert held == CacheStats(hits=1)


def fresh_machine(name="SuperSPARC"):
    """A new Machine object (same content, different identity)."""
    from repro.machines import amdk5, pa7100, pentium, supersparc

    builders = {
        "PA7100": pa7100.build_machine,
        "Pentium": pentium.build_machine,
        "SuperSPARC": supersparc.build_machine,
        "K5": amdk5.build_machine,
    }
    return builders[name]()


class TestContentKeys:
    """Cache keys hash the description text, not the machine object."""

    def test_token_is_stable_across_objects(self):
        assert machine_content_token(fresh_machine()) == (
            machine_content_token(fresh_machine())
        )
        assert machine_content_token(get_machine("SuperSPARC")) == (
            machine_content_token(fresh_machine())
        )

    def test_token_differs_across_machines(self):
        tokens = {
            machine_content_token(get_machine(name))
            for name in MACHINE_NAMES
        }
        assert len(tokens) == len(MACHINE_NAMES)

    def test_equal_content_machines_share_cache_entries(self):
        """An ``id(machine)`` key would split these into two misses."""
        cache = DescriptionCache()
        first = cache.compiled(fresh_machine(), "andor", 4, True)
        second = cache.compiled(fresh_machine(), "andor", 4, True)
        assert second is first
        assert cache.stats.hits == 1

    def test_sourceless_machines_never_alias(self):
        """Objects without HMDES source get identity tokens: two of
        them never share an entry, even under one name."""
        real = get_machine("K5")

        class Impostor:
            name = "K5"

            def build_andor(self):
                return real.build_andor()

        first, second = Impostor(), Impostor()
        assert machine_content_token(first) != (
            machine_content_token(second)
        )
        cache = DescriptionCache()
        cache.compiled(first, "andor", 4, True)
        cache.compiled(second, "andor", 4, True)
        assert cache.stats.hits == 0
        assert len(cache) == 4


class TestCapabilities:
    def test_automaton_engine_declares_no_modulo(self):
        engine = create_engine("automata", get_machine("K5"))
        assert isinstance(engine, AutomatonEngine)
        assert engine.supports_modulo is False
        with pytest.raises(SchedulingError, match="modulo"):
            engine.new_state(ii=4)

    @pytest.mark.parametrize(
        "backend", ["ortree", "andor", "bitvector", "eichenberger"]
    )
    def test_table_backends_wrap_modulo_state(self, backend):
        from repro.lowlevel.bitvector import ModuloRUMap

        engine = create_engine(backend, get_machine("K5"))
        assert engine.supports_modulo is True
        state = engine.new_state(ii=3)
        assert isinstance(state, ModuloRUMap)
        state.reserve(7, 0b1)
        assert not state.is_free(1, 0b1)  # 7 mod 3 == 1
