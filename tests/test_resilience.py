"""Fault-injection differential matrix for the resilient batch service.

The resilience layer's contract is determinism under recovery: a batch
run surviving injected transient scheduling errors and corrupt
disk-cache entries produces output **bit-for-bit identical** to a clean
run: the same schedule signatures, the same folded :class:`CheckStats`,
and the same merged span skeleton.  This suite asserts exactly that,
plus the surrounding machinery: deterministic backoff, the
``REPRO_FAULTS`` grammar, and poisoned-block quarantine.

Every fault profile here is seeded by rule -- chunk index and attempt
numbers -- so the tests are reproducible, not merely likely to pass.
"""

import dataclasses

import pytest

from repro import obs
from repro.engine import create_engine
from repro.errors import ServiceError
from repro.scheduler import schedule_workload
from repro.service import (
    BatchConfig,
    RetryPolicy,
    parse_faults,
    schedule_batch,
)
from repro.service import faults
from repro.service.faults import FaultPlan, FaultRule
from repro.service.resilience import is_retryable

from tests.conftest import shared_workload

MACHINE = "K5"
CHUNK = 4
STAGE = 4


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """No test leaves a process-wide fault plan behind."""
    faults.clear()
    yield
    faults.clear()


def workload(ops=160, seed=11, machine_name=MACHINE):
    return shared_workload(machine_name, ops, seed)


def clean_serial(machine_name, blocks, **knobs):
    """The reference outcome: no faults installed."""
    with faults.injected(FaultPlan()):
        return schedule_batch(
            machine_name, blocks,
            BatchConfig(chunk_size=CHUNK, stage=STAGE, **knobs),
        )


def assert_same_outcome(result, reference):
    """The bit-for-bit part of the contract."""
    assert result.signature() == reference.signature()
    assert result.stats == reference.stats
    assert result.total_ops == reference.total_ops
    assert result.total_cycles == reference.total_cycles
    assert result.chunk_count == reference.chunk_count


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_defaults_validate(self):
        RetryPolicy().validate()
        BatchConfig().validate()

    @pytest.mark.parametrize("bad", [
        dict(retries=-1),
        dict(backoff_base=-0.1),
        dict(backoff_max=-1.0),
        dict(backoff_factor=0.5),
        dict(jitter=1.5),
        dict(jitter=-0.1),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad).validate()

    def test_attempts_is_retries_plus_one(self):
        assert RetryPolicy().attempts == 1
        assert RetryPolicy(retries=3).attempts == 4

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(retries=3, seed=7)
        again = RetryPolicy(retries=3, seed=7)
        for chunk in range(4):
            for attempt in range(1, 4):
                assert policy.delay(chunk, attempt) == \
                    again.delay(chunk, attempt)

    def test_delay_depends_on_seed_and_chunk(self):
        policy = RetryPolicy(seed=1)
        other_seed = RetryPolicy(seed=2)
        assert policy.delay(0, 1) != other_seed.delay(0, 1)
        assert policy.delay(0, 1) != policy.delay(1, 1)

    def test_delay_without_jitter_is_exact_exponential(self):
        policy = RetryPolicy(
            retries=4, backoff_base=0.1, backoff_factor=2.0,
            backoff_max=0.3, jitter=0.0,
        )
        delays = [policy.delay(0, attempt) for attempt in range(1, 5)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_bounded_above_base(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=1.0, jitter=0.5,
        )
        for chunk in range(8):
            delay = policy.delay(chunk, 1)
            assert 0.1 <= delay <= 0.1 * 1.5

    def test_batch_config_validates_on_error_and_policies(self):
        with pytest.raises(ValueError):
            BatchConfig(on_error="explode").validate()
        with pytest.raises(ValueError):
            BatchConfig(retry=RetryPolicy(retries=-1)).validate()

    def test_retryable_classification(self):
        from repro.errors import CacheCorruptionError, SchedulingError

        assert is_retryable(SchedulingError("transient"))
        assert is_retryable(CacheCorruptionError("scribbled"))
        assert is_retryable(OSError("disk full"))
        assert not is_retryable(KeyError("BOGUS"))
        assert not is_retryable(ValueError("bad config"))


# ----------------------------------------------------------------------
# The fault grammar
# ----------------------------------------------------------------------


class TestFaultSpec:
    SPEC = "seed=42;sched@0#0,1;corrupt@3#*"

    def test_parse_round_trips_through_spec(self):
        plan = parse_faults(self.SPEC)
        assert plan.seed == 42
        assert parse_faults(plan.spec()) == plan

    def test_parsed_rules(self):
        plan = parse_faults(self.SPEC)
        by_kind = {rule.kind: rule for rule in plan.rules}
        assert by_kind["sched"].attempts == (0, 1)
        assert by_kind["corrupt"].attempts == ()  # every attempt
        assert parse_faults("sched@1").rules[0].attempts == (0,)

    def test_attempt_matching(self):
        transient = FaultRule("sched", chunk=2)
        assert transient.matches(2, 0)
        assert not transient.matches(2, 1)  # retries run clean
        assert not transient.matches(3, 0)
        deterministic = FaultRule("sched", chunk=2, attempts=())
        assert deterministic.matches(2, 0) and deterministic.matches(2, 9)

    def test_rules_apply_in_kind_order(self):
        plan = parse_faults("sched@0#*;corrupt@0#*")
        kinds = [rule.kind for rule in plan.rules_for(0, 0)]
        assert kinds == ["corrupt", "sched"]

    @pytest.mark.parametrize("bad", [
        "explode@0",          # unknown kind
        "sched",              # missing @chunk
        "sched@x",            # non-integer chunk
        "sched@-1",           # negative chunk
        "crash@0",            # unknown kind: a stale profile fails loudly
        "sched@0:1.5",        # rules take no parameter
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert not parse_faults("seed=3")
        assert parse_faults("sched@0")

    def test_env_var_gates_the_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "sched@1#0,1")
        plan = faults.current_plan()
        assert plan is not None and plan.rules[0].chunk == 1
        # A programmatically installed plan overrides the environment...
        with faults.injected(FaultPlan()):
            assert faults.current_plan() == FaultPlan()
        # ...and clearing it reverts to the environment.
        assert faults.current_plan() == plan
        monkeypatch.delenv(faults.ENV_VAR)
        assert faults.current_plan() is None

    def test_suppression_silences_every_rule(self):
        plan = parse_faults("sched@0#*")
        with faults.suppressed():
            faults.apply_chunk_faults(plan, 0, 0)  # must not raise


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


def span_skeleton(tracer):
    """The scheduling shape of a trace, recovery noise removed.

    Keeps ``service:batch`` / ``batch:chunk`` / ``schedule:list`` --
    the spans whose names, order, and attributes the determinism
    contract covers.  ``resilience:*`` spans (recovery is *allowed* to
    differ) and ``engine:create`` subtrees (a quarantined cache entry
    legitimately recompiles instead of disk-hitting) are filtered out.
    """
    keep = {"service:batch", "batch:chunk", "schedule:list"}

    def shape(span):
        children = tuple(
            shape(child) for child in span.children
            if child.name in keep
        )
        return (span.name, tuple(sorted(span.attrs.items())), children)

    return tuple(
        shape(root) for root in tracer.roots if root.name in keep
    )


class TestSerialRecovery:
    def test_transient_fault_recovered_bit_for_bit(self):
        machine, blocks = workload()
        reference = clean_serial(MACHINE, blocks)
        with faults.injected(parse_faults("sched@0")):
            result = schedule_batch(
                MACHINE, blocks,
                BatchConfig(chunk_size=CHUNK, stage=STAGE,
                            retry=RetryPolicy(retries=1, backoff_base=0.0)),
            )
        assert_same_outcome(result, reference)
        assert result.retries == 1
        assert result.errors == []

    def test_exhausted_budget_recovers_through_isolation(self):
        """A chunk that faults on *every* dispatch still comes back clean.

        Isolation probes with injection suppressed, finds no bad block,
        and re-runs the chunk through the normal path -- zero
        quarantines, identical output.
        """
        machine, blocks = workload()
        reference = clean_serial(MACHINE, blocks)
        with faults.injected(parse_faults("sched@0#*")):
            result = schedule_batch(
                MACHINE, blocks,
                BatchConfig(chunk_size=CHUNK, stage=STAGE),
            )
        assert_same_outcome(result, reference)
        assert result.retries == 0 and result.quarantined == 0

    def test_recovered_runs_are_reproducible(self):
        machine, blocks = workload()
        plan = parse_faults("sched@0;sched@1")
        outcomes = []
        for _ in range(2):
            with faults.injected(plan):
                outcomes.append(schedule_batch(
                    MACHINE, blocks,
                    BatchConfig(
                        chunk_size=CHUNK, stage=STAGE,
                        retry=RetryPolicy(retries=1, backoff_base=0.0),
                    ),
                ))
        first, second = outcomes
        assert_same_outcome(first, second)
        assert first.retries == second.retries == 2

    def test_acceptance_matrix_sched_corruption(self, tmp_path):
        """A seeded fault profile changes nothing a clean run reports.

        Transient scheduling errors and corrupt disk-cache entries are
        injected, and the recovered run's schedules, folded CheckStats,
        and merged span skeleton are bit-for-bit identical to a clean
        run over the same warmed cache.
        """
        machine, blocks = workload(ops=220, seed=31)
        assert len(blocks) >= 9  # at least three chunks of four
        knobs = dict(chunk_size=CHUNK, stage=STAGE,
                     cache_dir=str(tmp_path))

        # Warm the disk tier so the clean reference disk-hits.
        clean_serial(MACHINE, blocks, cache_dir=str(tmp_path))

        # corrupt@0#* -- chunk 0 scribbles the cache before its own
        #   (cold) load on every attempt: a guaranteed quarantine.
        # sched@1#0,1 -- two transient failures, inside the budget.
        profile = parse_faults("seed=42;corrupt@0#*;sched@1#0,1")

        was_enabled = obs.enabled()
        obs.enable()
        try:
            obs.reset()
            with faults.injected(FaultPlan()):
                reference = schedule_batch(
                    MACHINE, blocks, BatchConfig(**knobs)
                )
            reference_tree = span_skeleton(obs.TRACER)

            obs.reset()
            with faults.injected(profile):
                result = schedule_batch(
                    MACHINE, blocks,
                    BatchConfig(
                        retry=RetryPolicy(
                            retries=2, backoff_base=0.01, seed=42,
                        ),
                        **knobs,
                    ),
                )
            recovered_tree = span_skeleton(obs.TRACER)
        finally:
            if not was_enabled:
                obs.disable()
            obs.reset()

        # Bit-for-bit: schedules, folded stats, merged span skeleton.
        assert_same_outcome(result, reference)
        assert recovered_tree == reference_tree

        # The faults really happened and really were recovered.
        assert result.errors == []
        assert result.retries >= 1
        # The corrupt entry really went through the production
        # quarantine path, which counts it and leaves the renamed
        # ``*.bad`` artifact behind.
        quarantine_evidence = (
            result.cache_stats.disk_quarantined
            + len(list(tmp_path.glob("*.bad")))
        )
        assert quarantine_evidence >= 1


# ----------------------------------------------------------------------
# Poisoned-block quarantine
# ----------------------------------------------------------------------


def poison(blocks, block_index):
    """Give one block an opcode no machine knows (a KeyError at schedule)."""
    poisoned = list(blocks)
    victim = poisoned[block_index]
    bad_ops = list(victim.operations)
    bad_ops[0] = dataclasses.replace(bad_ops[0], opcode="BOGUS_OP")
    poisoned[block_index] = type(victim)(victim.label, bad_ops)
    return poisoned


class TestQuarantine:
    POISONED = 5  # second chunk under CHUNK=4

    def _poisoned_workload(self):
        machine, blocks = workload(seed=23)
        assert len(blocks) > self.POISONED
        return machine, poison(blocks, self.POISONED)

    def test_report_mode_quarantines_and_schedules_survivors(self):
        machine, blocks = self._poisoned_workload()
        result = schedule_batch(
            MACHINE, blocks,
            BatchConfig(chunk_size=CHUNK, stage=STAGE,
                        on_error="report"),
        )
        assert result.quarantined == 1
        (failure,) = result.errors
        assert failure.block_index == self.POISONED
        assert failure.chunk_index == self.POISONED // CHUNK
        assert failure.error_type == "KeyError"
        assert "BOGUS_OP" in failure.message
        assert failure.machine == MACHINE
        assert failure.to_dict()["block_index"] == self.POISONED

        # Survivors come back bit-for-bit as if the bad block never
        # existed: per-block schedules are independent of chunking.
        survivors = [
            block for index, block in enumerate(blocks)
            if index != self.POISONED
        ]
        clean = schedule_workload(
            machine, None, survivors, keep_schedules=True,
            engine=create_engine("bitvector", machine, stage=STAGE),
        )
        assert result.signature() == tuple(
            s.signature() for s in clean.schedules
        )
        assert len(result.schedules) == len(blocks) - 1

    def test_raise_mode_raises_typed_service_error(self):
        machine, blocks = self._poisoned_workload()
        with pytest.raises(ServiceError) as excinfo:
            schedule_batch(
                MACHINE, blocks,
                BatchConfig(chunk_size=CHUNK, stage=STAGE),
            )
        (failure,) = excinfo.value.failures
        assert failure.block_index == self.POISONED
        assert failure.error_type == "KeyError"


# ----------------------------------------------------------------------
# Recovery observability
# ----------------------------------------------------------------------


class TestRecoveryMetrics:
    def test_retry_and_quarantine_counters(self):
        machine, blocks = workload(seed=23)
        poisoned = poison(list(blocks), 1)
        was_enabled = obs.enabled()
        obs.enable()
        try:
            obs.reset()
            with faults.injected(parse_faults("sched@0")):
                schedule_batch(
                    MACHINE, poisoned,
                    BatchConfig(
                        chunk_size=CHUNK, stage=STAGE,
                        on_error="report",
                        retry=RetryPolicy(retries=1, backoff_base=0.0),
                    ),
                )
            registry = obs.REGISTRY
            assert registry.value(
                "repro_resilience_retries_total",
                reason="SchedulingError",
            ) == 1
            assert registry.value(
                "repro_resilience_quarantined_blocks_total") == 1
            spans = [root.name for root in obs.TRACER.roots]
            assert "service:batch" in spans
        finally:
            if not was_enabled:
                obs.disable()
            obs.reset()
