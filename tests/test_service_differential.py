"""Cross-backend differential harness for the batch-scheduling service.

The paper's invariant is that changing how constraints are *checked*
never changes what gets *scheduled*.  This suite extends that invariant
to the service layer: for every machine x backend pair, the serial
chunked reference and ``schedule_batch`` must produce bit-for-bit
identical schedules and identical summed :class:`CheckStats`.

The reference implementation here is deliberately independent of
``repro.service``: it chunks the block list by hand and runs the plain
:func:`schedule_workload` path per chunk with a fresh engine, folding
stats with ``__iadd__`` -- exactly what a correct batch driver must be
equivalent to.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentSuite
from repro.engine import (
    DescriptionCache,
    create_engine,
    engine_names,
    get_engine_spec,
)
from repro.lowlevel.checker import CheckStats
from repro.machines import MACHINE_NAMES
from repro.scheduler import schedule_workload
from repro.service import BatchConfig, schedule_batch
from tests.conftest import shared_workload

CHUNK = 8
STAGE = 4
BACKENDS = engine_names(scheduler="list")


def workload(machine_name, ops=220, seed=11):
    return shared_workload(machine_name, ops, seed)


@pytest.fixture(scope="module")
def shared_cache():
    """One description cache for the module's serial reference and
    batch legs: each (machine, backend) compiles once, in the serial
    reference, and the batch run finds it there."""
    return DescriptionCache(name="differential")


def serial_chunked_reference(machine, blocks, backend, cache, chunk=CHUNK):
    """Ground truth: plain schedule_workload per chunk, stats folded."""
    signature = []
    stats = CheckStats()
    total_ops = total_cycles = 0
    for start in range(0, len(blocks), chunk):
        engine = create_engine(backend, machine, stage=STAGE, cache=cache)
        run = schedule_workload(
            machine,
            None,
            blocks[start : start + chunk],
            keep_schedules=True,
            engine=engine,
        )
        signature.extend(s.signature() for s in run.schedules)
        stats += run.stats
        total_ops += run.total_ops
        total_cycles += run.total_cycles
    return tuple(signature), stats, total_ops, total_cycles


class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    def test_batch_matches_serial_chunked_reference(
        self, machine_name, backend, shared_cache
    ):
        machine, blocks = workload(machine_name)
        signature, stats, ops, cycles = serial_chunked_reference(
            machine, blocks, backend, shared_cache
        )
        result = schedule_batch(
            machine_name,
            blocks,
            BatchConfig(backend=backend, stage=STAGE, chunk_size=CHUNK),
            cache=shared_cache,
        )
        assert result.signature() == signature
        assert result.stats == stats
        assert result.total_ops == ops
        assert result.total_cycles == cycles

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_unchunked_serial_run(self, backend):
        """One engine over the whole workload gives the same schedules.

        Schedules and attempt/success counts are partition-independent
        for every backend.  The automaton's options/checks counters are
        not -- its memo table spans the whole run when unchunked -- so
        those are only compared for the table backends.
        """
        machine, blocks = workload("SuperSPARC")
        engine = create_engine(backend, machine, stage=STAGE)
        serial = schedule_workload(
            machine, None, blocks, keep_schedules=True, engine=engine
        )
        batch = schedule_batch(
            "SuperSPARC",
            blocks,
            BatchConfig(backend=backend, stage=STAGE, chunk_size=CHUNK),
        )
        assert batch.signature() == tuple(
            s.signature() for s in serial.schedules
        )
        assert batch.stats.attempts == serial.stats.attempts
        assert batch.stats.successes == serial.stats.successes
        if get_engine_spec(backend).engine_cls.__name__ != "AutomatonEngine":
            assert batch.stats == serial.stats

    def test_matches_experiment_suite_run(self):
        """The analysis path and the service path agree end to end."""
        suite = ExperimentSuite(
            total_ops=220, seed=11, keep_schedules=True
        )
        reference = suite.run("SuperSPARC", "andor", STAGE, True)
        batch = schedule_batch(
            "SuperSPARC",
            suite.workload("SuperSPARC"),
            BatchConfig(backend="bitvector", stage=STAGE,
                        chunk_size=CHUNK),
        )
        assert batch.signature() == tuple(
            s.signature() for s in reference.schedules
        )
        assert batch.total_ops == reference.total_ops
        assert batch.total_cycles == reference.total_cycles
        assert batch.stats == reference.stats

    def test_schedules_come_back_in_input_order(self):
        machine, blocks = workload("Pentium", ops=180, seed=3)
        batch = schedule_batch(
            "Pentium",
            blocks,
            BatchConfig(chunk_size=5),
        )
        assert len(batch.schedules) == len(blocks)
        for schedule, block in zip(batch.schedules, blocks):
            assert schedule.block is not None
            assert len(schedule.block) == len(block)
            assert [op.opcode for op in schedule.block] == [
                op.opcode for op in block
            ]

    @pytest.mark.slow
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.integers(min_value=20, max_value=160),
        chunk=st.integers(min_value=1, max_value=24),
    )
    def test_property_batch_matches_serial_chunked_reference(
        self, shared_cache, seed, ops, chunk
    ):
        """For random workloads and chunkings, the batch driver equals
        the hand-chunked reference (automata included: its memo table
        restarts with every chunk's fresh engine)."""
        machine, blocks = workload("K5", ops=ops, seed=seed)
        signature, stats, total_ops, cycles = serial_chunked_reference(
            machine, blocks, "automata", shared_cache, chunk=chunk
        )
        result = schedule_batch(
            "K5",
            blocks,
            BatchConfig(backend="automata", stage=STAGE, chunk_size=chunk),
            cache=shared_cache,
        )
        assert result.signature() == signature
        assert result.stats == stats
        assert result.total_ops == total_ops
        assert result.total_cycles == cycles
        assert result.chunk_count == -(-len(blocks) // chunk)


class TestBatchConfig:
    def test_backend_and_lmdes_are_mutually_exclusive(self):
        config = BatchConfig(backend="andor", lmdes_path="x.lmdes.json")
        with pytest.raises(ValueError, match="mutually exclusive"):
            config.validate()

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_size"):
            BatchConfig(chunk_size=0).validate()


class TestSpanMergeDeterminism:
    """Chunk-trace grafting obeys the determinism contract.

    The driver attaches each chunk's captured spans in chunk order, so
    the merged trace tree -- names, nesting, order, and every
    non-timing attribute -- is identical from run to run, just like the
    schedules and the stats fold.  One warm cache serves both traced
    runs, so neither compiles.
    """

    @classmethod
    def _shape(cls, span):
        return (span.name, tuple(sorted(span.attrs.items())),
                tuple(cls._shape(child) for child in span.children))

    @classmethod
    def _tree(cls, tracer):
        return tuple(cls._shape(root) for root in tracer.roots)

    def test_chunk_spans_merge_in_chunk_order(self):
        from repro import obs

        machine_name = "PA7100"
        _, blocks = workload(machine_name, ops=120)
        config = BatchConfig(backend="bitvector", stage=STAGE, chunk_size=4)
        cache = DescriptionCache()
        schedule_batch(machine_name, blocks, config, cache=cache)

        was_enabled = obs.enabled()
        obs.enable()
        trees = []
        try:
            for _ in range(2):
                obs.reset()
                schedule_batch(machine_name, blocks, config, cache=cache)
                trees.append(self._tree(obs.TRACER))
        finally:
            if not was_enabled:
                obs.disable()
            obs.reset()

        assert trees[0] == trees[1]
        # The tree really is the batch structure: one service root whose
        # chunk children carry ascending indexes.
        (root,) = trees[0]
        name, _, children = root
        assert name == "service:batch"
        chunk_indexes = [
            dict(attrs)["index"]
            for name, attrs, _ in children if name == "batch:chunk"
        ]
        assert chunk_indexes == list(range(-(-len(blocks) // 4)))
