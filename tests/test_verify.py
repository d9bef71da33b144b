"""The independent verification layer (``repro.verify``).

Three claims under test, matching the subsystem's three instruments:

* the **oracle** is a real referee -- hand-built schedules with planted
  resource conflicts and latency violations produce exactly the typed
  diagnostics they should, on every paper machine, and clean schedules
  produce none;
* the **differential harness** finds nothing on the shipped machines
  (every backend and every transform stage agrees), and the service /
  API integration points expose the oracle correctly;
* the **golden corpus** is both current (``check_corpus`` is clean) and
  regenerable (a fresh ``write_corpus`` reproduces the checked-in
  bytes), and -- the mutation smoke test -- a deliberately broken
  description is caught by BOTH the oracle and the corpus digests.
"""

import json
from pathlib import Path

import pytest

from repro.core.tables import AndOrTree, OrTree, ReservationTable
from repro.engine.registry import engine_names, get_engine_spec
from repro.engine.table import TableEngine
from repro.ir.block import BasicBlock
from repro.ir.dependence import FLOW, build_dependence_graph
from repro.ir.operation import Operation
from repro.lowlevel.compiled import compile_mdes
from repro.machines import MACHINE_NAMES, get_machine
from repro.scheduler import schedule_workload
from repro.scheduler.schedule import BlockSchedule
from repro.service import BatchConfig, schedule_batch
from repro.transforms.pipeline import staged_mdes
from repro.verify import (
    CORPUS_STAGE,
    LATENCY_VIOLATION,
    RESOURCE_CONFLICT,
    UNKNOWN_CLASS,
    UNPLACED_OPERATION,
    check_corpus,
    corpus_workload,
    differential_runs,
    schedule_digest,
    verify_schedule,
    verify_transform_stages,
    write_corpus,
)

from tests.conftest import shared_oracle, shared_workload

GOLDEN_DIR = Path(__file__).parent / "golden"
STAGE = CORPUS_STAGE


# ----------------------------------------------------------------------
# Hand-built schedule helpers
# ----------------------------------------------------------------------


def plain_opcode(mdes):
    """A non-branch, non-memory opcode and its class."""
    for opcode, class_name in sorted(mdes.opcode_map.items()):
        if opcode == "BR" or "br" in class_name.lower():
            continue
        if "ld" in opcode.lower() or "st" in opcode.lower():
            continue
        return opcode, class_name
    raise AssertionError("machine has no plain ALU opcode")


def capacity(constraint):
    """Per-cycle issue capacity: the narrowest OR-tree's option count."""
    trees = (
        constraint.or_trees
        if isinstance(constraint, AndOrTree)
        else (constraint,)
    )
    return min(len(tree.options) for tree in trees)


def independent_ops(opcode, count):
    """``count`` ops with disjoint registers: a dependence-free block."""
    return [
        Operation(i, opcode, dests=(f"r{i}",), srcs=(f"s{i}", f"t{i}"))
        for i in range(count)
    ]


class TestOracleDiagnostics:
    """Planted faults produce exactly the right typed diagnostics."""

    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    def test_pigeonhole_resource_conflict(self, machine_name):
        """capacity+1 independent same-class ops in one cycle: at least
        two must share an option, whose usages then collide."""
        oracle = shared_oracle(machine_name)
        opcode, class_name = plain_opcode(oracle.mdes)
        n = capacity(oracle.mdes.op_classes[class_name].constraint) + 1
        block = BasicBlock("conflict", independent_ops(opcode, n))
        schedule = BlockSchedule(
            block,
            {i: 0 for i in range(n)},
            {i: class_name for i in range(n)},
        )
        diagnostics = oracle.verify_block(schedule)
        assert {d.code for d in diagnostics} == {RESOURCE_CONFLICT}
        # The conflict diagnostic names a cycle and a resource.
        assert any(d.resource for d in diagnostics)

    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    def test_clean_schedule_has_no_diagnostics(self, machine_name):
        """The same ops spaced far apart replay without conflicts."""
        oracle = shared_oracle(machine_name)
        opcode, class_name = plain_opcode(oracle.mdes)
        n = capacity(oracle.mdes.op_classes[class_name].constraint) + 1
        block = BasicBlock("clean", independent_ops(opcode, n))
        schedule = BlockSchedule(
            block,
            {i: 32 * i for i in range(n)},
            {i: class_name for i in range(n)},
        )
        assert oracle.verify_block(schedule) == []

    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    def test_latency_violation_one_cycle_short(self, machine_name):
        """A consumer placed at distance L-1 under a flow edge of
        latency L >= 2 (no forwarding shortcut) must be flagged."""
        machine = get_machine(machine_name)
        oracle = shared_oracle(machine_name)
        _, consumer_class = plain_opcode(oracle.mdes)
        consumer_opcode, _ = plain_opcode(oracle.mdes)

        for producer_opcode, producer_class in sorted(
            oracle.mdes.opcode_map.items()
        ):
            producer = Operation(
                0, producer_opcode, dests=("r0",), srcs=("a", "b")
            )
            consumer = Operation(
                1, consumer_opcode, dests=("r1",), srcs=("r0",)
            )
            block = BasicBlock("lat", [producer, consumer])
            graph = build_dependence_graph(
                block,
                machine.latency,
                flow_latency_of=machine.flow_latency,
                bypass_of=machine.bypass,
            )
            edge = next(
                (
                    e
                    for edges in graph.preds.values()
                    for e in edges
                    if e.kind == FLOW
                    and e.latency >= 2
                    and not (
                        e.is_cascade_eligible
                        and e.min_latency == e.latency - 1
                    )
                ),
                None,
            )
            if edge is None:
                continue
            schedule = BlockSchedule(
                block,
                {0: 0, 1: edge.latency - 1},
                {0: producer_class, 1: consumer_class},
            )
            codes = {d.code for d in oracle.verify_block(schedule)}
            assert LATENCY_VIOLATION in codes, (
                f"{machine_name}: {producer_opcode}->{consumer_opcode} "
                f"at distance {edge.latency - 1} not flagged"
            )
            return
        pytest.fail(f"{machine_name}: no flow edge with latency >= 2")

    def test_unknown_class_is_flagged(self):
        oracle = shared_oracle("K5")
        opcode, _ = plain_opcode(oracle.mdes)
        block = BasicBlock("unknown", independent_ops(opcode, 1))
        schedule = BlockSchedule(block, {0: 0}, {0: "no_such_class"})
        codes = [d.code for d in oracle.verify_block(schedule)]
        assert codes == [UNKNOWN_CLASS]

    def test_unplaced_and_phantom_operations_are_flagged(self):
        oracle = shared_oracle("K5")
        opcode, class_name = plain_opcode(oracle.mdes)
        block = BasicBlock("unplaced", independent_ops(opcode, 2))
        # Op 1 never scheduled; index 7 scheduled but not in the block.
        schedule = BlockSchedule(
            block, {0: 0, 7: 3}, {0: class_name, 7: class_name}
        )
        codes = [d.code for d in oracle.verify_block(schedule)]
        assert codes.count(UNPLACED_OPERATION) == 2

    def test_diagnostic_renders_location(self):
        oracle = shared_oracle("K5")
        opcode, class_name = plain_opcode(oracle.mdes)
        n = capacity(oracle.mdes.op_classes[class_name].constraint) + 1
        block = BasicBlock("render", independent_ops(opcode, n))
        schedule = BlockSchedule(
            block,
            {i: 0 for i in range(n)},
            {i: class_name for i in range(n)},
        )
        (first, *_rest) = oracle.verify_block(schedule)
        text = str(first)
        assert text.startswith(f"[{RESOURCE_CONFLICT}] render")
        assert "@cycle" in text


# ----------------------------------------------------------------------
# Real schedules: every backend, every machine, both directions
# ----------------------------------------------------------------------


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("backend", engine_names(scheduler="list"))
    @pytest.mark.parametrize("machine_name", MACHINE_NAMES)
    def test_every_backend_schedule_verifies(self, machine_name, backend):
        from repro.engine.registry import create_engine

        machine, blocks = shared_workload(machine_name, 160, 20161202)
        stage = max(STAGE, get_engine_spec(backend).min_stage)
        engine = create_engine(backend, machine, stage=stage)
        run = schedule_workload(
            machine, None, blocks, keep_schedules=True, engine=engine
        )
        report = verify_schedule(machine, run)
        assert report.ok, report.diagnostics
        assert report.blocks_checked == len(blocks)
        assert report.ops_checked == run.total_ops

    @pytest.mark.parametrize("machine_name", ["K5", "SuperSPARC"])
    def test_backward_schedules_verify(self, machine_name):
        from repro.engine.registry import create_engine

        machine, blocks = shared_workload(machine_name, 160, 20161202)
        engine = create_engine("bitvector", machine, stage=STAGE)
        run = schedule_workload(
            machine, None, blocks,
            keep_schedules=True, direction="backward", engine=engine,
        )
        report = verify_schedule(machine, run, direction="backward")
        assert report.ok, report.diagnostics

    def test_differential_finds_nothing_on_paper_machine(self):
        machine, blocks = shared_workload("SuperSPARC", 120, 7)
        assert differential_runs(machine, blocks) == []

    def test_transform_stages_find_nothing_on_paper_machine(self):
        machine, blocks = shared_workload("SuperSPARC", 120, 7)
        assert verify_transform_stages(machine, blocks) == []


# ----------------------------------------------------------------------
# API and service surfaces
# ----------------------------------------------------------------------


class TestVerifySurface:
    def test_api_reexports_verify_schedule(self):
        from repro import api

        assert api.verify_schedule is verify_schedule
        assert "verify_schedule" in api.__all__
        assert "VerificationError" in api.__all__

    @staticmethod
    def _run(machine, blocks, **kwargs):
        from repro.engine.registry import create_engine

        engine = create_engine("bitvector", machine, stage=STAGE)
        return schedule_workload(
            machine, None, blocks, engine=engine, **kwargs
        )

    def test_accepts_name_result_single_schedule_and_iterable(self):
        machine, blocks = shared_workload("K5", 120, 7)
        run = self._run(machine, blocks, keep_schedules=True)
        by_name = verify_schedule("K5", run)
        assert by_name.ok and by_name.blocks_checked == len(blocks)
        single = verify_schedule(machine, run.schedules[0])
        assert single.blocks_checked == 1
        subset = verify_schedule(machine, run.schedules[:3])
        assert subset.blocks_checked == 3

    def test_rejects_results_without_schedules(self):
        machine, blocks = shared_workload("K5", 120, 7)
        run = self._run(machine, blocks)  # schedules=None
        with pytest.raises(ValueError, match="keep_schedules"):
            verify_schedule(machine, run)

    def test_batch_service_attaches_verify_report(self):
        machine, blocks = shared_workload("K5", 120, 7)
        result = schedule_batch(
            "K5", blocks,
            BatchConfig(stage=STAGE, verify=True),
        )
        assert result.verify_report is not None
        assert result.verify_report.ok
        assert result.verify_report.blocks_checked == len(blocks)

    def test_batch_service_skips_oracle_by_default(self):
        machine, blocks = shared_workload("K5", 120, 7)
        result = schedule_batch(
            "K5", blocks, BatchConfig(stage=STAGE),
        )
        assert result.verify_report is None

    def test_oracle_counters_and_span(self):
        from repro import obs

        machine, blocks = shared_workload("K5", 120, 7)
        run = self._run(machine, blocks, keep_schedules=True)
        was_enabled = obs.enabled()
        obs.enable()
        try:
            obs.reset()
            verify_schedule(machine, run)
            assert obs.REGISTRY.value(
                "repro_verify_runs_total", machine="K5"
            ) == 1
            assert obs.REGISTRY.value(
                "repro_verify_blocks_total", machine="K5"
            ) == len(blocks)
            assert [r.name for r in obs.TRACER.roots] == ["verify:oracle"]
        finally:
            if not was_enabled:
                obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Golden corpus
# ----------------------------------------------------------------------


class TestGoldenCorpus:
    def test_checked_in_corpus_is_current(self):
        assert check_corpus(GOLDEN_DIR) == []

    def test_checked_in_synth_fleet_is_current(self):
        """Seeded synth generation and scheduling both stay pinned:
        the fleet file digests the HMDES source (generation
        determinism) and the schedules (full-stack determinism)."""
        from repro.verify import check_synth_fleet

        assert check_synth_fleet(GOLDEN_DIR) == []

    def test_synth_fleet_regeneration_reproduces_checked_in_bytes(
        self, tmp_path
    ):
        from repro.verify import SYNTH_FLEET_FILE, write_synth_fleet

        written = write_synth_fleet(tmp_path)
        pinned = (GOLDEN_DIR / SYNTH_FLEET_FILE).read_text(
            encoding="utf-8"
        )
        assert written.read_text(encoding="utf-8") == pinned

    def test_regeneration_reproduces_checked_in_bytes(self, tmp_path):
        written = write_corpus(tmp_path)
        assert len(written) == len(MACHINE_NAMES)
        for path in written:
            pinned = (GOLDEN_DIR / path.name).read_text(encoding="utf-8")
            assert path.read_text(encoding="utf-8") == pinned, path.name

    def test_corpus_files_pin_every_backend(self):
        for machine_name in MACHINE_NAMES:
            document = json.loads(
                (GOLDEN_DIR / f"{machine_name.lower()}.json").read_text(
                    encoding="utf-8"
                )
            )
            assert [e["backend"] for e in document["entries"]] == list(
                engine_names(scheduler="list")
            )
            assert all(e["oracle_ok"] for e in document["entries"])
            exact = document["exact"]
            assert exact["backend"] == "exact"
            assert exact["oracle_ok"]
            assert exact["oracle_diagnostics"] == 0
            # The exact scheduler never books more cycles than its
            # list-scheduler seed.
            assert exact["total_cycles"] <= exact["heuristic_cycles"]
            assert 0 < exact["optimal_blocks"] <= exact["blocks"]

    def test_check_reports_a_planted_digest_mismatch(self, tmp_path):
        write_corpus(tmp_path, machines=["K5"])
        path = tmp_path / "k5.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["entries"][0]["digest"] = "0" * 64
        path.write_text(json.dumps(document), encoding="utf-8")
        mismatches = check_corpus(tmp_path, machines=["K5"])
        assert any("digest changed" in m for m in mismatches)


# ----------------------------------------------------------------------
# Mutation smoke test: a planted description bug is caught twice
# ----------------------------------------------------------------------


def drop_first_usages(constraint):
    """Weaken a constraint: every option with >= 2 usages loses its
    first one, so the engine under-books resources."""

    def weaken(tree):
        return OrTree(
            tuple(
                ReservationTable(option.usages[1:])
                if len(option.usages) >= 2
                else option
                for option in tree.options
            ),
            name=tree.name,
        )

    if isinstance(constraint, AndOrTree):
        return AndOrTree(
            tuple(weaken(tree) for tree in constraint.or_trees),
            name=constraint.name,
        )
    return weaken(constraint)


class TestMutationSmoke:
    """The acceptance criterion: a seeded description bug must be caught
    by BOTH the oracle and the golden corpus."""

    @pytest.mark.parametrize("machine_name", ["PA7100", "SuperSPARC"])
    def test_planted_bug_caught_by_oracle_and_corpus(self, machine_name):
        machine, blocks = corpus_workload(machine_name)
        staged = staged_mdes(machine.build_andor(), STAGE)
        mutated = staged.map_constraints(drop_first_usages)
        # Build the engine directly from the mutated description so the
        # global compile cache never sees the broken machine.
        engine = TableEngine(compile_mdes(mutated, bitvector=True))
        run = schedule_workload(
            machine, None, blocks, keep_schedules=True, engine=engine
        )

        # Caught by the oracle: the under-booked engine packed ops the
        # raw description cannot admit.
        report = verify_schedule(machine, run)
        assert not report.ok
        assert report.codes().get(RESOURCE_CONFLICT, 0) >= 1

        # Caught by the corpus: the schedule digest no longer matches
        # the pinned bitvector entry.
        pinned = json.loads(
            (GOLDEN_DIR / f"{machine_name.lower()}.json").read_text(
                encoding="utf-8"
            )
        )
        pinned_digest = next(
            e["digest"]
            for e in pinned["entries"]
            if e["backend"] == "bitvector"
        )
        assert schedule_digest(run.signature()) != pinned_digest
