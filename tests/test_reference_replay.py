"""The dependence builder and the oracle's replay match their references.

``tests/reference_replay.py`` holds the forms both once had: edges added
one at a time through ``DependenceGraph.add_edge``, and replay choices
expanded to absolute cycles per operation.  The library versions must
build graphs with the same ``preds`` / ``succs`` key order, edge order
and edge fields, and report the same diagnostics field for field, on
random blocks, on every paper machine and on one variant per synth
family.
"""

import random
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.registry import create_engine
from repro.ir.block import BasicBlock
from repro.ir.dependence import build_dependence_graph
from repro.ir.operation import Operation
from repro.machines import MACHINE_NAMES
from repro.machines.synth import family_names, machine_name
from repro.scheduler import schedule_workload
from repro.scheduler.schedule import BlockSchedule
from repro.verify import (
    CORPUS_STAGE,
    LATENCY_VIOLATION,
    RESOURCE_CONFLICT,
    SEARCH_BUDGET_EXCEEDED,
    ScheduleOracle,
)
from repro.verify import oracle as oracle_module
from tests import reference_replay as reference
from tests.conftest import shared_workload

_FIELDS = (
    "pred", "succ", "kind", "latency", "min_latency", "bypass_class",
    "is_cascade_eligible",
)

Bypass = namedtuple("Bypass", "latency substitute_class")


def shape(graph):
    """Key order, edge order and every edge field of both maps."""
    return [
        [
            (key, [tuple(getattr(edge, name) for name in _FIELDS)
                   for edge in edges])
            for key, edges in side.items()
        ]
        for side in (graph.preds, graph.succs)
    ]


def assert_same_graph(block, **model):
    new = build_dependence_graph(block, **model)
    ref = reference.build_dependence_graph(block, **model)
    assert shape(new) == shape(ref)
    assert new.edge_count() == ref.edge_count()


@st.composite
def blocks(draw):
    """Blocks over a small register pool, so sources and destinations
    repeat, with random memory and branch flags and op indices."""
    count = draw(st.integers(0, 12))
    pool = ("r0", "r1", "r2", "r3")[: draw(st.integers(1, 4))]
    registers = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    operations = [
        Operation(
            index, "OP", draw(registers), draw(registers),
            is_load=draw(st.booleans()),
            is_store=draw(st.booleans()),
            is_branch=draw(st.booleans()),
        )
        for index in draw(st.permutations(range(count)))
    ]
    return BasicBlock("B", operations)


@st.composite
def dependence_models(draw):
    """``build_dependence_graph`` keyword arguments: pure callbacks that
    read per-op and per-pair values out of one drawn table."""
    table = draw(st.lists(st.integers(0, 4), min_size=1, max_size=16))

    def value(salt, *ops):
        key = salt
        for op in ops:
            key = key * 31 + op.index
        return table[key % len(table)]

    def bypass_of(producer, consumer):
        if not value(3, producer, consumer) % 2:
            return None
        substitute = value(5, producer, consumer)
        return Bypass(
            value(4, producer, consumer),
            f"C{substitute}" if substitute else "",
        )

    model = {"latency_of": lambda op: value(1, op)}
    if draw(st.booleans()):
        model["flow_latency_of"] = lambda p, c: value(2, p, c)
    if draw(st.booleans()):
        model["bypass_of"] = bypass_of
    if draw(st.booleans()):
        model["cascade_ok"] = lambda p, c: value(6, p, c) % 2 == 1
    return model


@given(block=blocks(), model=dependence_models())
@settings(max_examples=300, deadline=None)
def test_random_blocks_match_reference(block, model):
    assert_same_graph(block, **model)


#: The four paper machines and one variant of each synth family.
_MACHINES = (
    *MACHINE_NAMES,
    *(machine_name(family, 1, 0) for family in family_names()),
)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("name", _MACHINES)
def test_workload_graphs_match_reference(name, direction):
    """The forward model (read-time latencies and forwarding paths) and
    the backward model (plain destination latencies)."""
    machine, blocks_ = shared_workload(name, 600, 1)
    model = {"latency_of": machine.latency}
    if direction == "forward":
        model.update(
            flow_latency_of=machine.flow_latency, bypass_of=machine.bypass
        )
    for block in blocks_:
        assert_same_graph(block, **model)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def _oracles_and_run(name, direction):
    machine, blocks_ = shared_workload(name, 160, 20161202)
    engine = create_engine("bitvector", machine, stage=CORPUS_STAGE)
    run = schedule_workload(
        machine, None, blocks_,
        keep_schedules=True, direction=direction, engine=engine,
    )
    return (
        ScheduleOracle(machine, direction=direction),
        reference.ReferenceOracle(machine, direction=direction),
        run.schedules,
    )


def mutants(schedule, class_names, rng):
    """One op a cycle earlier, one op of another class, and two ops on
    one cycle (each when the block allows it)."""
    indices = sorted(schedule.times)
    if not indices:
        return []
    first = rng.choice(indices)
    earlier = dict(schedule.times)
    earlier[first] -= 1
    swapped = dict(schedule.classes)
    swapped[first] = rng.choice(
        [name for name in class_names if name != swapped[first]]
    )
    result = [
        BlockSchedule(schedule.block, earlier, schedule.classes),
        BlockSchedule(schedule.block, schedule.times, swapped),
    ]
    if len(indices) > 1:
        second = rng.choice([index for index in indices if index != first])
        together = dict(schedule.times)
        together[second] = together[first]
        result.append(
            BlockSchedule(schedule.block, together, schedule.classes)
        )
    return result


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_oracle_diagnostics_match_reference(name, direction, monkeypatch):
    # About a quarter of the SuperSPARC and K5 mutants exhaust the
    # search.  At the library's budget each of those costs each oracle
    # about 0.4 s; a tenth of that budget keeps the test at seconds.
    monkeypatch.setattr(oracle_module, "SEARCH_BUDGET", 20_000)
    monkeypatch.setattr(reference, "SEARCH_BUDGET", 20_000)
    new, ref, schedules = _oracles_and_run(name, direction)
    class_names = sorted(new.mdes.op_classes)
    rng = random.Random(f"{name}|{direction}")
    codes = set()
    for schedule in schedules:
        assert new.verify_block(schedule) == []
        assert ref.verify_block(schedule) == []
        for mutant in mutants(schedule, class_names, rng):
            diagnostics = new.verify_block(mutant)
            assert diagnostics == ref.verify_block(mutant)
            codes.update(d.code for d in diagnostics)
    assert {RESOURCE_CONFLICT, LATENCY_VIOLATION} <= codes


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_budget_exhaustion_matches_reference(name, monkeypatch):
    monkeypatch.setattr(oracle_module, "SEARCH_BUDGET", 4)
    monkeypatch.setattr(reference, "SEARCH_BUDGET", 4)
    new, ref, schedules = _oracles_and_run(name, "forward")
    codes = set()
    for schedule in schedules:
        diagnostics = new.verify_block(schedule)
        assert diagnostics == ref.verify_block(schedule)
        codes.update(d.code for d in diagnostics)
    assert SEARCH_BUDGET_EXCEEDED in codes
