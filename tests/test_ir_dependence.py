"""Tests for IR operations and dependence construction."""

import pytest

from repro.ir.block import BasicBlock
from repro.ir.dependence import (
    ANTI,
    CONTROL,
    FLOW,
    MEMORY,
    OUTPUT,
    Edge,
    build_dependence_graph,
)
from repro.ir.operation import Operation


def block_of(*ops):
    return BasicBlock("B0", list(ops))


def unit_latency(op):
    return 1


def edges_by_kind(graph, kind):
    return [
        (edge.pred, edge.succ)
        for edges in graph.succs.values()
        for edge in edges
        if edge.kind == kind
    ]


class TestOperation:
    def test_reg_src_count_dedupes(self):
        op = Operation(0, "ADD", ("r1",), ("r2", "r2"))
        assert op.reg_src_count == 1

    def test_is_mem(self):
        assert Operation(0, "LD", is_load=True).is_mem
        assert Operation(0, "ST", is_store=True).is_mem
        assert not Operation(0, "ADD").is_mem


class TestFlowDependences:
    def test_flow_edge_with_producer_latency(self):
        producer = Operation(0, "LD", ("r1",), ("r9",), is_load=True)
        consumer = Operation(1, "ADD", ("r2",), ("r1",))
        graph = build_dependence_graph(
            block_of(producer, consumer), lambda op: 2
        )
        edges = graph.preds_of(1)
        assert len(edges) == 1
        assert edges[0].kind == FLOW
        assert edges[0].latency == 2

    def test_latest_writer_wins(self):
        w1 = Operation(0, "ADD", ("r1",), ())
        w2 = Operation(1, "SUB", ("r1",), ())
        reader = Operation(2, "OR", ("r2",), ("r1",))
        graph = build_dependence_graph(block_of(w1, w2, reader),
                                       unit_latency)
        flow_preds = [
            e.pred for e in graph.preds_of(2) if e.kind == FLOW
        ]
        assert flow_preds == [1]

    def test_cascade_min_latency(self):
        producer = Operation(0, "ADD", ("r1",), ())
        consumer = Operation(1, "SUB", ("r2",), ("r1",))
        graph = build_dependence_graph(
            block_of(producer, consumer),
            unit_latency,
            cascade_ok=lambda p, c: True,
        )
        edge = graph.preds_of(1)[0]
        assert edge.min_latency == 0
        assert edge.latency == 1
        assert edge.is_cascade_eligible


class TestAntiOutputDependences:
    def test_anti_edge(self):
        reader = Operation(0, "ADD", ("r2",), ("r1",))
        writer = Operation(1, "SUB", ("r1",), ())
        graph = build_dependence_graph(block_of(reader, writer),
                                       unit_latency)
        assert (0, 1) in edges_by_kind(graph, ANTI)

    def test_output_edge(self):
        w1 = Operation(0, "ADD", ("r1",), ())
        w2 = Operation(1, "SUB", ("r1",), ())
        graph = build_dependence_graph(block_of(w1, w2), unit_latency)
        assert (0, 1) in edges_by_kind(graph, OUTPUT)

    def test_self_antidependence_not_created(self):
        op = Operation(0, "INC", ("r1",), ("r1",))
        graph = build_dependence_graph(block_of(op), unit_latency)
        assert graph.preds_of(0) == []


class TestMemoryDependences:
    def test_store_serializes_later_memops(self):
        store = Operation(0, "ST", (), ("r1", "r2"), is_store=True)
        load = Operation(1, "LD", ("r3",), ("r4",), is_load=True)
        store2 = Operation(2, "ST", (), ("r5", "r6"), is_store=True)
        graph = build_dependence_graph(
            block_of(store, load, store2), unit_latency
        )
        mem = edges_by_kind(graph, MEMORY)
        assert (0, 1) in mem
        assert (0, 2) in mem

    def test_load_blocks_following_store(self):
        load = Operation(0, "LD", ("r1",), ("r2",), is_load=True)
        store = Operation(1, "ST", (), ("r3", "r4"), is_store=True)
        graph = build_dependence_graph(block_of(load, store), unit_latency)
        assert (0, 1) in edges_by_kind(graph, MEMORY)

    def test_loads_do_not_serialize_each_other(self):
        l1 = Operation(0, "LD", ("r1",), ("r2",), is_load=True)
        l2 = Operation(1, "LD", ("r3",), ("r4",), is_load=True)
        graph = build_dependence_graph(block_of(l1, l2), unit_latency)
        assert edges_by_kind(graph, MEMORY) == []


class TestControlDependences:
    def test_branch_depends_on_everything_before(self):
        a = Operation(0, "ADD", ("r1",), ())
        b = Operation(1, "SUB", ("r2",), ())
        br = Operation(2, "BE", (), ("r1",), is_branch=True)
        graph = build_dependence_graph(block_of(a, b, br), unit_latency)
        control = edges_by_kind(graph, CONTROL)
        assert (1, 2) in control
        # a -> br already exists as flow; control duplicates are fine but
        # the graph must make br depend on both.
        assert {e.pred for e in graph.preds_of(2)} == {0, 1}

    def test_control_latency_zero_allows_same_cycle(self):
        a = Operation(0, "ADD", ("r1",), ())
        br = Operation(1, "BE", (), (), is_branch=True)
        graph = build_dependence_graph(block_of(a, br), unit_latency)
        control = [e for e in graph.preds_of(1) if e.kind == CONTROL]
        assert control[0].latency == 0


class TestGraphBookkeeping:
    @pytest.mark.parametrize("a, b", [
        pytest.param(
            Operation(0, "ADD", ("r1",), ()),
            Operation(1, "SUB", ("r2",), ("r1", "r1")),
            id="flow",
        ),
        pytest.param(
            Operation(0, "ADD", ("r3",), ("r1", "r2")),
            Operation(1, "SUB", ("r1", "r2"), ()),
            id="anti",
        ),
        pytest.param(
            Operation(0, "ADD", ("r1", "r2"), ()),
            Operation(1, "SUB", ("r1", "r2"), ()),
            id="output",
        ),
    ])
    def test_edge_count_and_dedup(self, a, b):
        graph = build_dependence_graph(block_of(a, b), unit_latency)
        assert graph.edge_count() == 1


class TestEdgeValue:
    FIELDS = (3, 7, FLOW, 2, 0, "k_cascade")

    def test_equal_fields_are_equal_and_hash_equal(self):
        a, b = Edge(*self.FIELDS), Edge(*self.FIELDS)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_bypass_class_defaults_to_empty(self):
        assert Edge(3, 7, ANTI, 0, 0) == Edge(3, 7, ANTI, 0, 0, "")

    @pytest.mark.parametrize(
        "index, other", [(0, 4), (1, 8), (2, ANTI), (3, 3), (4, 1), (5, "")]
    )
    def test_any_single_field_breaks_equality(self, index, other):
        fields = list(self.FIELDS)
        fields[index] = other
        assert Edge(*fields) != Edge(*self.FIELDS)

    def test_is_not_a_tuple(self):
        edge = Edge(*self.FIELDS)
        assert edge != self.FIELDS
        assert edge.is_cascade_eligible
        assert not Edge(3, 7, FLOW, 2, 2).is_cascade_eligible
