"""Reference forms of the dependence builder and the oracle's replay.

These are the straightforward versions ``repro.ir.dependence`` and
``repro.verify.oracle`` once used verbatim: every edge goes through
``DependenceGraph.add_edge``, which scans the successor's edges for a
duplicate, and the replay expands every option of every placed
operation into absolute-cycle keys before its search starts.  The
library versions build the same graphs and report the same diagnostics
more cheaply; ``tests/test_reference_replay.py`` compares them against
these on random blocks, on every paper machine and on a synth sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.tables import AndOrTree, OrTree
from repro.ir.block import BasicBlock
from repro.ir.operation import Operation
from repro.scheduler.schedule import BlockSchedule
from repro.verify.oracle import (
    RESOURCE_CONFLICT,
    SEARCH_BUDGET,
    SEARCH_BUDGET_EXCEEDED,
    Diagnostic,
    ScheduleOracle,
    _BudgetExhausted,
)

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"
MEMORY = "memory"
CONTROL = "control"


@dataclass(frozen=True)
class Edge:
    """A dependence from ``pred`` to ``succ`` (operation indices).

    ``bypass_class`` names the operation class the consumer must use
    when it issues at the shortcut distance (empty when the shortcut
    does not narrow the consumer's alternatives).
    """

    pred: int
    succ: int
    kind: str
    latency: int
    min_latency: int
    bypass_class: str = ""

    @property
    def is_cascade_eligible(self) -> bool:
        """Whether the pair may use the machine's forwarding shortcut."""
        return self.min_latency < self.latency


@dataclass
class DependenceGraph:
    """Dependences of one basic block, as predecessor/successor lists."""

    block: BasicBlock
    preds: Dict[int, List[Edge]] = field(default_factory=dict)
    succs: Dict[int, List[Edge]] = field(default_factory=dict)

    def add_edge(self, edge: Edge) -> None:
        """Insert one edge (duplicates between a pair are kept strongest)."""
        for existing in self.preds.setdefault(edge.succ, []):
            if existing.pred == edge.pred and existing.kind == edge.kind:
                return
        self.preds[edge.succ].append(edge)
        self.succs.setdefault(edge.pred, []).append(edge)

    def preds_of(self, index: int) -> List[Edge]:
        """Incoming dependences of an operation."""
        return self.preds.get(index, [])

    def succs_of(self, index: int) -> List[Edge]:
        """Outgoing dependences of an operation."""
        return self.succs.get(index, [])

    def edge_count(self) -> int:
        """Total number of dependence edges."""
        return sum(len(edges) for edges in self.succs.values())


CascadePredicate = Callable[[Operation, Operation], bool]
LatencyProvider = Callable[[Operation], int]
FlowLatencyProvider = Callable[[Operation, Operation], int]
BypassProvider = Callable[[Operation, Operation], Optional[object]]


def build_dependence_graph(
    block: BasicBlock,
    latency_of: LatencyProvider,
    cascade_ok: Optional[CascadePredicate] = None,
    flow_latency_of: Optional[FlowLatencyProvider] = None,
    bypass_of: Optional[BypassProvider] = None,
) -> DependenceGraph:
    """Build flow/anti/output/memory/control dependences for a block.

    Flow latency is the producer's ``latency_of`` value unless
    ``flow_latency_of`` refines it per pair (the MDES operand-read-time
    model: a consumer reading its operands during decode sees the
    producer a cycle later).  Shortcuts come from either ``bypass_of``
    (MDES forwarding paths carrying a substitute class) or the legacy
    ``cascade_ok`` predicate (distance 0, no substitute).

    Memory dependences are conservative (no disambiguation): a store
    serializes against every later memory operation, and a load against
    every later store.
    """
    graph = DependenceGraph(block)
    last_writer: Dict[str, Operation] = {}
    readers_since_write: Dict[str, List[Operation]] = {}
    last_store: Optional[Operation] = None
    loads_since_store: List[Operation] = []

    for op in block.operations:
        # Flow dependences: the latest writer of each source.
        for src in set(op.srcs):
            producer = last_writer.get(src)
            if producer is not None:
                if flow_latency_of is not None:
                    latency = flow_latency_of(producer, op)
                else:
                    latency = latency_of(producer)
                min_latency = latency
                bypass_class = ""
                bypass = (
                    bypass_of(producer, op)
                    if bypass_of is not None
                    else None
                )
                if bypass is not None and bypass.latency < latency:
                    min_latency = bypass.latency
                    bypass_class = bypass.substitute_class
                elif cascade_ok is not None and cascade_ok(producer, op):
                    min_latency = 0
                graph.add_edge(
                    Edge(
                        producer.index, op.index, FLOW, latency,
                        min_latency, bypass_class,
                    )
                )
            readers_since_write.setdefault(src, []).append(op)

        # Anti and output dependences on each destination.
        for dest in set(op.dests):
            for reader in readers_since_write.get(dest, []):
                if reader.index != op.index:
                    graph.add_edge(Edge(reader.index, op.index, ANTI, 0, 0))
            previous = last_writer.get(dest)
            if previous is not None:
                graph.add_edge(
                    Edge(previous.index, op.index, OUTPUT, 1, 1)
                )
            last_writer[dest] = op
            readers_since_write[dest] = []

        # Memory serialization.
        if op.is_mem:
            if last_store is not None:
                graph.add_edge(
                    Edge(last_store.index, op.index, MEMORY, 1, 1)
                )
            if op.is_store:
                for load in loads_since_store:
                    graph.add_edge(
                        Edge(load.index, op.index, MEMORY, 0, 0)
                    )
                last_store = op
                loads_since_store = []
            else:
                loads_since_store.append(op)

        # Control: nothing moves below the terminating branch.
        if op.is_branch:
            for other in block.operations:
                if other.index != op.index and other.index < op.index:
                    graph.add_edge(
                        Edge(other.index, op.index, CONTROL, 0, 0)
                    )

    return graph


class ReferenceOracle(ScheduleOracle):
    """The oracle with the reference graph builder and replay search."""

    def _graph(self, block) -> DependenceGraph:
        if self.direction == "forward":
            return build_dependence_graph(
                block,
                self.machine.latency,
                flow_latency_of=self.machine.flow_latency,
                bypass_of=self.machine.bypass,
            )
        # The backward scheduler plans against plain destination
        # latencies (no read-time refinement, no shortcuts); holding its
        # schedules to the forward model would report false violations.
        return build_dependence_graph(block, self.machine.latency)

    def _slots(
        self, replayable: List[Tuple[int, int, str]]
    ) -> List[Tuple[int, int, Tuple[Tuple[Tuple[int, object], ...], ...]]]:
        """Flatten ops into per-OR-tree choice slots at absolute cycles.

        An OR-tree contributes one slot with one choice per option; an
        AND/OR-tree contributes one slot per sub-OR-tree (each must be
        satisfied independently -- sound because the translator enforces
        sibling disjointness).  Each choice is the option's usages as
        ``(absolute cycle, resource)`` keys.
        """
        slots = []
        for index, cycle, class_name in sorted(
            replayable, key=lambda item: (item[1], item[0])
        ):
            constraint = self.mdes.op_classes[class_name].constraint
            trees: Sequence[OrTree]
            if isinstance(constraint, AndOrTree):
                trees = constraint.or_trees
            else:
                trees = (constraint,)
            for tree in trees:
                choices = tuple(
                    tuple(
                        (cycle + usage.time, usage.resource)
                        for usage in option.usages
                    )
                    for option in tree.options
                )
                slots.append((index, cycle, choices))
        return slots

    def _replay_resources(
        self, schedule: BlockSchedule,
        replayable: List[Tuple[int, int, str]],
    ) -> List[Diagnostic]:
        slots = self._slots(replayable)
        busy: Dict[Tuple[int, int], int] = {}
        budget = [SEARCH_BUDGET]
        # Deepest slot the search failed at, with the conflict each of
        # its choices hit -- the most useful thing to report.
        deepest = [-1]
        deepest_conflicts: List[Tuple[int, object, int]] = []

        def admit(position: int) -> bool:
            if position == len(slots):
                return True
            if budget[0] <= 0:
                raise _BudgetExhausted
            budget[0] -= 1
            op_index, _, choices = slots[position]
            conflicts: List[Tuple[int, object, int]] = []
            for choice in choices:
                clash = None
                for abs_cycle, resource in choice:
                    holder = busy.get((abs_cycle, resource.index))
                    if holder is not None:
                        clash = (abs_cycle, resource, holder)
                        break
                if clash is not None:
                    conflicts.append(clash)
                    continue
                for abs_cycle, resource in choice:
                    busy[(abs_cycle, resource.index)] = op_index
                if admit(position + 1):
                    return True
                for abs_cycle, resource in choice:
                    del busy[(abs_cycle, resource.index)]
            if position > deepest[0]:
                deepest[0] = position
                deepest_conflicts[:] = conflicts
            return False

        label = schedule.block.label
        try:
            if admit(0):
                return []
        except _BudgetExhausted:
            return [Diagnostic(
                SEARCH_BUDGET_EXCEEDED, label,
                message=(
                    f"option-assignment search exceeded {SEARCH_BUDGET} "
                    "nodes without a verdict"
                ),
            )]

        op_index = slots[deepest[0]][0] if deepest[0] >= 0 else -1
        seen: set = set()
        diagnostics: List[Diagnostic] = []
        for abs_cycle, resource, holder in deepest_conflicts:
            key = (abs_cycle, resource.name, holder)
            if key in seen:
                continue
            seen.add(key)
            diagnostics.append(Diagnostic(
                RESOURCE_CONFLICT, label, op_index=op_index,
                cycle=abs_cycle, resource=resource.name,
                message=(
                    f"no conflict-free option: {resource.name} at cycle "
                    f"{abs_cycle} is held by op {holder}"
                ),
            ))
        if not diagnostics:
            diagnostics.append(Diagnostic(
                RESOURCE_CONFLICT, label, op_index=op_index,
                message="no conflict-free option assignment exists",
            ))
        return diagnostics
