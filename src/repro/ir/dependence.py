"""Register, memory, and control dependence construction.

Edges carry two latencies:

* ``latency`` -- the normal cycles the consumer must wait after the
  producer issues (flow edges use the producer's MDES latency; anti and
  control edges use 0; output and memory serialization edges use 1).
* ``min_latency`` -- the latency when the machine supports a shortcut for
  this pair.  The SuperSPARC's *cascaded* IALU feature (paper section 2)
  lets a flow-dependent IALU pair issue in the same cycle, so such edges
  get ``min_latency=0``; the scheduler must then use the consumer's
  cascaded operation class, which has half the reservation table options.

Each operation's incoming edges are collected in one pass over the
block, at most one per ``(pred, kind)`` pair: the first edge of a pair
stands, and a repeat (a producer of two sources, a reader or an earlier
writer of two destinations) is dropped.  An edge is a ``__slots__``
object that equals and hashes by its six fields; it is not a tuple and
does not equal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.operation import Operation

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"
MEMORY = "memory"
CONTROL = "control"


class Edge:
    """A dependence from ``pred`` to ``succ`` (operation indices).

    ``bypass_class`` names the operation class the consumer must use
    when it issues at the shortcut distance (empty when the shortcut
    does not narrow the consumer's alternatives).  The scheduler reads
    these fields in its per-attempt loops, and a slot reads faster than
    a tuple field.
    """

    __slots__ = (
        "pred", "succ", "kind", "latency", "min_latency", "bypass_class"
    )

    def __init__(
        self,
        pred: int,
        succ: int,
        kind: str,
        latency: int,
        min_latency: int,
        bypass_class: str = "",
    ) -> None:
        self.pred = pred
        self.succ = succ
        self.kind = kind
        self.latency = latency
        self.min_latency = min_latency
        self.bypass_class = bypass_class

    def _key(self) -> Tuple[int, int, str, int, int, str]:
        return (
            self.pred, self.succ, self.kind, self.latency,
            self.min_latency, self.bypass_class,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Edge(pred={self.pred}, succ={self.succ}, kind={self.kind!r}, "
            f"latency={self.latency}, min_latency={self.min_latency}, "
            f"bypass_class={self.bypass_class!r})"
        )

    @property
    def is_cascade_eligible(self) -> bool:
        """Whether the pair may use the machine's forwarding shortcut."""
        return self.min_latency < self.latency


@dataclass
class DependenceGraph:
    """Dependences of one basic block, as predecessor/successor lists.

    ``preds`` holds the operations that have incoming edges, in block
    order; ``succs`` holds each operation with outgoing edges, in the
    order its first outgoing edge was built.
    """

    block: BasicBlock
    preds: Dict[int, List[Edge]] = field(default_factory=dict)
    succs: Dict[int, List[Edge]] = field(default_factory=dict)

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
    preds: Dict[int, List[Edge]] = {}
    succs: Dict[int, List[Edge]] = {}
    last_writer: Dict[str, Operation] = {}
    readers_since_write: Dict[str, List[Operation]] = {}
    last_store: Optional[Operation] = None
    loads_since_store: List[Operation] = []

    for op in block.operations:
        index = op.index
        incoming: List[Edge] = []
        # Only flow, anti and output pairs can repeat; repeats of a pair
        # carry the same latencies, so the first edge stands.
        seen: Set[Tuple[int, str]] = set()

        # Flow dependences: the latest writer of each source.
        for src in set(op.srcs):
            producer = last_writer.get(src)
            if producer is not None and (producer.index, FLOW) not in seen:
                seen.add((producer.index, FLOW))
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
                incoming.append(Edge(
                    producer.index, index, FLOW, latency, min_latency,
                    bypass_class,
                ))
            readers_since_write.setdefault(src, []).append(op)

        # Anti and output dependences on each destination.
        for dest in set(op.dests):
            for reader in readers_since_write.get(dest, []):
                if reader.index != index and (reader.index, ANTI) not in seen:
                    seen.add((reader.index, ANTI))
                    incoming.append(Edge(reader.index, index, ANTI, 0, 0))
            previous = last_writer.get(dest)
            if previous is not None and (previous.index, OUTPUT) not in seen:
                seen.add((previous.index, OUTPUT))
                incoming.append(Edge(previous.index, index, OUTPUT, 1, 1))
            last_writer[dest] = op
            readers_since_write[dest] = []

        # Memory serialization.
        if op.is_mem:
            if last_store is not None:
                incoming.append(Edge(last_store.index, index, MEMORY, 1, 1))
            if op.is_store:
                incoming.extend(
                    Edge(load.index, index, MEMORY, 0, 0)
                    for load in loads_since_store
                )
                last_store = op
                loads_since_store = []
            else:
                loads_since_store.append(op)

        # Control: nothing moves below the terminating branch.
        if op.is_branch:
            incoming.extend(
                Edge(other.index, index, CONTROL, 0, 0)
                for other in block.operations
                if other.index < index
            )

        if incoming:
            preds[index] = incoming
            for edge in incoming:
                succs.setdefault(edge.pred, []).append(edge)

    return DependenceGraph(block, preds, succs)
