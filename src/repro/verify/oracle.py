"""The schedule-validity oracle: naive replay against the raw HMDES.

Every optimized representation in this library -- staged trees,
bit-vector packing, reduced tables, automata -- is supposed to answer
resource-conflict queries exactly as the untransformed high-level
description would (the paper's section 5-8 semantics-preservation
claims).  The oracle is the independent referee for that claim: it takes
a *finished* schedule and replays it directly against the machine's raw
translated HMDES, with none of the transformations applied.  No
bit-vectors, no time-shifting, no factoring, no sharing tricks -- just
"walk every reservation-table option and mark cycles busy", slow and
obviously correct on purpose.

Two families of checks:

* **Dependence/latency**: rebuild the dependence graph the scheduler
  used (direction-aware: the forward scheduler refines flow latencies
  by operand read times and honors forwarding shortcuts; the backward
  scheduler uses plain destination latencies) and check every edge's
  issue-distance requirement.
* **Resource replay**: for each block, take each placed operation's
  reservation alternatives from the raw description and search for an
  option assignment in which no (cycle, resource) pair is reserved
  twice.  Each class's alternatives are read off the description once
  per oracle, at cycle 0, and shifted by an operation's scheduled
  cycle as the search admits it.  Because the scheduler committed to
  *some* option per operation but the schedule does not record which,
  the oracle performs a small backtracking search over the
  alternatives; a schedule is valid iff at least one conflict-free
  assignment exists.

Failures are reported as typed :class:`Diagnostic` records, never
exceptions, so callers can aggregate, count, and render them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.mdes import Mdes
from repro.core.tables import AndOrTree, OrTree
from repro.ir.dependence import FLOW, DependenceGraph, build_dependence_graph
from repro.scheduler.schedule import BlockSchedule

#: Two operations' reservation options collide on a (cycle, resource)
#: pair in every admissible assignment.
RESOURCE_CONFLICT = "RESOURCE_CONFLICT"
#: A dependence edge's issue-distance requirement is violated.
LATENCY_VIOLATION = "LATENCY_VIOLATION"
#: The schedule records an operation class the description lacks.
UNKNOWN_CLASS = "UNKNOWN_CLASS"
#: A block operation never received a cycle (or the schedule places an
#: operation index the block does not contain).
UNPLACED_OPERATION = "UNPLACED_OPERATION"
#: The option-assignment search gave up before proving either verdict.
SEARCH_BUDGET_EXCEEDED = "SEARCH_BUDGET_EXCEEDED"

#: Cap on backtracking nodes per block.  Valid schedules resolve in one
#: forward pass (the scheduler already found an assignment); a broken
#: one can exhaust the budget, and the block is then reported as
#: ``SEARCH_BUDGET_EXCEEDED`` rather than passed.
SEARCH_BUDGET = 200_000


class _BudgetExhausted(Exception):
    """Internal: the replay search ran out of nodes."""


#: One OR-tree's options, each as ``(time, resource index, resource)``
#: usages relative to the operation's scheduled cycle.
_Choices = Tuple[Tuple[Tuple[int, int, object], ...], ...]


def _class_choices(constraint) -> Tuple[_Choices, ...]:
    """A class's choices, one :data:`_Choices` per OR-tree.

    An OR-tree contributes one choice per option; an AND/OR-tree
    contributes one set of choices per sub-OR-tree (each must be
    satisfied independently -- sound because the translator enforces
    sibling disjointness).
    """
    trees: Sequence[OrTree]
    if isinstance(constraint, AndOrTree):
        trees = constraint.or_trees
    else:
        trees = (constraint,)
    return tuple(
        tuple(
            tuple(
                (usage.time, usage.resource.index, usage.resource)
                for usage in option.usages
            )
            for option in tree.options
        )
        for tree in trees
    )


@dataclass(frozen=True)
class Diagnostic:
    """One typed oracle finding.

    Attributes:
        code: One of the module's diagnostic-code constants.
        block_label: Label of the offending block.
        op_index: Operation index within the block (-1 for block-level
            findings such as a search-budget exhaustion).
        cycle: Issue or usage cycle the finding refers to, if any.
        resource: Resource name for resource findings, else ``""``.
        message: Human-readable explanation.
    """

    code: str
    block_label: str
    op_index: int = -1
    cycle: Optional[int] = None
    resource: str = ""
    message: str = ""

    def __str__(self) -> str:
        where = f"{self.block_label}"
        if self.op_index >= 0:
            where += f"#op{self.op_index}"
        if self.cycle is not None:
            where += f"@cycle{self.cycle}"
        return f"[{self.code}] {where}: {self.message}"


@dataclass
class VerifyReport:
    """Aggregate oracle verdict over a set of block schedules."""

    machine_name: str
    direction: str = "forward"
    blocks_checked: int = 0
    ops_checked: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every checked schedule is valid."""
        return not self.diagnostics

    def codes(self) -> Dict[str, int]:
        """Diagnostic counts by code."""
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return counts

    def summary(self) -> Dict[str, object]:
        """A JSON-friendly digest of the report."""
        return {
            "machine": self.machine_name,
            "direction": self.direction,
            "blocks": self.blocks_checked,
            "ops": self.ops_checked,
            "ok": self.ok,
            "diagnostics": len(self.diagnostics),
            "codes": self.codes(),
        }

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.diagnostics)} diagnostics"
        return (
            f"VerifyReport({self.machine_name!r}, "
            f"blocks={self.blocks_checked}, ops={self.ops_checked}, "
            f"{verdict})"
        )


class ScheduleOracle:
    """Replays finished schedules against one machine's raw description."""

    def __init__(self, machine, direction: str = "forward") -> None:
        if direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {direction!r}")
        self.machine = machine
        self.direction = direction
        #: The untransformed description straight out of the translator.
        self.mdes: Mdes = machine.build()
        #: Each class's choices, one :data:`_Choices` per OR-tree.
        self._choices: Dict[str, Tuple[_Choices, ...]] = {
            name: _class_choices(op_class.constraint)
            for name, op_class in self.mdes.op_classes.items()
        }

    # ------------------------------------------------------------------
    # Dependence / latency checks
    # ------------------------------------------------------------------

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

    def _check_latencies(
        self, schedule: BlockSchedule, graph: DependenceGraph
    ) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        times = schedule.times
        for edges in graph.preds.values():
            for edge in edges:
                if edge.pred not in times or edge.succ not in times:
                    continue  # reported separately as UNPLACED_OPERATION
                distance = times[edge.succ] - times[edge.pred]
                if distance >= edge.latency:
                    continue
                if (
                    edge.kind == FLOW
                    and edge.is_cascade_eligible
                    and distance == edge.min_latency
                ):
                    continue  # forwarding shortcut (e.g. cascaded IALU)
                diagnostics.append(Diagnostic(
                    LATENCY_VIOLATION,
                    schedule.block.label,
                    op_index=edge.succ,
                    cycle=times[edge.succ],
                    message=(
                        f"{edge.kind} dependence from op {edge.pred} "
                        f"(cycle {times[edge.pred]}) requires distance "
                        f">= {edge.latency}, got {distance}"
                    ),
                ))
        return diagnostics

    # ------------------------------------------------------------------
    # Resource replay
    # ------------------------------------------------------------------

    def _placement_and_classes(
        self, schedule: BlockSchedule
    ) -> Tuple[List[Diagnostic], List[Tuple[int, int, str]]]:
        """Completeness checks; returns (diagnostics, replayable ops).

        Replayable ops are (index, cycle, class_name) triples whose
        class exists in the description -- the only ones the resource
        replay can process.
        """
        diagnostics: List[Diagnostic] = []
        block = schedule.block
        block_indices = {op.index for op in block}
        for op in block:
            if op.index not in schedule.times:
                diagnostics.append(Diagnostic(
                    UNPLACED_OPERATION, block.label, op_index=op.index,
                    message=f"operation {op!r} has no scheduled cycle",
                ))
        replayable: List[Tuple[int, int, str]] = []
        for index in sorted(schedule.times):
            cycle = schedule.times[index]
            if index not in block_indices:
                diagnostics.append(Diagnostic(
                    UNPLACED_OPERATION, block.label, op_index=index,
                    cycle=cycle,
                    message="schedule places an index the block lacks",
                ))
                continue
            class_name = schedule.classes.get(index, "")
            if class_name not in self.mdes.op_classes:
                diagnostics.append(Diagnostic(
                    UNKNOWN_CLASS, block.label, op_index=index,
                    cycle=cycle,
                    message=(
                        f"operation class {class_name!r} is not in the "
                        "description"
                    ),
                ))
                continue
            replayable.append((index, cycle, class_name))
        return diagnostics, replayable

    def _slots(
        self, replayable: List[Tuple[int, int, str]]
    ) -> List[Tuple[int, int, _Choices]]:
        """One ``(index, cycle, choices)`` slot per OR-tree of each op,
        ops in (cycle, index) order."""
        return [
            (index, cycle, choices)
            for index, cycle, class_name in sorted(
                replayable, key=lambda item: (item[1], item[0])
            )
            for choices in self._choices[class_name]
        ]

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
            op_index, cycle, choices = slots[position]
            conflicts: List[Tuple[int, object, int]] = []
            for choice in choices:
                clash = None
                for time, resource_index, resource in choice:
                    holder = busy.get((cycle + time, resource_index))
                    if holder is not None:
                        clash = (cycle + time, resource, holder)
                        break
                if clash is not None:
                    conflicts.append(clash)
                    continue
                for time, resource_index, _ in choice:
                    busy[(cycle + time, resource_index)] = op_index
                if admit(position + 1):
                    return True
                for time, resource_index, _ in choice:
                    del busy[(cycle + time, resource_index)]
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

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def verify_block(self, schedule: BlockSchedule) -> List[Diagnostic]:
        """All diagnostics for one block schedule."""
        diagnostics, replayable = self._placement_and_classes(schedule)
        diagnostics.extend(
            self._check_latencies(schedule, self._graph(schedule.block))
        )
        diagnostics.extend(self._replay_resources(schedule, replayable))
        return diagnostics

    def verify(self, schedules: Iterable[BlockSchedule]) -> VerifyReport:
        """Check every schedule and aggregate a report."""
        from repro import obs

        report = VerifyReport(
            machine_name=self.machine.name, direction=self.direction
        )
        with obs.span(
            "verify:oracle", machine=self.machine.name,
            direction=self.direction,
        ) as sp:
            for schedule in schedules:
                report.blocks_checked += 1
                report.ops_checked += len(schedule.block)
                report.diagnostics.extend(self.verify_block(schedule))
        if obs.enabled():
            sp.set(
                blocks=report.blocks_checked, ops=report.ops_checked,
                diagnostics=len(report.diagnostics),
            )
            obs.count(
                "repro_verify_runs_total",
                help="Oracle verification runs.",
                machine=self.machine.name,
            )
            obs.count(
                "repro_verify_blocks_total", report.blocks_checked,
                help="Block schedules replayed by the oracle.",
                machine=self.machine.name,
            )
            for code, n in report.codes().items():
                obs.count(
                    "repro_verify_diagnostics_total", n,
                    help="Oracle diagnostics by code.", code=code,
                )
        return report


def verify_schedule(
    machine: Union[str, object],
    schedules,
    direction: str = "forward",
) -> VerifyReport:
    """Verify schedules against a machine's raw high-level description.

    ``machine`` is a registered machine name or a machine object.
    ``schedules`` may be a single :class:`BlockSchedule`, any iterable
    of them, or a result object carrying a ``schedules`` attribute
    (:class:`~repro.scheduler.schedule.RunResult`,
    :class:`~repro.service.batch.BatchResult`).  ``direction`` must
    match the scheduler direction that produced the schedules, because
    the two directions plan against different dependence models.
    """
    if isinstance(machine, str):
        from repro.machines import get_machine

        machine = get_machine(machine)
    items = getattr(schedules, "schedules", schedules)
    if items is None:
        raise ValueError(
            "result carries no schedules; run with keep_schedules=True"
        )
    if isinstance(items, BlockSchedule):
        items = [items]
    return ScheduleOracle(machine, direction=direction).verify(items)
