"""Branch-and-bound exact scheduling of small basic blocks.

The search places operations in program order (dependence edges always
point forward, so this is a topological order) and branches on the issue
cycle of each.  Minimizing the last issue cycle minimizes schedule
length: any feasible schedule shifts down to start at cycle zero
(dependences are relative and an empty RU map is time-invariant), so the
schedule with the smallest maximum cycle starts at zero and has length
``max + 1``.

What keeps the search exact over the greedy query engines:

* **Candidate clamping** -- an operation issuing at cycle *c* forces a
  min-latency successor chain out to ``c + tail``, so candidates beyond
  ``incumbent_max - 1 - tail`` cannot improve on the incumbent.
* **Greedy + repair placement** -- ``engine.try_reserve`` commits the
  first available option per OR-tree, which can fail on cycle
  assignments that a different option choice would admit.  On greedy
  failure the placement is retried with :mod:`repro.exact.assign`: a
  complete backtracking assignment over *all* placed operations'
  compiled options.  This matches the oracle's definition of
  feasibility, so "repair says no" really means infeasible.
* **Dominance memoization** -- two search prefixes with the same
  dependence frontier (times of placed operations that still have
  unplaced successors) and the same multiset of (class, cycle) demands
  admit exactly the same completions; only the one with the smaller
  running maximum needs exploring.
* **Budgets** -- a node budget and an optional wall-clock budget degrade
  the result to "best found + lower bound" with ``optimal=False``
  instead of hanging; a result whose length meets the lower bound is
  proven optimal even when the budget tripped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.engine.base import QueryEngine
from repro.exact.assign import (
    BUDGET,
    SAT,
    constraint_slots,
    find_assignment,
)
from repro.exact.bounds import (
    class_capacity,
    critical_path_bound,
    min_asap,
    min_tails,
    resource_bound,
)
from repro.ir.block import BasicBlock
from repro.ir.dependence import build_dependence_graph
from repro.lowlevel.checker import CheckStats
from repro.lowlevel.compiled import CompiledAndOrTree
from repro.scheduler.feasibility import cycle_feasibility, earliest_cycle
from repro.scheduler.list_scheduler import ListScheduler
from repro.scheduler.schedule import BlockSchedule

#: Search-outcome reasons.
REASON_OPTIMAL = "optimal"
REASON_BOUND_MET = "bound-met"
REASON_NODE_BUDGET = "node-budget"
REASON_TIME_BUDGET = "time-budget"
REASON_OVERSIZE = "oversize"

_GREEDY = 0
_REPAIR = 1


@dataclass(frozen=True)
class ExactBudget:
    """Resource limits for one block's search.

    Attributes:
        max_nodes: Branch-and-bound (operation, cycle) trials before the
            search degrades to best-found; ``None`` is unlimited.
        max_seconds: Wall-clock limit per block; ``None`` is unlimited.
            Leave unset where determinism matters (the golden corpus) --
            a tripped clock truncates the search at a machine-dependent
            point.
        repair_nodes: Option-assignment extension attempts per repair
            invocation (see :func:`repro.exact.assign.find_assignment`).
    """

    max_nodes: Optional[int] = 50_000
    max_seconds: Optional[float] = None
    repair_nodes: int = 20_000


@dataclass
class ExactBlockResult:
    """Outcome of exactly scheduling one basic block.

    Attributes:
        schedule: The best schedule found (optimal when ``optimal``).
        optimal: Whether ``schedule`` is provably minimum-length.
        reason: Why the search ended -- one of the ``REASON_*`` values.
        lower_bound: Proven lower bound on the block's schedule length.
        heuristic_length: The list-scheduler seed's length (the gap
            baseline).
        nodes: (operation, cycle) trials the search performed.
        pruned: Subtrees cut by the dominance memo.
        repairs: Greedy failures retried with the complete assignment.
        seconds: Wall time spent on the block.
    """

    schedule: BlockSchedule
    optimal: bool
    reason: str
    lower_bound: int
    heuristic_length: int
    nodes: int = 0
    pruned: int = 0
    repairs: int = 0
    seconds: float = 0.0

    @property
    def length(self) -> int:
        """Schedule length in cycles."""
        return self.schedule.length

    @property
    def gap(self) -> int:
        """Heuristic minus exact length (>= 0 when ``optimal``)."""
        return self.heuristic_length - self.length


@dataclass
class ExactRunResult:
    """Aggregate outcome of exactly scheduling a workload."""

    machine_name: str
    results: List[ExactBlockResult] = field(default_factory=list)
    stats: CheckStats = field(default_factory=CheckStats)
    total_ops: int = 0
    seconds: float = 0.0

    @property
    def schedules(self) -> List[BlockSchedule]:
        """Per-block schedules, in workload order."""
        return [result.schedule for result in self.results]

    @property
    def total_cycles(self) -> int:
        """Sum of the (best-found) block schedule lengths."""
        return sum(result.length for result in self.results)

    @property
    def heuristic_cycles(self) -> int:
        """Sum of the list-scheduler seed lengths (gap baseline)."""
        return sum(result.heuristic_length for result in self.results)

    @property
    def gap_cycles(self) -> int:
        """Total cycles the heuristic lost to the proven optimum."""
        return self.heuristic_cycles - self.total_cycles

    @property
    def optimal_blocks(self) -> int:
        """Blocks whose schedule is provably optimal."""
        return sum(1 for result in self.results if result.optimal)

    @property
    def nodes(self) -> int:
        return sum(result.nodes for result in self.results)

    @property
    def repairs(self) -> int:
        return sum(result.repairs for result in self.results)

    @property
    def pruned(self) -> int:
        return sum(result.pruned for result in self.results)

    @property
    def attempts_per_op(self) -> float:
        """Average engine attempts per operation (seed + search)."""
        return self.stats.attempts / self.total_ops if self.total_ops else 0.0

    def signature(self) -> tuple:
        """Digest of every block schedule (cf. ``RunResult.signature``)."""
        return tuple(
            schedule.signature() for schedule in self.schedules
        )

    def __repr__(self) -> str:
        return (
            f"ExactRunResult({self.machine_name!r}, ops={self.total_ops}, "
            f"cycles={self.total_cycles} (heuristic "
            f"{self.heuristic_cycles}), optimal "
            f"{self.optimal_blocks}/{len(self.results)})"
        )


class ExactScheduler:
    """Provably-minimum-length schedules for small basic blocks.

    Queries resource feasibility through the same :class:`QueryEngine`
    protocol (and therefore the same compiled LMDES) as the heuristic
    schedulers, so a length gap between the two isolates the *search*,
    never the machine model.
    """

    def __init__(
        self,
        machine,
        engine: Optional[QueryEngine] = None,
        budget: Optional[ExactBudget] = None,
        max_block_ops: Optional[int] = None,
    ) -> None:
        if engine is None:
            from repro.engine.registry import create_engine

            engine = create_engine("exact", machine)
        if max_block_ops is None:
            from repro.engine.registry import get_engine_spec

            max_block_ops = get_engine_spec("exact").max_block_ops
        self.machine = machine
        self.engine = engine
        self.budget = budget if budget is not None else ExactBudget()
        self.max_block_ops = max_block_ops

    # ------------------------------------------------------------------
    # Per-block search
    # ------------------------------------------------------------------

    def schedule_block(self, block: BasicBlock) -> ExactBlockResult:
        """Exactly schedule one block (or degrade per the budget)."""
        from repro import obs

        # The perf_counter pair only feeds the result's ``seconds``
        # field (kept for API stability); timing for observability
        # flows through the exact:* spans below.
        start = perf_counter()
        if len(block) == 0:
            return ExactBlockResult(
                schedule=BlockSchedule(block), optimal=True,
                reason=REASON_OPTIMAL, lower_bound=0, heuristic_length=0,
                seconds=perf_counter() - start,
            )

        with obs.span("exact:seed", ops=len(block)) as seed_span:
            seed = ListScheduler(
                self.machine, engine=self.engine
            ).schedule_block(block)
            _normalize(seed)
        seed_span.set(length=seed.length)

        graph = build_dependence_graph(
            block,
            self.machine.latency,
            flow_latency_of=self.machine.flow_latency,
            bypass_of=self.machine.bypass,
        )
        asap = min_asap(graph)
        tails = min_tails(graph)
        lower_max = self._lower_bound(block, graph, asap)
        lower_len = lower_max + 1

        if (
            self.max_block_ops is not None
            and len(block) > self.max_block_ops
        ):
            return ExactBlockResult(
                schedule=seed, optimal=seed.length == lower_len,
                reason=REASON_OVERSIZE, lower_bound=lower_len,
                heuristic_length=seed.length,
                seconds=perf_counter() - start,
            )
        if seed.length == lower_len:
            return ExactBlockResult(
                schedule=seed, optimal=True, reason=REASON_BOUND_MET,
                lower_bound=lower_len, heuristic_length=seed.length,
                seconds=perf_counter() - start,
            )

        search = _BlockSearch(
            self.machine, self.engine, self.budget, block, graph,
            tails, seed,
        )
        with obs.span(
            "exact:search", ops=len(block), lower_bound=lower_len,
            seed_length=seed.length,
        ) as search_span:
            search.run()
        search_span.set(
            nodes=search.nodes, pruned=search.pruned,
            repairs=search.repairs, complete=search.complete,
        )
        best = BlockSchedule(
            block, times=search.best_times, classes=search.best_classes
        )
        _normalize(best)
        reason = search.trip_reason or REASON_OPTIMAL
        optimal = search.complete or best.length == lower_len
        return ExactBlockResult(
            schedule=best, optimal=optimal, reason=reason,
            lower_bound=lower_len, heuristic_length=seed.length,
            nodes=search.nodes, pruned=search.pruned,
            repairs=search.repairs, seconds=perf_counter() - start,
        )

    def _lower_bound(self, block, graph, asap) -> int:
        """Best available lower bound on the block's last issue cycle."""
        tails = min_tails(graph)
        bound = critical_path_bound(asap, tails)
        class_of: Dict[int, Optional[str]] = {}
        capacity_of: Dict[str, Optional[int]] = {}
        for op in block.operations:
            if any(
                edge.is_cascade_eligible
                for edge in graph.preds_of(op.index)
            ):
                # The shortcut substitutes another class; the density
                # argument no longer applies to this operation.
                class_of[op.index] = None
                continue
            class_name = self.machine.classify(op, False)
            class_of[op.index] = class_name
            if class_name not in capacity_of:
                capacity_of[class_name] = class_capacity(
                    self.engine.constraint_for_class(class_name)
                )
        return max(bound, resource_bound(asap, class_of, capacity_of))


class _BlockSearch:
    """The branch-and-bound state for one block."""

    def __init__(
        self, machine, engine, budget, block, graph, tails, seed
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.budget = budget
        self.graph = graph
        self.tails = tails
        self.ops = list(block.operations)
        self.n = len(self.ops)
        self.order = [op.index for op in self.ops]
        position = {index: pos for pos, index in enumerate(self.order)}
        # Latest position still depending on each op: the op stays in
        # the memo key's dependence frontier until that position places.
        self.last_succ_pos = {
            index: max(
                (position[edge.succ] for edge in graph.succs_of(index)),
                default=-1,
            )
            for index in self.order
        }
        self.static_class = {
            op.index: machine.classify(op, False) for op in self.ops
        }
        # Greedy try_reserve is already complete when every OR-tree has
        # at most one option -- no repair can succeed where it failed.
        self.single_option = {
            name: _single_option(engine.constraint_for_class(name))
            for name in set(self.static_class.values())
        }
        self.best_times = dict(seed.times)
        self.best_classes = dict(seed.classes)
        self.best_max = max(seed.times.values())
        self.state = engine.new_state()
        self.times: Dict[int, int] = {}
        self.classes: Dict[int, str] = {}
        self.undo: List[Tuple[int, object]] = []
        self.memo: Dict[tuple, int] = {}
        # Repair outcomes depend only on the (class, cycle) demand
        # multiset, which recurs constantly across the search.
        self.repair_cache: Dict[tuple, Tuple[str, Optional[tuple]]] = {}
        self.nodes = 0
        self.pruned = 0
        self.repairs = 0
        self.complete = True
        self.trip_reason = ""
        self.deadline = (
            perf_counter() + budget.max_seconds
            if budget.max_seconds is not None else None
        )

    def run(self) -> None:
        self._dfs(0, -1)

    # -- budget --------------------------------------------------------

    def _tripped(self) -> bool:
        if self.trip_reason:
            return True
        if (
            self.budget.max_nodes is not None
            and self.nodes >= self.budget.max_nodes
        ):
            self.trip_reason = REASON_NODE_BUDGET
            self.complete = False
            return True
        if self.deadline is not None and perf_counter() > self.deadline:
            self.trip_reason = REASON_TIME_BUDGET
            self.complete = False
            return True
        return False

    # -- placement -----------------------------------------------------

    def _try_place(self, index: int, class_name: str, cycle: int) -> bool:
        reservation = self.engine.try_reserve(
            self.state, class_name, cycle
        )
        if reservation is not None:
            self.undo.append((_GREEDY, reservation))
            return True
        if self.single_option.get(class_name, False) and all(
            self.single_option.get(placed, False)
            for placed in self.classes.values()
        ):
            return False
        # The greedy option commitment may be the only obstacle: retry
        # with a complete assignment over every placed operation.
        demands = tuple(sorted(
            [
                (self.classes[i], self.times[i]) for i in self.times
            ] + [(class_name, cycle)]
        ))
        cached = self.repair_cache.get(demands)
        if cached is None:
            self.repairs += 1
            slots = []
            for demand_class, demand_cycle in demands:
                slots.extend(constraint_slots(
                    self.engine.constraint_for_class(demand_class),
                    demand_cycle,
                ))
            status, chosen, _ = find_assignment(
                slots, self.budget.repair_nodes
            )
            pairs = None
            if status == SAT:
                pairs = tuple(
                    pair for alternative in chosen for pair in alternative
                )
            cached = (status, pairs)
            self.repair_cache[demands] = cached
        status, pairs = cached
        if status == BUDGET:
            # Undecided: treated as infeasible, which forfeits the
            # completeness claim but never produces a bad schedule.
            self.complete = False
            return False
        if status != SAT:
            return False
        snapshot = list(self.state.busy_cycles())
        self.state.clear()
        for abs_cycle, mask in pairs:
            self.state.reserve(abs_cycle, mask)
        self.undo.append((_REPAIR, snapshot))
        return True

    def _unplace(self) -> None:
        kind, payload = self.undo.pop()
        if kind == _GREEDY:
            self.engine.release(payload)
        else:
            self.state.clear()
            for cycle, word in payload:
                self.state.reserve(cycle, word)

    # -- search --------------------------------------------------------

    def _memo_key(
        self, pos: int, index: int, cycle: int, class_name: str
    ) -> tuple:
        """Key of the state *after* placing ``index`` at ``cycle``.

        Computed before the placement is attempted, so a dominance hit
        skips the (possibly repair-priced) feasibility work entirely.
        """
        after = pos + 1
        frontier = [
            (placed, self.times[placed])
            for placed in self.order[:pos]
            if self.last_succ_pos[placed] >= after
        ]
        if self.last_succ_pos[index] >= after:
            frontier.append((index, cycle))
        demands = tuple(sorted(
            [
                (self.classes[placed], self.times[placed])
                for placed in self.order[:pos]
            ] + [(class_name, cycle)]
        ))
        return (after, tuple(frontier), demands)

    def _dfs(self, pos: int, current_max: int) -> None:
        if pos == self.n:
            self.best_times = dict(self.times)
            self.best_classes = dict(self.classes)
            self.best_max = current_max
            return
        op = self.ops[pos]
        index = op.index
        tail = self.tails[index]
        cycle = earliest_cycle(self.graph, self.times, index)
        # The clamp is the dependence-aware bound: an op at cycle c
        # forces a min-latency chain out to c + tail, so candidates
        # beyond incumbent_max - 1 - tail cannot beat the incumbent.
        while cycle <= self.best_max - 1 - tail:
            if self._tripped():
                return
            self.nodes += 1
            feasible = cycle_feasibility(
                self.graph, self.times, index, cycle
            )
            if feasible is not None:
                cascaded, bypass_class = feasible
                if bypass_class:
                    class_name = bypass_class
                else:
                    class_name = (
                        self.machine.classify(op, cascaded)
                        if cascaded else self.static_class[index]
                    )
                new_max = max(current_max, cycle)
                key = self._memo_key(pos, index, cycle, class_name)
                previous = self.memo.get(key)
                if previous is not None and previous <= new_max:
                    self.pruned += 1
                elif self._try_place(index, class_name, cycle):
                    self.times[index] = cycle
                    self.classes[index] = class_name
                    self.memo[key] = new_max
                    self._dfs(pos + 1, new_max)
                    del self.times[index]
                    del self.classes[index]
                    self._unplace()
                    if self.trip_reason:
                        return
            cycle += 1


def _single_option(constraint) -> bool:
    """Whether every OR-tree of the constraint has at most one option."""
    if isinstance(constraint, CompiledAndOrTree):
        return all(
            len(or_tree.options) <= 1 for or_tree in constraint.or_trees
        )
    return len(constraint.options) <= 1


def _normalize(schedule: BlockSchedule) -> None:
    """Shift a schedule so its earliest issue cycle is zero."""
    if not schedule.times:
        return
    base = min(schedule.times.values())
    if base:
        schedule.times = {
            index: cycle - base
            for index, cycle in schedule.times.items()
        }


def schedule_workload_exact(
    machine,
    blocks,
    engine: Optional[QueryEngine] = None,
    budget: Optional[ExactBudget] = None,
    max_block_ops: Optional[int] = None,
) -> ExactRunResult:
    """Exactly schedule every block and aggregate the outcomes.

    The exact counterpart of
    :func:`repro.scheduler.list_scheduler.schedule_workload`; block
    schedules are always kept (they are the point of an exact run).
    """
    from repro import obs

    scheduler = ExactScheduler(
        machine, engine=engine, budget=budget,
        max_block_ops=max_block_ops,
    )
    result = ExactRunResult(machine_name=machine.name)
    before = scheduler.engine.stats.copy()
    with obs.span(
        "schedule:exact", machine=machine.name,
        backend=scheduler.engine.name, memory=True,
    ) as sp:
        for index, block in enumerate(blocks):
            with obs.span(
                "exact:block", index=index, ops=len(block)
            ) as block_span:
                block_result = scheduler.schedule_block(block)
            block_span.set(
                length=block_result.length,
                optimal=block_result.optimal,
                reason=block_result.reason,
                nodes=block_result.nodes,
                pruned=block_result.pruned,
                repairs=block_result.repairs,
            )
            result.results.append(block_result)
            result.total_ops += len(block)
    result.stats = scheduler.engine.stats.since(before)
    result.seconds = sum(r.seconds for r in result.results)
    if obs.enabled():
        sp.set(
            ops=result.total_ops, cycles=result.total_cycles,
            optimal=result.optimal_blocks, nodes=result.nodes,
        )
        _record_exact_run(obs, result)
    return result


def _record_exact_run(obs, result: ExactRunResult) -> None:
    """Fold one exact run's totals into the obs registry."""
    labels = {"scheduler": "exact"}
    obs.count("repro_exact_nodes_total", result.nodes,
              help="Branch-and-bound nodes expanded.", **labels)
    obs.count("repro_exact_pruned_total", result.pruned,
              help="Subtrees cut by the dominance memo.", **labels)
    obs.count("repro_exact_repairs_total", result.repairs,
              help="Greedy failures retried with complete assignment.",
              **labels)
    for optimal in (True, False):
        count = sum(
            1 for r in result.results if r.optimal is optimal
        )
        if count:
            obs.count(
                "repro_exact_blocks_total", count,
                help="Blocks solved, by proof status.",
                optimal="true" if optimal else "false", **labels,
            )
    obs.observe("repro_exact_seconds", result.seconds,
                help="Wall seconds per exact scheduling run.", **labels)


__all__ = [
    "ExactBudget",
    "ExactBlockResult",
    "ExactRunResult",
    "ExactScheduler",
    "schedule_workload_exact",
    "REASON_OPTIMAL",
    "REASON_BOUND_MET",
    "REASON_NODE_BUDGET",
    "REASON_TIME_BUDGET",
    "REASON_OVERSIZE",
]
