"""The iterative modulo scheduler.

Implements Rau's algorithm on top of the library's reservation-table
machinery: a *modulo reservation table* (an RU map indexed modulo the
initiation interval), slot search within one II window, and -- the part
that motivates reservation tables over automata (paper section 10) --
forced placement with *unscheduling*: when no slot is free, the operation
is placed anyway and every operation whose reservations or dependences it
tramples is evicted (``ConstraintChecker.release``) and rescheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine.base import QueryEngine, Reservation
from repro.engine.table import TableEngine
from repro.errors import SchedulingError
from repro.lowlevel.checker import CheckStats
from repro.lowlevel.compiled import CompiledMdes
from repro.modulo.loop import Loop, LoopEdge

__all__ = [
    "ModuloSchedule",
    "minimum_initiation_interval",
    "modulo_schedule",
]


@dataclass
class ModuloSchedule:
    """A successful software pipeline."""

    loop: Loop
    ii: int
    times: Dict[int, int]
    stats: CheckStats
    evictions: int

    def validate(self) -> None:
        """Recheck every dependence: t_succ >= t_pred + lat - II*dist."""
        for edge in self.loop.edges:
            lower = self.times[edge.pred] + edge.latency \
                - self.ii * edge.distance
            if self.times[edge.succ] < lower:
                raise SchedulingError(
                    f"modulo schedule violates {edge}: "
                    f"{self.times[edge.succ]} < {lower}"
                )

    def __repr__(self) -> str:
        return (
            f"ModuloSchedule(II={self.ii}, {len(self.times)} ops, "
            f"{self.evictions} evictions)"
        )


# ----------------------------------------------------------------------
# Lower bounds
# ----------------------------------------------------------------------

def _resource_mii(loop: Loop, machine, source) -> int:
    """ResMII: demand over capacity per alternative pool.

    Each OR-tree defines a pool of interchangeable resources; its
    capacity is how many of its options can hold resources concurrently
    (total pool bits over bits per option).  An operation demands one
    slot of the pool per cycle its (first) option occupies it.  The
    bound is the classic ``max over pools ceil(demand / capacity)``.
    """
    from repro.lowlevel.compiled import CompiledAndOrTree

    demand: Dict[int, int] = {}
    capacity: Dict[int, int] = {}
    for op in loop.operations:
        constraint = source.constraint_for_class(
            machine.classify(op, False)
        )
        or_trees = (
            constraint.or_trees
            if isinstance(constraint, CompiledAndOrTree)
            else (constraint,)
        )
        for or_tree in or_trees:
            pool_mask = 0
            for option in or_tree.options:
                for _, mask in option.reserve_mask_by_time:
                    pool_mask |= mask
            first = or_tree.options[0]
            bits_per_option = max(
                1,
                sum(
                    bin(mask).count("1")
                    for _, mask in first.reserve_mask_by_time
                ) // max(1, len(first.reserve_mask_by_time)),
            )
            pool_capacity = max(
                1, bin(pool_mask).count("1") // bits_per_option
            )
            demand[pool_mask] = demand.get(pool_mask, 0) + len(
                first.reserve_mask_by_time
            )
            capacity[pool_mask] = pool_capacity
    best = 1
    for pool_mask, pool_demand in demand.items():
        pool_capacity = capacity[pool_mask]
        best = max(best, -(-pool_demand // pool_capacity))
    return best


def _has_positive_cycle(loop: Loop, ii: int) -> bool:
    """Whether some dependence cycle needs more than ``ii`` cycles/iter."""
    n = len(loop.operations)
    NEG = float("-inf")
    dist = [[NEG] * n for _ in range(n)]
    for edge in loop.edges:
        weight = edge.latency - ii * edge.distance
        if weight > dist[edge.pred][edge.succ]:
            dist[edge.pred][edge.succ] = weight
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == NEG:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                candidate = dik + row_k[j]
                if candidate > row_i[j]:
                    row_i[j] = candidate
    return any(dist[i][i] > 0 for i in range(n))


def _recurrence_mii(loop: Loop) -> int:
    ii = 1
    while _has_positive_cycle(loop, ii):
        ii += 1
        if ii > 1 + sum(edge.latency for edge in loop.edges):
            raise SchedulingError("dependence cycle with zero distance")
    return ii


def minimum_initiation_interval(
    loop: Loop, machine, source
) -> Tuple[int, int]:
    """(ResMII, RecMII) lower bounds.

    ``source`` is anything exposing ``constraint_for_class`` -- a
    compiled MDES or a query engine.
    """
    return _resource_mii(loop, machine, source), _recurrence_mii(loop)


# ----------------------------------------------------------------------
# The iterative scheduler
# ----------------------------------------------------------------------

def _heights(loop: Loop) -> Dict[int, int]:
    """Priority: latency-weighted height over distance-0 edges."""
    order = sorted(range(len(loop.operations)), reverse=True)
    heights = {index: 0 for index in order}
    intra = [edge for edge in loop.edges if edge.distance == 0]
    # Distance-0 edges always point forward in our loop bodies.
    for index in order:
        for edge in intra:
            if edge.pred == index:
                heights[index] = max(
                    heights[index], edge.latency + heights[edge.succ]
                )
    return heights


def _overlaps(handle: Reservation, other: Reservation,
              ii: int) -> bool:
    for cycle_a, mask_a in handle:
        for cycle_b, mask_b in other:
            if cycle_a % ii == cycle_b % ii and mask_a & mask_b:
                return True
    return False


def _try_schedule_at_ii(
    loop: Loop, machine, engine: QueryEngine, ii: int, budget: int
) -> Optional[ModuloSchedule]:
    mrt = engine.new_state(ii=ii)
    stats_before = engine.stats.copy()
    heights = _heights(loop)
    preds: Dict[int, List[LoopEdge]] = {}
    succs: Dict[int, List[LoopEdge]] = {}
    for edge in loop.edges:
        preds.setdefault(edge.succ, []).append(edge)
        succs.setdefault(edge.pred, []).append(edge)

    times: Dict[int, int] = {}
    handles: Dict[int, Reservation] = {}
    previous_time: Dict[int, int] = {}
    evictions = 0

    def unschedule(index: int) -> None:
        engine.release(handles.pop(index))
        previous_time[index] = times.pop(index)

    def earliest_start(index: int) -> int:
        est = 0
        for edge in preds.get(index, []):
            if edge.pred in times:
                est = max(
                    est,
                    times[edge.pred] + edge.latency - ii * edge.distance,
                )
        return est

    pending = sorted(
        range(len(loop.operations)),
        key=lambda index: (-heights[index], index),
    )
    steps = 0
    while pending:
        steps += 1
        if steps > budget:
            return None
        index = pending.pop(0)
        op = loop.operations[index]
        class_name = machine.classify(op, False)
        constraint = engine.constraint_for_class(class_name)
        est = earliest_start(index)
        if index in previous_time:
            est = max(est, previous_time[index] + 1)

        # One batched probe over the II window: every distinct modulo
        # slot reachable from ``est`` in one pass.
        handle = engine.try_reserve_many(
            mrt, class_name, range(est, est + ii)
        )
        if handle is not None:
            times[index] = handle.cycle

        if handle is None:
            # Forced placement: evict whatever stands at ``est``.
            forced = est
            desired = _first_choice_reservations(constraint, forced)
            for other in [i for i in list(times) if i != index]:
                if _overlaps(handles[other], desired, ii):
                    unschedule(other)
                    pending.append(other)
                    evictions += 1
            handle = engine.try_reserve(mrt, class_name, forced)
            if handle is None:
                # Residual interference through a non-first option:
                # evict everything sharing a resource with this class.
                resources = _constraint_mask(constraint)
                for other in [i for i in list(times) if i != index]:
                    if any(mask & resources for _, mask in handles[other]):
                        unschedule(other)
                        pending.append(other)
                        evictions += 1
                handle = engine.try_reserve(mrt, class_name, forced)
            if handle is None:
                return None
            times[index] = forced

        handles[index] = handle

        # Evict scheduled successors whose dependence is now violated.
        for edge in succs.get(index, []):
            if edge.succ in times and edge.succ != index:
                lower = times[index] + edge.latency - ii * edge.distance
                if times[edge.succ] < lower:
                    unschedule(edge.succ)
                    pending.append(edge.succ)
                    evictions += 1
        pending.sort(key=lambda i: (-heights[i], i))

    schedule = ModuloSchedule(
        loop, ii, dict(times), engine.stats.since(stats_before), evictions
    )
    schedule.validate()
    return schedule


def _first_choice_reservations(constraint, issue_cycle: int):
    from repro.lowlevel.compiled import CompiledAndOrTree

    or_trees = (
        constraint.or_trees
        if isinstance(constraint, CompiledAndOrTree)
        else (constraint,)
    )
    pairs = []
    for or_tree in or_trees:
        for time, mask in or_tree.options[0].reserve_mask_by_time:
            pairs.append((issue_cycle + time, mask))
    return tuple(pairs)


def _constraint_mask(constraint) -> int:
    from repro.lowlevel.compiled import CompiledAndOrTree

    or_trees = (
        constraint.or_trees
        if isinstance(constraint, CompiledAndOrTree)
        else (constraint,)
    )
    combined = 0
    for or_tree in or_trees:
        for option in or_tree.options:
            for _, mask in option.reserve_mask_by_time:
                combined |= mask
    return combined


def modulo_schedule(
    loop: Loop,
    machine,
    compiled: Optional[CompiledMdes] = None,
    max_ii: int = 64,
    budget_ratio: int = 16,
    engine: Optional[QueryEngine] = None,
) -> ModuloSchedule:
    """Software pipeline a loop: search IIs upward from the lower bound.

    Runs against any query engine that supports modulo-wrapped state;
    backends that cannot release or wrap reservations (the automaton)
    raise :class:`SchedulingError` from ``engine.new_state`` -- the
    section 10 capability gap, surfaced as a typed error.
    """
    from repro import obs

    if engine is None:
        if compiled is None:
            raise SchedulingError(
                "modulo_schedule needs a compiled MDES or an engine"
            )
        engine = TableEngine(compiled)
    schedule = None
    with obs.span(
        "schedule:modulo", machine=machine.name, backend=engine.name,
        ops=len(loop.operations),
    ) as span:
        res_mii, rec_mii = minimum_initiation_interval(
            loop, machine, engine
        )
        budget = budget_ratio * max(1, len(loop.operations))
        for ii in range(max(res_mii, rec_mii), max_ii + 1):
            schedule = _try_schedule_at_ii(loop, machine, engine, ii, budget)
            if schedule is not None:
                span.set(ii=ii, res_mii=res_mii, rec_mii=rec_mii)
                break
    if schedule is not None:
        if obs.enabled():
            obs.observe(
                "repro_schedule_seconds", span.seconds,
                help="Wall seconds per workload scheduling run.",
                scheduler="modulo", backend=engine.name,
            )
        return schedule
    raise SchedulingError(
        f"no modulo schedule found up to II={max_ii} "
        f"(ResMII={res_mii}, RecMII={rec_mii})"
    )
