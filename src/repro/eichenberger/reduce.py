"""Greedy per-option usage minimization preserving collision vectors.

A usage can be deleted from an option when deleting it changes no
pairwise collision vector against any option in the description
(including the option against itself).  Whatever schedules were legal
before remain exactly the legal schedules after -- Eichenberger and
Davidson's equivalence criterion.  Like theirs, this implementation is a
heuristic: it deletes greedily in a fixed order and may miss a true
minimum, but results are near-optimal in practice.

Note the scope of the guarantee: *legality* is preserved, not the
greedy checker's concrete resource choices, so a priority-driven list
scheduler may pick different (equally legal) placements afterwards.
This is weaker than the paper's own transformations, every one of which
preserves the produced schedule bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.mdes import Mdes
from repro.core.tables import OrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.errors import MdesError
from repro.transforms.base import TreeRewriter

#: ``(id(resource), time)``: a usage keyed by resource identity, the way
#: :func:`repro.automata.collision.forbidden_latencies` matches usages.
_Key = Tuple[int, int]


def reduce_options(
    options: List[ReservationTable],
) -> List[ReservationTable]:
    """Reduce a closed set of options, preserving pairwise collisions.

    ``options`` must contain every option of the description: a deletion
    is only safe when checked against all of them.

    Dropping usage ``u = (r, t)`` can only remove the collision distances
    ``u`` itself produced, all against usages of ``r``.  The drop is safe
    exactly when every such distance is still produced by another pair,
    so only those distances are checked.
    """
    current: List[List[ResourceUsage]] = [
        list(option.usages) for option in options
    ]
    # Bit i of holders[key] is set while option i holds that usage.
    holders: Dict[_Key, int] = {}
    # The times each resource is used at.  Built once: a time no option
    # holds any more has an empty mask and adds nothing.
    times: Dict[int, Set[int]] = {}
    for index, usages in enumerate(current):
        for usage in usages:
            key = (id(usage.resource), usage.time)
            holders[key] = holders.get(key, 0) | (1 << index)
            times.setdefault(key[0], set()).add(usage.time)

    def drop_if_safe(index: int, usage_position: int) -> bool:
        usages = current[index]
        if len(usages) == 1:
            return False
        candidate = [(id(usage.resource), usage.time) for usage in usages]
        resource, time = candidate.pop(usage_position)
        bit = 1 << index
        holders[(resource, time)] &= ~bit
        # Every option still holding some (r, x), this one included, had
        # distance d = t - x to u.  It must also hold (a.resource,
        # a.time - d) for some usage a of the candidate.
        for other_time in times[resource]:
            needed = holders[(resource, other_time)]
            if not needed:
                continue
            distance = time - other_time
            kept = 0
            for a_resource, a_time in candidate:
                kept |= holders.get((a_resource, a_time - distance), 0)
            if needed & ~kept:
                holders[(resource, time)] |= bit
                return False
        del usages[usage_position]
        return True

    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            position = 0
            while position < len(current[index]):
                if drop_if_safe(index, position):
                    changed = True
                else:
                    position += 1

    return [
        ReservationTable(tuple(usages), name=options[i].name)
        for i, usages in enumerate(current)
    ]


def reduce_mdes_options(mdes: Mdes) -> Mdes:
    """Apply the reduction to a whole flat (OR-tree) description."""
    trees = [op_class.constraint for op_class in mdes.op_classes.values()]
    trees.extend(mdes.unused_trees.values())
    for tree in trees:
        if not isinstance(tree, OrTree):
            raise MdesError(
                "Eichenberger-Davidson reduction operates on flat OR-tree "
                "descriptions; expand AND/OR-trees first"
            )

    originals: List[ReservationTable] = []
    positions: Dict[int, int] = {}
    for constraint in mdes.constraints():
        for option in constraint.options:
            if id(option) not in positions:
                positions[id(option)] = len(originals)
                originals.append(option)
    for tree in mdes.unused_trees.values():
        for option in tree.options:
            if id(option) not in positions:
                positions[id(option)] = len(originals)
                originals.append(option)

    reduced = reduce_options(originals)

    rewriter = TreeRewriter(
        option_hook=lambda option: reduced[positions[id(option)]]
    )
    return rewriter.rewrite_mdes(mdes)
