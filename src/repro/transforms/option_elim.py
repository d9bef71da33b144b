"""Dominated-option removal (paper section 5, Table 8).

An option can be removed from an OR-tree if its resource usages are
identical to, or a superset of, the usages of a higher-priority option:
whenever the dominated option's resources are free, so are the dominating
option's, and priority selects the latter.  Such options arise from
preprocessor enumeration and from description evolution -- the paper's
PA7100 description inherited a duplicated memory-operation option from an
earlier HP PA description without anyone noticing, since schedules stayed
correct.

Removing a dominated option never changes the chosen option at any cycle,
so the schedule is preserved.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.core.mdes import Mdes
from repro.core.tables import OrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.transforms.base import TreeRewriter


def prune_or_tree(tree: OrTree) -> OrTree:
    """Return ``tree`` without options dominated by a higher priority one.

    The rule is :meth:`ReservationTable.dominates`, with each option's
    usage set built once per tree rather than once per compared pair.
    """
    if len(tree.options) == 1:
        return tree
    kept: List[ReservationTable] = []
    kept_sets: List[FrozenSet[ResourceUsage]] = []
    for option in tree.options:
        usage_set = frozenset(option.usages)
        if any(higher <= usage_set for higher in kept_sets):
            continue
        kept.append(option)
        kept_sets.append(usage_set)
    if len(kept) == len(tree.options):
        return tree
    return OrTree(tuple(kept), name=tree.name)


def remove_dominated_options(mdes: Mdes) -> Mdes:
    """Prune every OR-tree of the description."""
    rewriter = TreeRewriter(or_tree_hook=prune_or_tree)
    return rewriter.rewrite_mdes(mdes)
