"""Reference implementations of the two quadratic compile transforms.

These are the straightforward forms of dominated-option removal
(section 5) and the Eichenberger-Davidson reduction (section 10) that
``repro.transforms.option_elim`` and ``repro.eichenberger.reduce`` once
used verbatim.  The library versions compute the same results with
per-tree usage sets and a resource index; the differential tests compare
them against these on every paper machine, a synth sample and random
inputs, and require identical kept options and identical usage tuples.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.tables import OrTree, ReservationTable


def prune_or_tree(tree: OrTree) -> OrTree:
    """Return ``tree`` without options dominated by a higher priority one."""
    kept: List[ReservationTable] = []
    for option in tree.options:
        if any(higher.dominates(option) for higher in kept):
            continue
        kept.append(option)
    if len(kept) == len(tree.options):
        return tree
    return OrTree(tuple(kept), name=tree.name)


def _collisions(a: Sequence, b: Sequence) -> frozenset:
    return frozenset(
        ua.time - ub.time
        for ua in a
        for ub in b
        if ua.resource is ub.resource and ua.time >= ub.time
    )


def reduce_options(
    options: List[ReservationTable],
) -> List[ReservationTable]:
    """Reduce a closed set of options, preserving pairwise collisions.

    ``options`` must contain every option of the description: a deletion
    is only safe when checked against all of them.
    """
    current: List[List] = [list(option.usages) for option in options]

    def safe_to_drop(index: int, usage_position: int) -> bool:
        candidate = (
            current[index][:usage_position]
            + current[index][usage_position + 1 :]
        )
        if not candidate:
            return False
        original = current[index]
        for other_index, other in enumerate(current):
            if other_index == index:
                if _collisions(candidate, candidate) != _collisions(
                    original, original
                ):
                    return False
                continue
            if _collisions(candidate, other) != _collisions(
                original, other
            ):
                return False
            if _collisions(other, candidate) != _collisions(
                other, original
            ):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            position = 0
            while position < len(current[index]):
                if safe_to_drop(index, position):
                    del current[index][position]
                    changed = True
                else:
                    position += 1

    return [
        ReservationTable(tuple(usages), name=options[i].name)
        for i, usages in enumerate(current)
    ]
