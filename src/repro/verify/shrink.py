"""Greedy minimization of a failing fuzz case.

A raw divergence report points at a generated description with a few
dozen operations and a handful of multi-option trees -- too much to eye.
The shrinker applies delta-debugging-style reduction passes, largest
cuts first, re-checking after each candidate that the divergence still
reproduces:

1. drop whole basic blocks,
2. drop operations within a block (indices are renumbered),
3. drop operation classes no remaining operation uses (with their
   opcodes),
4. drop sub-OR-trees of AND/OR constraints,
5. drop OR-tree options,
6. drop individual usages within an option.

Every surviving candidate is re-validated (``Mdes.validate``) and
re-serialized through the HMDES writer, so the final artifact is a
minimal *source-level* reproducer: a small ``.hmdes`` text plus a small
block list, ready to paste into a regression test.

The loop restarts from the first pass after every accepted cut (a
smaller case often unlocks earlier cuts) and is bounded by an attempt
budget so pathological predicates cannot spin forever.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.mdes import Mdes, OperationClass
from repro.core.tables import AndOrTree, Constraint, OrTree
from repro.errors import MdesError
from repro.ir.block import BasicBlock

#: Cap on reduction candidates tried per shrink run.
MAX_SHRINK_ATTEMPTS = 600


def _rebuild_case(case, mdes: Mdes, blocks: List[BasicBlock]):
    """A new FuzzCase around a mutated description/workload pair."""
    from repro.verify.fuzz import FuzzCase
    from repro.machines.synth.grammar import build_machine

    used = {op.opcode for block in blocks for op in block}
    profile = tuple(
        spec for spec in case.machine.opcode_profile
        if spec.opcode in used and spec.opcode in mdes.opcode_map
    )
    machine = build_machine(mdes, rng=None, profile=profile)
    return FuzzCase(
        seed=case.seed, mdes=mdes, machine=machine, blocks=blocks
    )


def _drop_blocks(case) -> Iterator[Tuple[Mdes, List[BasicBlock]]]:
    for index in range(len(case.blocks)):
        if len(case.blocks) <= 1:
            return
        yield case.mdes, (
            case.blocks[:index] + case.blocks[index + 1:]
        )


def _drop_ops(case) -> Iterator[Tuple[Mdes, List[BasicBlock]]]:
    for block_index, block in enumerate(case.blocks):
        if len(block) <= 1:
            continue
        for op_index in range(len(block.operations)):
            remaining = [
                op for position, op in enumerate(block.operations)
                if position != op_index
            ]
            rebuilt = BasicBlock(block.label, [
                replace(op, index=position)
                for position, op in enumerate(remaining)
            ])
            yield case.mdes, (
                case.blocks[:block_index] + [rebuilt]
                + case.blocks[block_index + 1:]
            )


def _drop_classes(case) -> Iterator[Tuple[Mdes, List[BasicBlock]]]:
    mdes = case.mdes
    used_opcodes = {op.opcode for block in case.blocks for op in block}
    used_classes = {
        mdes.opcode_map[opcode]
        for opcode in used_opcodes if opcode in mdes.opcode_map
    }
    for class_name in mdes.op_classes:
        if class_name in used_classes or len(mdes.op_classes) <= 1:
            continue
        yield Mdes(
            name=mdes.name,
            resources=mdes.resources,
            op_classes={
                name: cls for name, cls in mdes.op_classes.items()
                if name != class_name
            },
            opcode_map={
                opcode: cls for opcode, cls in mdes.opcode_map.items()
                if cls != class_name
            },
            unused_trees=dict(mdes.unused_trees),
            bypasses=dict(mdes.bypasses),
        ), case.blocks
    if mdes.unused_trees:
        yield Mdes(
            name=mdes.name,
            resources=mdes.resources,
            op_classes=dict(mdes.op_classes),
            opcode_map=dict(mdes.opcode_map),
            unused_trees={},
            bypasses=dict(mdes.bypasses),
        ), case.blocks


def _with_constraint(
    mdes: Mdes, class_name: str, constraint: Constraint
) -> Mdes:
    op_classes = dict(mdes.op_classes)
    op_classes[class_name] = op_classes[class_name].with_constraint(
        constraint
    )
    return Mdes(
        name=mdes.name,
        resources=mdes.resources,
        op_classes=op_classes,
        opcode_map=dict(mdes.opcode_map),
        unused_trees=dict(mdes.unused_trees),
        bypasses=dict(mdes.bypasses),
    )


def _constraint_reductions(constraint: Constraint) -> Iterator[Constraint]:
    """Structurally smaller variants of one constraint, biggest first."""
    if isinstance(constraint, AndOrTree):
        # Drop a whole sub-OR-tree.
        if len(constraint.or_trees) > 1:
            for index in range(len(constraint.or_trees)):
                yield AndOrTree(
                    constraint.or_trees[:index]
                    + constraint.or_trees[index + 1:]
                )
        # Recurse into each sub-OR-tree.
        for index, tree in enumerate(constraint.or_trees):
            for smaller in _constraint_reductions(tree):
                yield AndOrTree(
                    constraint.or_trees[:index] + (smaller,)
                    + constraint.or_trees[index + 1:]
                )
        return
    # OR-tree: drop an option, then drop a usage within an option.
    if len(constraint.options) > 1:
        for index in range(len(constraint.options)):
            yield OrTree(
                constraint.options[:index] + constraint.options[index + 1:]
            )
    for index, option in enumerate(constraint.options):
        if len(option.usages) <= 1:
            continue
        for usage_index in range(len(option.usages)):
            smaller = replace(option, usages=(
                option.usages[:usage_index]
                + option.usages[usage_index + 1:]
            ))
            yield OrTree(
                constraint.options[:index] + (smaller,)
                + constraint.options[index + 1:]
            )


def _shrink_constraints(case) -> Iterator[Tuple[Mdes, List[BasicBlock]]]:
    for class_name, op_class in case.mdes.op_classes.items():
        for smaller in _constraint_reductions(op_class.constraint):
            yield _with_constraint(
                case.mdes, class_name, smaller
            ), case.blocks


#: Reduction passes in decreasing cut size.
_PASSES: Tuple[Callable, ...] = (
    _drop_blocks,
    _drop_ops,
    _drop_classes,
    _shrink_constraints,
)


def case_size(case) -> Tuple[int, int, int]:
    """(total ops, stored options, stored usages) -- the shrink metric."""
    ops = sum(len(block) for block in case.blocks)
    options = 0
    usages = 0
    for tree in case.mdes.or_trees():
        for option in tree.options:
            options += 1
            usages += len(option.usages)
    return ops, options, usages


def shrink_case(
    case,
    reproduces: Callable[[object], bool],
    max_attempts: int = MAX_SHRINK_ATTEMPTS,
):
    """Minimize ``case`` while ``reproduces(candidate)`` stays true.

    Returns ``(smallest case, accepted cuts, attempts used)``.  The
    input case is assumed to reproduce already.
    """
    from repro import obs

    accepted = 0
    attempts = 0
    with obs.span("verify:shrink", seed=case.seed) as sp:
        progress = True
        while progress and attempts < max_attempts:
            progress = False
            for reduction_pass in _PASSES:
                for mdes, blocks in reduction_pass(case):
                    if attempts >= max_attempts:
                        break
                    attempts += 1
                    try:
                        mdes.validate()
                        candidate = _rebuild_case(case, mdes, blocks)
                        if not reproduces(candidate):
                            continue
                    except MdesError:
                        continue
                    except Exception:
                        # A candidate the toolchain itself chokes on is
                        # a different bug; keep shrinking the original.
                        continue
                    case = candidate
                    accepted += 1
                    progress = True
                    break
                if progress or attempts >= max_attempts:
                    break
    if obs.enabled():
        sp.set(accepted=accepted, attempts=attempts)
        obs.count(
            "repro_verify_shrink_attempts_total", attempts,
            help="Shrink candidates evaluated.",
        )
    return case, accepted, attempts
