"""Seeded grammar-driven generator of random-but-valid HMDES machines.

This is the unstructured half of :mod:`repro.machines.synth`: a small
grammar that draws *structurally diverse* descriptions (flat OR-trees
and AND/OR-trees, multi-cycle and negative usage times, shared and
unused trees, varied latencies and read times) that are always *legal*
(section 2's reservation-table model plus the library's
sibling-disjointness invariant).  Everything is drawn under one
``random.Random`` stream, so a description is fully reproducible from
its seed.

The generated :class:`~repro.machines.base.Machine` carries the
description as HMDES *source text* produced by the writer -- every
generated machine therefore also exercises the writer -> parser ->
translator round-trip before a single schedule is attempted.

The differential fuzzer (:mod:`repro.verify.fuzz`) draws its cases
from this grammar.  The structured *family* presets layered on top
live in :mod:`repro.machines.synth.families`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.mdes import Mdes, OperationClass
from repro.core.resource import Resource, ResourceTable
from repro.core.tables import AndOrTree, Constraint, OrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.hmdes.writer import write_mdes
from repro.machines.base import (
    KIND_BRANCH,
    KIND_INT,
    KIND_LOAD,
    KIND_STORE,
    Machine,
    OpcodeSpec,
)


@dataclass(frozen=True)
class FuzzGrammar:
    """Bounds of the description grammar.

    The defaults keep descriptions small enough that one case schedules
    in milliseconds across the whole backend x stage matrix, while still
    covering every structural feature the transforms rewrite.
    """

    min_resources: int = 2
    max_resources: int = 6
    min_classes: int = 1
    max_classes: int = 3
    max_or_trees: int = 3          # AND/OR fan-out (sub-OR-trees)
    max_options: int = 3           # options per OR-tree
    max_usages: int = 3            # usages per option
    min_time: int = -1
    max_time: int = 3
    max_latency: int = 3
    andor_probability: float = 0.6
    early_read_probability: float = 0.15
    unused_tree_probability: float = 0.25
    extra_opcode_probability: float = 0.35
    min_block_ops: int = 24
    max_block_ops: int = 60


DEFAULT_GRAMMAR = FuzzGrammar()


def _random_option(
    rng: random.Random,
    pool: Sequence[Tuple[int, Resource]],
    grammar: FuzzGrammar,
) -> ReservationTable:
    count = rng.randint(1, min(grammar.max_usages, len(pool)))
    picks = rng.sample(list(pool), count)
    # Deliberately unsorted: the usage-sort transform must have work.
    return ReservationTable(
        tuple(ResourceUsage(time, resource) for time, resource in picks)
    )


def _random_or_tree(
    rng: random.Random,
    resources: Sequence[Resource],
    grammar: FuzzGrammar,
) -> OrTree:
    pool = [
        (time, resource)
        for resource in resources
        for time in range(grammar.min_time, grammar.max_time + 1)
    ]
    options = tuple(
        _random_option(rng, pool, grammar)
        for _ in range(rng.randint(1, grammar.max_options))
    )
    return OrTree(options)


def _random_constraint(
    rng: random.Random,
    resources: Sequence[Resource],
    grammar: FuzzGrammar,
) -> Constraint:
    if (
        len(resources) >= 2
        and rng.random() < grammar.andor_probability
    ):
        # Partition the resources among the sub-OR-trees so siblings can
        # never reserve the same (resource, time) pair -- the AND/OR
        # disjointness invariant the translator enforces.
        fan_out = rng.randint(2, min(grammar.max_or_trees, len(resources)))
        shuffled = list(resources)
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(shuffled)), fan_out - 1))
        groups = [
            shuffled[start:stop]
            for start, stop in zip([0] + cuts, cuts + [len(shuffled)])
        ]
        return AndOrTree(tuple(
            _random_or_tree(rng, group, grammar) for group in groups
        ))
    return _random_or_tree(rng, resources, grammar)


def generate_mdes(
    rng: random.Random, name: str, grammar: FuzzGrammar = DEFAULT_GRAMMAR
) -> Mdes:
    """Draw one legal machine description from the grammar."""
    resources = ResourceTable()
    declared = resources.declare_many([
        f"R{i}"
        for i in range(
            rng.randint(grammar.min_resources, grammar.max_resources)
        )
    ])

    op_classes: Dict[str, OperationClass] = {}
    opcode_map: Dict[str, str] = {}
    class_count = rng.randint(grammar.min_classes, grammar.max_classes)
    for i in range(class_count):
        class_name = f"C{i}"
        op_classes[class_name] = OperationClass(
            name=class_name,
            constraint=_random_constraint(rng, declared, grammar),
            latency=rng.randint(1, grammar.max_latency),
            read_time=(
                -1 if rng.random() < grammar.early_read_probability else 0
            ),
        )
        opcode_map[f"OP{i}"] = class_name
        if rng.random() < grammar.extra_opcode_probability:
            opcode_map[f"OP{i}X"] = class_name
    # Every workload needs a block terminator.
    opcode_map["BR"] = rng.choice(sorted(op_classes))

    unused: Dict[str, Constraint] = {}
    if rng.random() < grammar.unused_tree_probability:
        # Dead declarations: the section 5 dead-code-removal fodder.
        unused["OT_dead"] = _random_or_tree(rng, declared, grammar)

    mdes = Mdes(
        name=name,
        resources=resources,
        op_classes=op_classes,
        opcode_map=opcode_map,
        unused_trees=unused,
    )
    mdes.validate()
    return mdes


def _profile_for(
    rng: random.Random, mdes: Mdes
) -> Tuple[OpcodeSpec, ...]:
    specs: List[OpcodeSpec] = []
    for opcode in mdes.opcode_map:
        if opcode == "BR":
            specs.append(OpcodeSpec(
                "BR", 1.0, src_choices=(1,), has_dest=False,
                kind=KIND_BRANCH,
            ))
            continue
        kind = rng.choices(
            [KIND_INT, KIND_LOAD, KIND_STORE], weights=[6, 2, 1], k=1
        )[0]
        if kind == KIND_STORE:
            specs.append(OpcodeSpec(
                opcode, rng.uniform(0.5, 2.0), src_choices=(2,),
                has_dest=False, kind=kind,
            ))
        else:
            specs.append(OpcodeSpec(
                opcode, rng.uniform(0.5, 2.0), src_choices=(1, 2),
                has_dest=True, kind=kind,
            ))
    return tuple(specs)


def build_machine(
    mdes: Mdes,
    rng: random.Random,
    grammar: FuzzGrammar = DEFAULT_GRAMMAR,
    profile: Tuple[OpcodeSpec, ...] = None,
) -> Machine:
    """Wrap a generated description into a schedulable Machine.

    The machine's ``hmdes_source`` is the *written-out* form of
    ``mdes``, so ``machine.build()`` re-parses generator output through
    the production front end rather than trusting the in-memory trees.
    """
    opcode_map = dict(mdes.opcode_map)

    def classify(op, cascaded: bool) -> str:
        return opcode_map[op.opcode]

    return Machine(
        name=mdes.name,
        hmdes_source=write_mdes(mdes),
        opcode_profile=(
            profile if profile is not None else _profile_for(rng, mdes)
        ),
        classifier=classify,
        scheduling_mode="prepass",
        block_size_range=(3, 9),
        flow_probability=0.5,
    )


__all__ = [
    "DEFAULT_GRAMMAR",
    "FuzzGrammar",
    "build_machine",
    "generate_mdes",
]
