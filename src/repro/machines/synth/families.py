"""Structured synthetic machine families.

Where :mod:`repro.machines.synth.grammar` draws arbitrary legal
descriptions, this module draws *plausible* ones: parameterized
processor families in the mold of the paper's four hand-written
machines.  A :class:`FamilySpec` bounds the draw -- issue width, unit
pool sizes per kind, latency ranges, option-tree shape (AND/OR
dimensions vs. flat cross-product OR-trees), tree sharing, wrap mode --
and ``build_variant(spec, seed, index)`` samples one concrete machine
from those bounds under a deterministic stream, so variant ``i`` of a
seeded fleet is reproducible forever from its name alone.

The structure mirrors :mod:`repro.machines.vliw`: one *issue* OR-tree
(slot choice) shared by every class, per-kind unit OR-trees, and an
optional writeback-bus dimension, combined as AND/OR-trees whose
dimensions reserve disjoint resource groups -- the translator's
sibling-disjointness invariant holds by construction.  Flat families
(``superscalar-*``) instead enumerate the slot x unit cross product as
one OR-tree per class, the shape the paper's Pentium description has.

Every family deliberately plants transform fodder: a duplicated issue
option (redundancy elimination, the Table 8 story), an occasionally
dominated option (dominated-option removal), shuffled usage lists
(usage sorting), and an unused tree (dead-code removal) -- so a sweep's
per-variant ``options_delta`` columns are non-trivial across the whole
fleet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.mdes import Mdes, OperationClass
from repro.core.resource import Resource, ResourceTable
from repro.core.tables import AndOrTree, Constraint, OrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.hmdes.writer import write_mdes
from repro.machines.base import (
    KIND_BRANCH,
    KIND_FP,
    KIND_INT,
    KIND_LOAD,
    KIND_STORE,
    Machine,
    OpcodeSpec,
)
from repro.machines.synth.grammar import (
    DEFAULT_GRAMMAR,
    FuzzGrammar,
    build_machine as _grammar_build_machine,
    generate_mdes as _grammar_generate_mdes,
)

#: Registry-visible name prefix; ``synth:<family>:<seed>:<index>``.
SYNTH_PREFIX = "synth:"

#: Seed-stream namespace (bumping it would re-roll every fleet).
_STREAM = "repro.machines.synth"


@dataclass(frozen=True)
class FamilySpec:
    """Bounds one structured family's draw.

    ``(lo, hi)`` pairs are inclusive ranges sampled per variant.  A
    ``structure`` of ``"andor"`` builds one AND/OR dimension per
    resource group; ``"flat"`` enumerates the slot x unit cross
    product as flat OR-trees; ``"grammar"`` delegates to the
    unstructured :class:`~repro.machines.synth.grammar.FuzzGrammar`
    (the differential fuzzer's shapes, under the family namespace).
    """

    name: str
    description: str
    structure: str = "andor"
    issue_width: Tuple[int, int] = (2, 4)
    int_units: Tuple[int, int] = (1, 2)
    mem_units: Tuple[int, int] = (1, 1)
    fp_units: Tuple[int, int] = (0, 0)
    wb_buses: Tuple[int, int] = (0, 0)
    int_latency: Tuple[int, int] = (1, 2)
    mem_latency: Tuple[int, int] = (2, 3)
    fp_latency: Tuple[int, int] = (2, 4)
    branch_latency: int = 1
    early_read_probability: float = 0.0
    fp_blocking_probability: float = 0.0
    redundant_option_probability: float = 0.5
    dominated_option_probability: float = 0.35
    dead_tree_probability: float = 0.4
    extra_opcode_probability: float = 0.3
    max_flat_options: int = 12
    wrap: bool = False
    grammar: Optional[FuzzGrammar] = None
    block_size_range: Tuple[int, int] = (4, 12)
    flow_probability: float = 0.55

    def validate(self) -> None:
        if self.structure not in ("andor", "flat", "grammar"):
            raise ValueError(
                f"family {self.name!r}: unknown structure "
                f"{self.structure!r}"
            )
        for label, (lo, hi) in (
            ("issue_width", self.issue_width),
            ("int_units", self.int_units),
            ("mem_units", self.mem_units),
            ("fp_units", self.fp_units),
            ("wb_buses", self.wb_buses),
        ):
            if lo > hi or lo < 0:
                raise ValueError(
                    f"family {self.name!r}: bad {label} range ({lo}, {hi})"
                )


#: The named presets.  Ordered narrow -> wide -> exotic so listings read
#: like the paper's machine tables.
FAMILIES: Dict[str, FamilySpec] = {}


def _register(spec: FamilySpec) -> FamilySpec:
    spec.validate()
    FAMILIES[spec.name] = spec
    return spec


_register(FamilySpec(
    name="vliw-narrow",
    description="2-3 issue VLIW, AND/OR dimensions, short latencies",
    structure="andor",
    issue_width=(2, 3),
    int_units=(1, 2),
    mem_units=(1, 1),
    wb_buses=(0, 2),
))

_register(FamilySpec(
    name="vliw-wide",
    description="6-8 issue VLIW with FP pipes and writeback buses",
    structure="andor",
    issue_width=(6, 8),
    int_units=(2, 4),
    mem_units=(1, 2),
    fp_units=(1, 2),
    wb_buses=(2, 3),
    fp_latency=(2, 5),
))

_register(FamilySpec(
    name="superscalar-narrow",
    description="Pentium-shaped 2-issue pairing rules, flat OR-trees",
    structure="flat",
    issue_width=(2, 2),
    int_units=(1, 2),
    mem_units=(1, 1),
    int_latency=(1, 1),
    mem_latency=(1, 3),
    wrap=True,
))

_register(FamilySpec(
    name="superscalar-wide",
    description="4-6 issue superscalar, flat slot x unit cross products",
    structure="flat",
    issue_width=(4, 6),
    int_units=(2, 3),
    mem_units=(1, 2),
    fp_units=(0, 1),
    mem_latency=(2, 3),
    wrap=True,
))

_register(FamilySpec(
    name="cydra-like",
    description="Cydra-shaped wide VLIW: early reads, blocking FP pipes",
    structure="andor",
    issue_width=(4, 6),
    int_units=(2, 3),
    mem_units=(1, 2),
    fp_units=(1, 2),
    wb_buses=(1, 2),
    int_latency=(1, 2),
    mem_latency=(3, 5),
    fp_latency=(3, 6),
    early_read_probability=0.6,
    fp_blocking_probability=0.7,
))

_register(FamilySpec(
    name="fuzz-small",
    description="unstructured grammar draws (the differential fuzzer's)",
    structure="grammar",
    grammar=DEFAULT_GRAMMAR,
))


def family_names() -> Tuple[str, ...]:
    """Registered family preset names, in registration order."""
    return tuple(FAMILIES)


def get_family(name: str) -> FamilySpec:
    """Look up a preset; raises KeyError with the known names."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown synth family {name!r}; "
            f"available: {', '.join(FAMILIES)}"
        ) from None


# ----------------------------------------------------------------------
# Naming
# ----------------------------------------------------------------------


def machine_name(family: str, seed: int, index: int) -> str:
    """The registry name of one variant: ``synth:<family>:<seed>:<i>``."""
    return f"{SYNTH_PREFIX}{family}:{seed}:{index}"


def parse_name(name: str) -> Tuple[str, int, int]:
    """Split a ``synth:`` name; raises KeyError on malformed input.

    KeyError (not ValueError) so callers see the same exception type
    the machine registry raises for unknown names.
    """
    if not name.startswith(SYNTH_PREFIX):
        raise KeyError(f"not a synth machine name: {name!r}")
    parts = name[len(SYNTH_PREFIX):].rsplit(":", 2)
    if len(parts) != 3:
        raise KeyError(
            f"malformed synth name {name!r}; expected "
            "synth:<family>:<seed>:<index>"
        )
    family, seed_text, index_text = parts
    try:
        seed, index = int(seed_text), int(index_text)
    except ValueError:
        raise KeyError(
            f"malformed synth name {name!r}; seed and index must be "
            "integers"
        ) from None
    if index < 0:
        raise KeyError(f"synth index must be >= 0: {name!r}")
    return family, seed, index


def _mdes_name(family: str, seed: int, index: int) -> str:
    """The HMDES-identifier form of a variant name (no ``:`` / ``-``)."""
    safe = family.replace("-", "_")
    return f"Synth_{safe}_{seed}_{index}"


# ----------------------------------------------------------------------
# Structured generation
# ----------------------------------------------------------------------


def _issue_options(
    rng: random.Random, slots: List[Resource], spec: FamilySpec
) -> List[ReservationTable]:
    options = [
        ReservationTable((ResourceUsage(0, slot),)) for slot in slots
    ]
    if rng.random() < spec.redundant_option_probability:
        # A duplicated option: the PA7100's Table 8 memory-op bug,
        # reproduced on purpose so redundancy elimination has work.
        options.append(options[rng.randrange(len(options))])
    rng.shuffle(options)
    return options


def _unit_tree(
    rng: random.Random,
    units: List[Resource],
    busy: int,
    spec: FamilySpec,
) -> OrTree:
    """One execution-unit dimension: pick a unit, hold it ``busy`` cycles.

    Usage lists are emitted latest-cycle-first so the zero-first
    usage-sort transform always has fodder on multi-cycle units.
    """
    options = [
        ReservationTable(tuple(
            ResourceUsage(time, unit)
            for time in range(busy - 1, -1, -1)
        ))
        for unit in units
    ]
    if len(units) >= 2 and rng.random() < spec.dominated_option_probability:
        # A strict superset of option 0: dominated-option-removal fodder.
        extra = units[rng.randrange(1, len(units))]
        first = options[0]
        options.append(ReservationTable(
            first.usages + (ResourceUsage(0, extra),)
        ))
    rng.shuffle(options)
    return OrTree(tuple(options))


def _flat_class_tree(
    rng: random.Random,
    slots: List[Resource],
    units: List[Resource],
    busy: int,
    spec: FamilySpec,
) -> OrTree:
    """Flat slot x unit cross product, capped and shuffled."""
    options: List[ReservationTable] = []
    for slot in slots:
        for unit in units:
            usages = [ResourceUsage(0, slot)]
            usages.extend(
                ResourceUsage(time, unit)
                for time in range(busy - 1, -1, -1)
            )
            options.append(ReservationTable(tuple(usages)))
    rng.shuffle(options)
    options = options[: spec.max_flat_options]
    if rng.random() < spec.redundant_option_probability:
        options.append(options[rng.randrange(len(options))])
    if rng.random() < spec.dominated_option_probability:
        first = options[0]
        spare = rng.choice(units)
        options.append(ReservationTable(
            first.usages + (ResourceUsage(1, spare),)
        ))
    return OrTree(tuple(options))


def _draw(rng: random.Random, bounds: Tuple[int, int]) -> int:
    return rng.randint(bounds[0], bounds[1])


def _structured_mdes(
    rng: random.Random, name: str, spec: FamilySpec
) -> Tuple[Mdes, Dict[str, str]]:
    """One structured draw; returns (mdes, opcode -> kind map)."""
    width = _draw(rng, spec.issue_width)
    n_int = max(1, _draw(rng, spec.int_units))
    n_mem = max(1, _draw(rng, spec.mem_units))
    n_fp = _draw(rng, spec.fp_units)
    n_wb = _draw(rng, spec.wb_buses) if spec.structure == "andor" else 0

    resources = ResourceTable()
    slots = resources.declare_many([f"Slot{i}" for i in range(width)])
    ints = resources.declare_many([f"IALU{i}" for i in range(n_int)])
    mems = resources.declare_many([f"MEM{i}" for i in range(n_mem)])
    fps = resources.declare_many([f"FPU{i}" for i in range(n_fp)])
    wbs = resources.declare_many([f"WB{i}" for i in range(n_wb)])
    branch_unit = resources.declare_many(["BRU"])

    int_lat = _draw(rng, spec.int_latency)
    mem_lat = _draw(rng, spec.mem_latency)
    fp_lat = _draw(rng, spec.fp_latency)
    fp_busy = (
        fp_lat if rng.random() < spec.fp_blocking_probability else 1
    )
    read = -1 if rng.random() < spec.early_read_probability else 0

    def constraint(units: List[Resource], busy: int) -> Constraint:
        if spec.structure == "flat":
            return _flat_class_tree(rng, slots, units, busy, spec)
        issue = OrTree(tuple(_issue_options(rng, slots, spec)))
        dims: List[OrTree] = [issue, _unit_tree(rng, units, busy, spec)]
        if wbs:
            dims.append(OrTree(tuple(
                ReservationTable((ResourceUsage(1, wb),)) for wb in wbs
            )))
        return AndOrTree(tuple(dims))

    op_classes: Dict[str, OperationClass] = {
        "IntOp": OperationClass(
            name="IntOp", constraint=constraint(ints, 1),
            latency=int_lat, read_time=read,
        ),
        "MemLoad": OperationClass(
            name="MemLoad", constraint=constraint(mems, 1),
            latency=mem_lat, read_time=read,
        ),
        "MemStore": OperationClass(
            name="MemStore", constraint=constraint(mems, 1),
            latency=1, read_time=read,
        ),
        "Branch": OperationClass(
            name="Branch", constraint=constraint(branch_unit, 1),
            latency=spec.branch_latency, read_time=0,
        ),
    }
    kinds = {
        "IADD": KIND_INT, "LD": KIND_LOAD, "ST": KIND_STORE,
        "BR": KIND_BRANCH,
    }
    opcode_map = {
        "IADD": "IntOp", "LD": "MemLoad", "ST": "MemStore",
        "BR": "Branch",
    }
    if fps:
        op_classes["FpOp"] = OperationClass(
            name="FpOp", constraint=constraint(fps, fp_busy),
            latency=fp_lat, read_time=read,
        )
        opcode_map["FADD"] = "FpOp"
        kinds["FADD"] = KIND_FP
    extras = {"IMUL": "IntOp", "LDX": "MemLoad", "FMUL": "FpOp"}
    for opcode, class_name in extras.items():
        if class_name in op_classes and (
            rng.random() < spec.extra_opcode_probability
        ):
            opcode_map[opcode] = class_name
            kinds[opcode] = kinds[
                {"IntOp": "IADD", "MemLoad": "LD", "FpOp": "FADD"}[
                    class_name
                ]
            ]

    unused: Dict[str, Constraint] = {}
    if rng.random() < spec.dead_tree_probability:
        unused["OT_dead"] = OrTree(tuple(
            ReservationTable((ResourceUsage(0, slot),)) for slot in slots
        ))

    mdes = Mdes(
        name=name,
        resources=resources,
        op_classes=op_classes,
        opcode_map=opcode_map,
        unused_trees=unused,
    )
    mdes.validate()
    return mdes, kinds


def _structured_profile(
    rng: random.Random, mdes: Mdes, kinds: Dict[str, str]
) -> Tuple[OpcodeSpec, ...]:
    specs: List[OpcodeSpec] = []
    for opcode in mdes.opcode_map:
        kind = kinds[opcode]
        if kind == KIND_BRANCH:
            specs.append(OpcodeSpec(
                opcode, 1.0, src_choices=(1,), has_dest=False, kind=kind,
            ))
        elif kind == KIND_STORE:
            specs.append(OpcodeSpec(
                opcode, rng.uniform(0.6, 1.2), src_choices=(2,),
                has_dest=False, kind=kind,
            ))
        else:
            weight = {
                KIND_INT: rng.uniform(2.0, 4.0),
                KIND_LOAD: rng.uniform(1.0, 2.0),
                KIND_FP: rng.uniform(0.4, 1.2),
            }.get(kind, 1.0)
            specs.append(OpcodeSpec(
                opcode, weight, src_choices=(1, 2), has_dest=True,
                kind=kind,
            ))
    return tuple(specs)


# ----------------------------------------------------------------------
# Variant construction
# ----------------------------------------------------------------------


def build_variant(family: str, seed: int, index: int) -> Machine:
    """Deterministically build variant ``index`` of a seeded fleet.

    The same ``(family, seed, index)`` triple always yields a machine
    with byte-identical HMDES source, so content tokens match across
    processes -- which is what lets the server and the description
    cache rebuild or find a synth machine from its registry name alone.
    """
    spec = get_family(family)
    rng = random.Random(f"{_STREAM}:{family}:{seed}:{index}")
    public = machine_name(family, seed, index)
    internal = _mdes_name(family, seed, index)

    if spec.structure == "grammar":
        grammar = spec.grammar or DEFAULT_GRAMMAR
        mdes = _grammar_generate_mdes(rng, internal, grammar)
        machine = _grammar_build_machine(mdes, rng, grammar)
        machine.name = public
        return machine

    mdes, kinds = _structured_mdes(rng, internal, spec)
    opcode_map = dict(mdes.opcode_map)

    def classify(op, cascaded: bool) -> str:
        return opcode_map[op.opcode]

    return Machine(
        name=public,
        hmdes_source=write_mdes(mdes),
        opcode_profile=_structured_profile(rng, mdes, kinds),
        classifier=classify,
        scheduling_mode="prepass",
        block_size_range=spec.block_size_range,
        flow_probability=spec.flow_probability,
        wrap_or_trees=spec.wrap,
    )


def fleet_names(family: str, seed: int, count: int) -> Tuple[str, ...]:
    """The registry names of one seeded fleet, in index order."""
    get_family(family)
    return tuple(machine_name(family, seed, i) for i in range(count))


def describe_complexity(machine: Machine) -> Dict[str, int]:
    """Size axes of one description, for effectiveness-vs-complexity.

    The stored/flat option and usage counts are the paper's Table 6
    size columns, measured on the description *as written* (stage 0) --
    the x-axis a sweep plots transform effect columns against.
    """
    mdes = machine.build()
    options = 0
    usages = 0
    for tree in mdes.or_trees():
        for option in tree.options:
            options += 1
            usages += len(option.usages)
    return {
        "resources": len(mdes.resources),
        "classes": len(mdes.op_classes),
        "opcodes": len(mdes.opcode_map),
        "stored_options": options,
        "stored_usages": usages,
        "flat_options": mdes.expanded().stored_option_count(),
    }


__all__ = [
    "FAMILIES",
    "FamilySpec",
    "SYNTH_PREFIX",
    "build_variant",
    "describe_complexity",
    "family_names",
    "fleet_names",
    "get_family",
    "machine_name",
    "parse_name",
]
