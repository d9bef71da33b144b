"""LMDES files: the serialized low-level representation.

The paper's tooling translates the high-level description once and ships
a low-level file the compiler loads quickly, with all sharing "entirely
specified by the external MDES representation, in order to minimize the
time required to load the MDES into memory" (section 4).  This module is
that file format: JSON with explicit tables of unique options and
OR-trees, referenced by index, so shared structure loads as shared
objects without any interning pass.

``save_lmdes`` serializes a compiled description; ``load_lmdes``
reconstructs an equivalent :class:`CompiledMdes` (including a usable
in-memory :class:`Mdes`).  Check behaviour, sizes, and sharing topology
round-trip exactly; within one merged bit-vector check word the original
textual usage order is canonicalized to bit order.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.core.mdes import Bypass, Mdes, OperationClass
from repro.core.resource import ResourceTable
from repro.core.tables import AndOrTree, OrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.errors import MdesError
from repro.lowlevel.compiled import (
    CompiledAndOrTree,
    CompiledMdes,
    CompiledOrTree,
    compile_mdes,
)

#: Format version written into every file.
LMDES_VERSION = 1


def save_lmdes(compiled: CompiledMdes) -> str:
    """Serialize a compiled description to LMDES JSON text."""
    source = compiled.source
    option_index: Dict[int, int] = {}
    options: List[List[Tuple[int, int]]] = []
    or_index: Dict[int, int] = {}
    or_trees: List[List[int]] = []

    def intern_option(option) -> int:
        key = id(option)
        if key not in option_index:
            option_index[key] = len(options)
            options.append([list(pair) for pair in option.checks])
        return option_index[key]

    def intern_or(tree) -> int:
        key = id(tree)
        if key not in or_index:
            members = [intern_option(option) for option in tree.options]
            or_index[key] = len(or_trees)
            or_trees.append(members)
        return or_index[key]

    andor_index: Dict[int, int] = {}
    andor_trees: List[List[int]] = []

    def intern_andor(tree) -> int:
        key = id(tree)
        if key not in andor_index:
            members = [intern_or(child) for child in tree.or_trees]
            andor_index[key] = len(andor_trees)
            andor_trees.append(members)
        return andor_index[key]

    def encode_constraint(constraint) -> dict:
        if isinstance(constraint, CompiledAndOrTree):
            return {"kind": "andor", "tree": intern_andor(constraint)}
        return {"kind": "or", "tree": intern_or(constraint)}

    constraints = {
        class_name: encode_constraint(constraint)
        for class_name, constraint in compiled.constraints.items()
    }
    # Dead information is serialized too: it occupies compiler memory
    # until dead-code removal deletes it (section 5), and the size
    # tables depend on that.
    unused = {
        tree_name: encode_constraint(constraint)
        for tree_name, constraint in compiled.unused.items()
    }

    document = {
        "format": "lmdes",
        "version": LMDES_VERSION,
        "machine": source.name,
        "bitvector": compiled.bitvector,
        "resources": source.resources.names,
        "options": options,
        "or_trees": or_trees,
        "andor_trees": andor_trees,
        "constraints": constraints,
        "unused": unused,
        "latencies": {
            name: op_class.latency
            for name, op_class in source.op_classes.items()
        },
        "read_times": {
            name: op_class.read_time
            for name, op_class in source.op_classes.items()
            if op_class.read_time
        },
        "bypasses": [
            [producer, consumer, bypass.latency, bypass.substitute_class]
            for (producer, consumer), bypass in source.bypasses.items()
        ],
        "opcode_map": dict(source.opcode_map),
    }
    return json.dumps(document, indent=1)


#: What decoding a document that is not a well-formed LMDES raises.
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def load_lmdes(text: str) -> CompiledMdes:
    """Load LMDES JSON text into a compiled description.

    Raises :class:`MdesError` for any text that is not a well-formed
    LMDES document of :data:`LMDES_VERSION`.
    """
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise MdesError(f"not an LMDES document: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != "lmdes":
        raise MdesError("not an LMDES document")
    if document.get("version") != LMDES_VERSION:
        raise MdesError(
            f"unsupported LMDES version {document.get('version')!r}"
        )
    try:
        return _decode(document)
    except _MALFORMED as exc:
        raise MdesError(
            f"not an LMDES document: {type(exc).__name__}: {exc}"
        ) from None


def _decode(document: dict) -> CompiledMdes:
    resources = ResourceTable()
    by_bit = {}
    for name in document["resources"]:
        resource = resources.declare(name)
        by_bit[resource.index] = resource

    def decode_option(pairs) -> ReservationTable:
        usages = []
        for time, mask in pairs:
            bit = 0
            while mask:
                if mask & 1:
                    usages.append(ResourceUsage(time, by_bit[bit]))
                mask >>= 1
                bit += 1
        return ReservationTable(tuple(usages))

    decoded_options = [
        decode_option(pairs) for pairs in document["options"]
    ]
    decoded_trees = [
        OrTree(tuple(decoded_options[index] for index in members))
        for members in document["or_trees"]
    ]

    decoded_andor = [
        AndOrTree(tuple(decoded_trees[index] for index in members))
        for members in document.get("andor_trees", [])
    ]

    latencies = document["latencies"]
    read_times = document.get("read_times", {})
    op_classes: Dict[str, OperationClass] = {}
    for class_name, spec in document["constraints"].items():
        constraint = (
            decoded_andor[spec["tree"]]
            if spec["kind"] == "andor"
            else decoded_trees[spec["tree"]]
        )
        op_classes[class_name] = OperationClass(
            class_name,
            constraint,
            latencies[class_name],
            read_times.get(class_name, 0),
        )

    def decode_constraint(spec):
        if spec["kind"] == "andor":
            return decoded_andor[spec["tree"]]
        return decoded_trees[spec["tree"]]

    mdes = Mdes(
        name=document["machine"],
        resources=resources,
        op_classes=op_classes,
        opcode_map=dict(document["opcode_map"]),
        unused_trees={
            tree_name: decode_constraint(spec)
            for tree_name, spec in document.get("unused", {}).items()
        },
        bypasses={
            (producer, consumer): Bypass(latency, substitute)
            for producer, consumer, latency, substitute
            in document.get("bypasses", [])
        },
    )
    mdes.validate()
    return compile_mdes(mdes, bitvector=document["bitvector"])
