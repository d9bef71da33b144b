"""Low-level (compiled) MDES representation.

This subpackage is the "efficient use" half of the paper's two-tier model:

* :class:`~repro.lowlevel.bitvector.RUMap` -- the scheduler's resource
  usage map, one bit-vector word per cycle (section 6).
* :mod:`~repro.lowlevel.compiled` -- compilation of constraint trees into
  flat (time, mask) check lists, with structure sharing.
* :mod:`~repro.lowlevel.checker` -- the resource-constraint check/reserve
  algorithms for both representations, instrumented with the statistics
  the paper's tables report.
* :mod:`~repro.lowlevel.layout` -- the byte-level size model used for the
  memory-requirement tables.
* :mod:`~repro.lowlevel.packed` -- numpy-packed array mirrors of the
  compiled form and the RU map, for vectorized batch probes.
"""

from repro.lowlevel.bitvector import ModuloRUMap, RUMap
from repro.lowlevel.compiled import (
    CompiledAndOrTree,
    CompiledMdes,
    CompiledOption,
    CompiledOrTree,
    compile_mdes,
)
from repro.lowlevel.checker import CheckStats, ConstraintChecker
from repro.lowlevel.layout import LayoutModel, mdes_size_bytes
from repro.lowlevel.packed import (
    PACKED_WORD_BUDGET,
    ModuloPackedRUMap,
    PackedMdes,
    PackedRUMap,
    numpy_available,
    pack_mdes,
    packed_layout,
    packing_eligible,
)
from repro.lowlevel.query import MdesQuery

__all__ = [
    "CheckStats",
    "CompiledAndOrTree",
    "CompiledMdes",
    "CompiledOption",
    "CompiledOrTree",
    "ConstraintChecker",
    "LayoutModel",
    "MdesQuery",
    "ModuloPackedRUMap",
    "ModuloRUMap",
    "PACKED_WORD_BUDGET",
    "PackedMdes",
    "PackedRUMap",
    "RUMap",
    "compile_mdes",
    "mdes_size_bytes",
    "numpy_available",
    "pack_mdes",
    "packed_layout",
    "packing_eligible",
]
