"""``repro.machines.synth`` -- first-class synthetic machine fleets.

Two generators behind one surface:

* :mod:`~repro.machines.synth.grammar` -- the seeded random-description
  grammar; arbitrary legal shapes, the differential fuzzer's case
  source.
* :mod:`~repro.machines.synth.families` -- *plausible* parameterized
  families (``vliw-narrow``, ``superscalar-wide``, ``cydra-like``, ...)
  varying issue width, unit counts, latencies, and option-tree shape,
  with deliberate transform fodder planted in every variant.

Variants are addressable by registry name --
``synth:<family>:<seed>:<index>`` resolves through
:func:`repro.machines.get_machine` like any hand-written machine, which
is what lets the batch pool, the server tier, and the sweep driver
(:mod:`repro.sweep`) treat a thousand-variant fleet exactly like the
paper's four processors.  Resolution is deterministic (same name, same
HMDES bytes, same content token in every process) and cached in a
bounded LRU here so unbounded fleets cannot leak memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.machines.base import Machine
from repro.machines.synth.families import (
    FAMILIES,
    FamilySpec,
    SYNTH_PREFIX,
    build_variant,
    describe_complexity,
    family_names,
    fleet_names,
    get_family,
    machine_name,
    parse_name,
)
from repro.machines.synth.grammar import (
    DEFAULT_GRAMMAR,
    FuzzGrammar,
    build_machine,
    generate_mdes,
)

#: Resolved-variant LRU bound.  Each entry holds a Machine plus its
#: parsed/compiled Mdes caches; 256 comfortably covers a sweep's warm
#: working set while keeping thousand-variant fleets bounded.
RESOLVE_CACHE_SIZE = 256

_cache: "OrderedDict[str, Machine]" = OrderedDict()
_cache_lock = threading.Lock()


def is_synth_name(name: str) -> bool:
    """Whether a registry name addresses a synthetic variant."""
    return name.startswith(SYNTH_PREFIX)


def resolve(name: str) -> Machine:
    """Build (or fetch) the variant a ``synth:`` name addresses.

    Raises KeyError for malformed names and unknown families, matching
    the machine registry's contract for unknown machines.
    """
    with _cache_lock:
        machine = _cache.get(name)
        if machine is not None:
            _cache.move_to_end(name)
            return machine
    family, seed, index = parse_name(name)
    machine = build_variant(family, seed, index)
    with _cache_lock:
        _cache[name] = machine
        _cache.move_to_end(name)
        while len(_cache) > RESOLVE_CACHE_SIZE:
            _cache.popitem(last=False)
    return machine


def resolve_cache_len() -> int:
    """Resident resolved variants (tests and ops dashboards)."""
    with _cache_lock:
        return len(_cache)


def clear_resolve_cache() -> None:
    """Drop every resolved variant (tests)."""
    with _cache_lock:
        _cache.clear()


__all__ = [
    "DEFAULT_GRAMMAR",
    "FAMILIES",
    "FamilySpec",
    "FuzzGrammar",
    "RESOLVE_CACHE_SIZE",
    "SYNTH_PREFIX",
    "build_machine",
    "build_variant",
    "clear_resolve_cache",
    "describe_complexity",
    "family_names",
    "fleet_names",
    "generate_mdes",
    "get_family",
    "is_synth_name",
    "machine_name",
    "parse_name",
    "resolve",
    "resolve_cache_len",
]
