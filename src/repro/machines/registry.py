"""Machine registry: look up machines by name.

Two name spaces resolve here: the hand-written processors (the paper's
four plus retargeting demos), and synthetic fleet variants addressed as
``synth:<family>:<seed>:<index>`` (see :mod:`repro.machines.synth`).
Synth resolution is deterministic -- the same name builds byte-identical
HMDES source in any process -- so the server, the sweep and the disk
cache can rebuild or find any variant from its name alone, exactly as
they do for the built-ins.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.machines.base import Machine

#: Canonical machine names, in the order the paper's tables list them.
MACHINE_NAMES = ("PA7100", "Pentium", "SuperSPARC", "K5")

#: Additional targets beyond the paper's evaluation (retargeting demos).
EXTRA_MACHINE_NAMES = ("Cydra_lite",)

_BUILDERS: Dict[str, Callable[[], Machine]] = {}
_CACHE: Dict[str, Machine] = {}


def _builders() -> Dict[str, Callable[[], Machine]]:
    if not _BUILDERS:
        from repro.machines import amdk5, pa7100, pentium, supersparc, vliw

        _BUILDERS.update(
            {
                "PA7100": pa7100.build_machine,
                "Pentium": pentium.build_machine,
                "SuperSPARC": supersparc.build_machine,
                "K5": amdk5.build_machine,
                "Cydra_lite": vliw.build_machine,
            }
        )
    return _BUILDERS


def get_machine(name: str) -> Machine:
    """Return the named machine (cached); raises KeyError for unknowns.

    ``synth:`` names are delegated to the synthetic-fleet resolver,
    which keeps its own bounded LRU (unbounded fleets must not pin
    memory the way the small built-in cache safely can).
    """
    if name.startswith("synth:"):
        from repro.machines import synth

        return synth.resolve(name)
    builders = _builders()
    if name not in builders:
        available = ", ".join(MACHINE_NAMES + EXTRA_MACHINE_NAMES)
        raise KeyError(
            f"unknown machine {name!r}; available: {available}, "
            "or synth:<family>:<seed>:<index>"
        )
    if name not in _CACHE:
        _CACHE[name] = builders[name]()
    return _CACHE[name]
