"""Pluggable MDES query engines (the paper's fixed scheduler query
pattern, section 3, over interchangeable low-level representations).

Every constraint-check path of the reproduction -- scalar compiled
tables, bit-vector compiled tables, the finite-state automaton, and the
Eichenberger-Davidson reduced tables -- conforms to one
:class:`QueryEngine` protocol (``try_reserve`` / ``release`` /
``stats``), so all four schedulers (list, operation, modulo, cycle) run
against any backend and every backend emits the same
:class:`~repro.lowlevel.checker.CheckStats`.

Backends are looked up by name through a registry::

    from repro.engine import create_engine
    engine = create_engine("automata", get_machine("SuperSPARC"))
    schedule_workload(machine, None, blocks, engine=engine)

Compiled descriptions are memoized in an LRU
:class:`~repro.engine.cache.DescriptionCache`, keyed by (machine,
representation, transformation stage, compile options), so repeated
bench/analysis runs stop re-translating and re-compiling HMDES.
"""

from repro.engine.base import QueryEngine, Reservation
from repro.engine.cache import (
    CacheStats,
    DescriptionCache,
    GLOBAL_CACHE,
    machine_content_token,
)
from repro.engine.table import EichenbergerEngine, TableEngine
from repro.engine.automaton import AutomatonEngine
from repro.engine.registry import (
    EngineSpec,
    create_engine,
    engine_names,
    get_engine_spec,
    register_engine,
)

__all__ = [
    "AutomatonEngine",
    "CacheStats",
    "DescriptionCache",
    "EichenbergerEngine",
    "EngineSpec",
    "GLOBAL_CACHE",
    "QueryEngine",
    "Reservation",
    "TableEngine",
    "create_engine",
    "engine_names",
    "machine_content_token",
    "get_engine_spec",
    "register_engine",
]
