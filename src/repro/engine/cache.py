"""LRU cache of staged and compiled machine descriptions.

Benchmark and analysis drivers repeatedly ask for "machine M, staged
through transformation stage S, in representation R, compiled with
backend B's options" -- and before this cache every caller re-ran the
transformation pipeline and recompiled the HMDES from scratch.  The
cache keys that tuple, keeps the most recently used entries, and exposes
hit/miss counters so perf tests can assert the re-translation is gone.

Entries are immutable once built (transforms are functional, compiled
trees are frozen dataclasses), so sharing them across engines, suites,
and CLI invocations inside one process is safe.  Keys use a *content
hash* of the machine's description text (:func:`machine_content_token`),
not its object identity: two machine objects built from the same HMDES
source share entries, while ad-hoc test machines without source text
get identity tokens and never alias anything.

The cache lives in memory only.  The one persisted form of a compiled
description is the LMDES file ``repro compile`` writes
(:mod:`repro.lowlevel.serialize`), which ``schedule-batch --lmdes``
loads instead of re-deriving it -- the paper's shipped low-level file.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from repro import obs
from repro.core.mdes import Mdes
from repro.lowlevel.compiled import CompiledMdes, compile_mdes
from repro.transforms.pipeline import staged_mdes


def machine_content_token(machine) -> str:
    """A stable content identity for a machine description.

    Hashes the HMDES source text plus the name and the AND-wrap flag
    (both change what ``build_or``/``build_andor`` produce).  Objects
    without an ``hmdes_source`` string -- ad-hoc test doubles -- get an
    identity-based token, so they never alias a real machine.
    """
    source = getattr(machine, "hmdes_source", None)
    if not isinstance(source, str) or not source:
        return f"unhashed:{id(machine):x}"
    digest = hashlib.sha256()
    digest.update(
        f"{machine.name}|{bool(getattr(machine, 'wrap_or_trees', False))}|"
        .encode()
    )
    digest.update(source.encode())
    return "sha256:" + digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for the description cache.

    :meth:`copy` freezes the counters, so ``stats.since(earlier)``
    yields the activity between that snapshot and now; :meth:`reset`
    zeroes them in place.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another stats object into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions

    def __iadd__(self, other: "CacheStats") -> "CacheStats":
        self.merge(other)
        return self

    def __add__(self, other: "CacheStats") -> "CacheStats":
        result = self.copy()
        result.merge(other)
        return result

    def __radd__(self, other) -> "CacheStats":
        # Lets ``sum(stats_list)`` fold runs without a start value.
        if other == 0:
            return self.copy()
        return NotImplemented

    def copy(self) -> "CacheStats":
        """An independent copy (snapshot) of the counters."""
        return CacheStats(
            hits=self.hits, misses=self.misses, evictions=self.evictions,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The activity between an earlier :meth:`copy` and now."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )

    def reset(self) -> None:
        """Zero every counter *in place*.

        Callers hold references to a cache's stats object (engines,
        benchmarks, the batch service); rebinding a fresh object on
        clear would leave them silently observing stale counters.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class DescriptionCache:
    """LRU map from (description content, rep, stage, options) to results."""

    def __init__(self, maxsize: int = 64, name: str = "default") -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self.stats = CacheStats()
        # The stats object doubles as a registry view (weakly held), so
        # `repro stats` / Prometheus exposition see cache activity
        # without a second counting mechanism.
        obs.register_cache_stats(self.stats, cache=name)

    def _lookup(self, key: Tuple, build: Callable[[], Any]) -> Any:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            obs.count(
                "repro_cache_lookups_total",
                help="DescriptionCache lookups by outcome.",
                cache=self.name, outcome="hit",
            )
            return self._entries[key]
        self.stats.misses += 1
        obs.count(
            "repro_cache_lookups_total",
            help="DescriptionCache lookups by outcome.",
            cache=self.name, outcome="miss",
        )
        value = build()
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return value

    # ------------------------------------------------------------------
    # Public lookups
    # ------------------------------------------------------------------

    def mdes(
        self, machine, rep: str, stage: int, reduce: bool = False
    ) -> Mdes:
        """The machine's staged description in one representation.

        ``reduce`` additionally applies the Eichenberger-Davidson
        per-option usage reduction (flat descriptions only).
        """
        if rep not in ("or", "andor"):
            raise ValueError(f"rep must be 'or' or 'andor': {rep!r}")
        token = machine_content_token(machine)
        key = ("mdes", machine.name, token, rep, stage, reduce)

        def build() -> Mdes:
            base = (
                machine.build_or() if rep == "or" else machine.build_andor()
            )
            staged = staged_mdes(base, stage)
            if reduce:
                from repro.eichenberger import reduce_mdes_options

                staged = reduce_mdes_options(staged)
            return staged

        return self._lookup(key, build)

    def compiled(
        self,
        machine,
        rep: str,
        stage: int,
        bitvector: bool,
        reduce: bool = False,
    ) -> CompiledMdes:
        """The staged description compiled for constraint checking."""
        token = machine_content_token(machine)
        key = ("lmdes", machine.name, token, rep, stage, bitvector, reduce)
        return self._lookup(key, lambda: compile_mdes(
            self.mdes(machine, rep, stage, reduce), bitvector=bitvector
        ))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and zero the counters in place."""
        self._entries.clear()
        self.stats.reset()


#: The process-wide cache every registry/analysis path routes through.
GLOBAL_CACHE = DescriptionCache(name="global")
