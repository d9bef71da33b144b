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
source share entries -- including across processes, through the optional
persistent disk tier -- while ad-hoc test machines without source text
get identity tokens and never alias anything.

The disk tier sits below the LRU: a compiled-description miss first
tries ``load_lmdes`` on the cache directory's artifact for the
configuration and only then rebuilds (and re-publishes) it.  Staged
:class:`Mdes` trees are memory-only; the disk format is the compiled
low-level form, exactly as in the paper's shipped-LMDES workflow.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro import obs
from repro.core.mdes import Mdes
from repro.engine.diskcache import (
    DiskDescriptionCache,
    description_digest,
    is_persistent_token,
    machine_content_token,
)
from repro.lowlevel.compiled import CompiledMdes, compile_mdes
from repro.transforms.pipeline import staged_mdes


@dataclass
class CacheStats:
    """Hit/miss accounting for the description cache.

    ``hits``/``misses``/``evictions`` count the in-memory LRU tier;
    the ``disk_*`` fields count the persistent tier underneath it
    (consulted only on LRU misses of compiled descriptions).

    Snapshot semantics -- identical for both tiers:

    * :meth:`copy` freezes every counter, memory *and* disk, so
      ``stats.since(earlier)`` yields the activity (including
      ``disk_*``) between the snapshot and now.
    * :meth:`reset` zeroes every counter in place, including the disk
      tier's.  It does **not** touch the on-disk artifacts themselves:
      after a reset a warm configuration still disk-hits (and counts a
      fresh ``disk_hits``), because reset is bookkeeping, not
      invalidation.  Delete the cache directory to invalidate entries.
    * The disk counters move only on LRU misses of *compiled*
      descriptions for machines with hashable source text; staged
      ``Mdes`` lookups never consult the disk tier, so ``since()``
      windows over mdes-only activity show zero ``disk_*`` deltas.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_stores: int = 0
    disk_quarantined: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another stats object into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.disk_hits += other.disk_hits
        self.disk_misses += other.disk_misses
        self.disk_stores += other.disk_stores
        self.disk_quarantined += other.disk_quarantined

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
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            disk_hits=self.disk_hits,
            disk_misses=self.disk_misses,
            disk_stores=self.disk_stores,
            disk_quarantined=self.disk_quarantined,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The activity between an earlier :meth:`copy` and now."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            disk_hits=self.disk_hits - earlier.disk_hits,
            disk_misses=self.disk_misses - earlier.disk_misses,
            disk_stores=self.disk_stores - earlier.disk_stores,
            disk_quarantined=(
                self.disk_quarantined - earlier.disk_quarantined
            ),
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
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_stores = 0
        self.disk_quarantined = 0


class DescriptionCache:
    """LRU map from (description content, rep, stage, options) to results.

    ``disk`` attaches a persistent :class:`DiskDescriptionCache` tier
    below the LRU for compiled descriptions.
    """

    def __init__(
        self,
        maxsize: int = 64,
        disk: Optional[DiskDescriptionCache] = None,
        name: str = "default",
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1: {maxsize}")
        self.maxsize = maxsize
        self.disk = disk
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
        """The staged description compiled for constraint checking.

        With a disk tier attached, an LRU miss first tries the on-disk
        LMDES artifact for this exact configuration; only when that too
        misses (or is quarantined) is the transformation pipeline re-run
        -- and the rebuilt artifact is published for the next process.
        """
        token = machine_content_token(machine)
        key = ("lmdes", machine.name, token, rep, stage, bitvector, reduce)
        persistent = (
            self.disk is not None and is_persistent_token(token)
        )
        digest = (
            description_digest(token, rep, stage, bitvector, reduce)
            if persistent
            else ""
        )

        def build() -> CompiledMdes:
            if persistent:
                loaded = self.disk.load(machine.name, digest, self.stats)
                if loaded is not None:
                    return loaded
            value = compile_mdes(
                self.mdes(machine, rep, stage, reduce), bitvector=bitvector
            )
            if persistent:
                self.disk.store(machine.name, digest, value, self.stats)
            return value

        return self._lookup(key, build)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry and zero the counters in place.

        On-disk artifacts survive a clear -- they are the warm-restart
        tier; delete the cache directory to invalidate them.
        """
        self._entries.clear()
        self.stats.reset()


#: The process-wide cache every registry/analysis path routes through.
GLOBAL_CACHE = DescriptionCache(name="global")
