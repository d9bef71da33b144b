"""Stats-object views: CheckStats/CacheStats published via the registry.

The paper's counters (:class:`~repro.lowlevel.checker.CheckStats`) and
the description cache's counters
(:class:`~repro.engine.cache.CacheStats`) predate the registry and are
incremented on hot paths where even a dict lookup per event would show
up in the benchmarks.  Rather than rewriting those increments, the
objects *register as views*: the registry pulls their current values at
collection time, so every exporter sees them while the increment path
stays a plain ``int += 1``.

Registrations hold weak references.  An engine or a per-worker cache
that goes away simply stops contributing samples; nothing unregisters
explicitly.  Multiple live objects with the same labels aggregate by
summation, which is exactly the fold semantics their ``merge`` methods
define.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, List, Tuple

from repro.obs.registry import MetricsRegistry, Sample, _label_key

#: CheckStats attribute -> (metric name, help).
_CHECK_FIELDS = (
    ("attempts", "repro_check_attempts_total",
     "Scheduling attempts (one per (operation, cycle) trial)."),
    ("successes", "repro_check_successes_total",
     "Attempts that found every required resource."),
    ("options_checked", "repro_check_options_total",
     "Reservation table options examined."),
    ("resource_checks", "repro_check_resource_checks_total",
     "Individual (time, mask) availability tests."),
)

#: CacheStats attribute -> (metric name, extra labels, help).
_CACHE_FIELDS = (
    ("hits", "repro_cache_requests_total",
     (("outcome", "hit"), ("tier", "memory")),
     "Description-cache lookups by tier and outcome."),
    ("misses", "repro_cache_requests_total",
     (("outcome", "miss"), ("tier", "memory")),
     "Description-cache lookups by tier and outcome."),
    ("evictions", "repro_cache_evictions_total", (),
     "LRU entries evicted from the in-memory tier."),
)


class StatsViews:
    """The weakly-referenced stats objects one registry exposes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._check: List[Tuple[weakref.ref, Tuple[Tuple[str, str], ...]]] = []
        self._cache: List[Tuple[weakref.ref, Tuple[Tuple[str, str], ...]]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _add(self, bucket, stats, labels: Dict[str, str]) -> None:
        key = _label_key(labels)
        with self._lock:
            bucket[:] = [(ref, lab) for ref, lab in bucket if ref() is not None]
            for ref, lab in bucket:
                if ref() is stats and lab == key:
                    return  # idempotent re-registration
            bucket.append((weakref.ref(stats), key))

    def add_check_stats(self, stats, **labels: str) -> None:
        self._add(self._check, stats, labels)

    def add_cache_stats(self, stats, **labels: str) -> None:
        self._add(self._cache, stats, labels)

    def install(self, registry: MetricsRegistry) -> None:
        """(Re-)register both view callbacks on a registry."""
        registry.register_view("repro.obs.views:check_stats",
                               self.check_samples)
        registry.register_view("repro.obs.views:cache_stats",
                               self.cache_samples)

    def clear(self) -> None:
        with self._lock:
            self._check = []
            self._cache = []

    # ------------------------------------------------------------------
    # Collection callbacks
    # ------------------------------------------------------------------

    def check_samples(self) -> Iterable[Sample]:
        totals: Dict[Tuple, Dict[str, float]] = {}
        with self._lock:
            live = [(ref(), lab) for ref, lab in self._check]
        for stats, labels in live:
            if stats is None:
                continue
            bucket = totals.setdefault(labels, {})
            for field, _, _ in _CHECK_FIELDS:
                bucket[field] = bucket.get(field, 0.0) + getattr(stats, field)
        for labels, fields in totals.items():
            for field, name, help_text in _CHECK_FIELDS:
                yield (name, labels, fields.get(field, 0.0), "counter",
                       help_text)

    def cache_samples(self) -> Iterable[Sample]:
        totals: Dict[Tuple, float] = {}
        helps: Dict[Tuple, str] = {}
        with self._lock:
            live = [(ref(), lab) for ref, lab in self._cache]
        for stats, labels in live:
            if stats is None:
                continue
            for field, name, extra, help_text in _CACHE_FIELDS:
                key = (name, tuple(sorted(labels + extra)))
                totals[key] = totals.get(key, 0.0) + getattr(stats, field)
                helps[key] = help_text
        for (name, labels), value in totals.items():
            yield name, labels, value, "counter", helps[(name, labels)]
