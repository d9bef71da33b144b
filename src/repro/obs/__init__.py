"""``repro.obs`` -- pipeline-wide tracing and metrics.

Every layer of the reproduction -- the HMDES front end, the
transformation pipeline, the query engines and their caches, the four
schedulers, and the batch service -- reports into this one subsystem:

* a process-wide :class:`~repro.obs.registry.MetricsRegistry`
  (:data:`REGISTRY`) of counters, gauges, and fixed-bucket histograms,
* a process-wide :class:`~repro.obs.trace.Tracer` (:data:`TRACER`) of
  hierarchical timing spans,
* exporters (:mod:`repro.obs.export`): Prometheus text exposition,
  JSONL trace files, and the human ``repro stats`` / ``repro trace``
  CLI views.

**Observability is off by default** so the paper-reproduction
benchmarks measure the algorithms, not the bookkeeping.  Enable it with
the ``REPRO_OBS=1`` environment variable or :func:`enable`.  While
disabled, every helper here is a module-flag test followed by an
identity return of a shared no-op object -- no allocation, no clock
read, no registry traffic -- and the hot constraint-check paths are not
instrumented at all (their counters flow through the pre-existing
``CheckStats``/``CacheStats`` objects, which the registry exposes as
pull-time *views* instead; see :mod:`repro.obs.views`).

Typical instrumentation site::

    from repro import obs

    with obs.span("transform:time-shift") as sp:
        after = shift_usage_times(mdes)
    sp.set(options_delta=count(after) - count(mdes))

and a pull site::

    print(obs.to_prometheus(obs.REGISTRY))
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.obs.export import (
    format_metrics,
    format_quantiles,
    format_trace,
    histogram_quantile,
    parse_prometheus,
    to_prometheus,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_CAPTURE, NULL_SPAN, Span, Tracer
from repro.obs.views import StatsViews


def _env_truthy(value: str) -> bool:
    return value.strip().lower() in ("1", "true", "yes", "on")


#: Whether instrumentation records anything (module-level fast path).
_ENABLED = _env_truthy(os.environ.get("REPRO_OBS", ""))

#: Whether ``memory=True`` spans actually run tracemalloc accounting.
#: Doubly opt-in: the site requests it *and* this flag is on, because
#: tracemalloc slows allocation-heavy phases far beyond the 2% obs
#: overhead budget.
_MEMORY = _env_truthy(os.environ.get("REPRO_OBS_MEMORY", ""))

#: The process-wide metrics registry.
REGISTRY = MetricsRegistry()

#: The process-wide tracer.
TRACER = Tracer()

#: The process-wide stats-view table (CheckStats/CacheStats adapters).
VIEWS = StatsViews()


def _memory_samples():
    """Pull-time Prometheus view over the trace's memory spans."""
    from repro.obs.prof import memory_phases

    samples = []
    for name, entry in sorted(memory_phases(TRACER).items()):
        labels = (("span", name),)
        samples.append((
            "repro_span_mem_peak_bytes", labels,
            float(entry["peak_bytes"]), "gauge",
            "Peak tracemalloc bytes over a named memory span.",
        ))
        samples.append((
            "repro_span_mem_net_bytes", labels,
            float(entry["net_bytes"]), "gauge",
            "Net bytes allocated across a named memory span.",
        ))
    return samples


def _install_views() -> None:
    VIEWS.install(REGISTRY)
    REGISTRY.register_view("obs:memory", _memory_samples)


_install_views()


def enabled() -> bool:
    """Whether observability is currently recording."""
    return _ENABLED


def enable() -> None:
    """Turn recording on for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn recording off (existing data is kept until :func:`reset`)."""
    global _ENABLED
    _ENABLED = False


def memory_enabled() -> bool:
    """Whether ``memory=True`` spans record tracemalloc figures."""
    return _MEMORY


def enable_memory() -> None:
    """Turn tracemalloc accounting on for memory-requesting spans."""
    global _MEMORY
    _MEMORY = True


def disable_memory() -> None:
    """Turn tracemalloc accounting off.

    Also stops ``tracemalloc`` when a memory span started it, so the
    rest of the process no longer pays for tracing every allocation.
    """
    global _MEMORY
    _MEMORY = False
    TRACER.stop_memory()


def reset() -> None:
    """Drop all recorded metrics, views, and spans (between CLI runs)."""
    REGISTRY.reset()
    TRACER.reset()
    VIEWS.clear()
    _install_views()


# ----------------------------------------------------------------------
# Recording helpers (all no-ops while disabled)
# ----------------------------------------------------------------------


def span(name: str, memory: bool = False, **attrs: Any):
    """Open a trace span; the shared no-op span while disabled.

    ``memory=True`` additionally records tracemalloc peak/net bytes
    into the span's attrs -- but only when memory profiling is enabled
    process-wide (:func:`enable_memory` / ``REPRO_OBS_MEMORY=1``).
    """
    if not _ENABLED:
        return NULL_SPAN
    return TRACER.span(name, memory=memory and _MEMORY, **attrs)


def capture():
    """Trace a region detached from the ambient stack (worker chunks)."""
    if not _ENABLED:
        return NULL_CAPTURE
    return TRACER.capture()


def attach(span_dicts: List[Dict[str, Any]]) -> None:
    """Graft captured span dicts under the current span."""
    if _ENABLED and span_dicts:
        TRACER.attach(span_dicts)


def count(name: str, amount: float = 1.0, help: str = "",
          **labels: str) -> None:
    """Increment a counter (created on first use)."""
    if _ENABLED:
        REGISTRY.counter(name, help, **labels).inc(amount)


def set_gauge(name: str, value: float, help: str = "",
              **labels: str) -> None:
    """Set a gauge (created on first use)."""
    if _ENABLED:
        REGISTRY.gauge(name, help, **labels).set(value)


def observe(name: str, value: float, help: str = "",
            buckets=DEFAULT_TIME_BUCKETS, **labels: str) -> None:
    """Record a histogram observation (created on first use)."""
    if _ENABLED:
        REGISTRY.histogram(name, help, buckets=buckets, **labels).observe(
            value
        )


def register_check_stats(stats, **labels: str) -> None:
    """Expose a live ``CheckStats`` through the registry (weakly held).

    Unlike the recording helpers this is *not* gated on
    :func:`enabled`: views cost nothing until someone collects, and
    long-lived objects (the global description cache) register at
    import time, typically before ``enable()`` runs.  Re-registering
    the same object with the same labels is a no-op.
    """
    VIEWS.add_check_stats(stats, **labels)


def register_cache_stats(stats, **labels: str) -> None:
    """Expose a live ``CacheStats`` through the registry (weakly held).

    Same registration semantics as :func:`register_check_stats`.
    """
    VIEWS.add_cache_stats(stats, **labels)


# ----------------------------------------------------------------------
# Read-side helpers
# ----------------------------------------------------------------------


def phase_seconds() -> Dict[str, float]:
    """Total recorded wall seconds per span name."""
    return TRACER.seconds_by_name()


def transform_effects() -> List[Dict[str, Any]]:
    """Per-transform timing and size/option-count deltas, trace order.

    Each entry is one ``transform:*`` span flattened to a dict -- the
    live reproduction of the paper's Table 7/8/13 effect columns for
    whatever compiles ran under the current trace.
    """
    effects: List[Dict[str, Any]] = []
    containers = ("transform:pipeline", "transform:staged")
    for sp in TRACER.walk():
        if sp.name.startswith("transform:") and sp.name not in containers:
            entry: Dict[str, Any] = {
                "stage": sp.name[len("transform:"):],
                "seconds": sp.seconds,
            }
            entry.update(sp.attrs)
            effects.append(entry)
    return effects


def summary() -> Dict[str, Any]:
    """The machine-readable obs digest CLI ``--json`` output embeds."""
    from repro.obs.prof import memory_phases

    digest = {
        "phases": phase_seconds(),
        "transforms": transform_effects(),
    }
    memory = memory_phases(TRACER)
    if memory:
        digest["memory"] = memory
    return digest


__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Span", "Tracer",
    "StatsViews", "REGISTRY", "TRACER", "VIEWS",
    "DEFAULT_TIME_BUCKETS", "NULL_SPAN", "NULL_CAPTURE",
    "enabled", "enable", "disable", "reset",
    "memory_enabled", "enable_memory", "disable_memory",
    "span", "capture", "attach", "count", "set_gauge", "observe",
    "register_check_stats", "register_cache_stats",
    "phase_seconds", "transform_effects", "summary",
    "to_prometheus", "parse_prometheus", "format_metrics", "format_trace",
    "format_quantiles", "histogram_quantile",
    "trace_to_jsonl", "trace_from_jsonl",
]
