"""Span-level profiling: self-time, hot spans, flamegraphs, memory.

The tracer records *inclusive* wall seconds per span -- a parent's time
contains all of its children's.  For "where does the time actually go"
questions the useful figure is **self time** (exclusive seconds): the
span's inclusive time minus the inclusive time of its direct children,
clamped at zero when the clock reads of nested spans overlap by a few
microseconds.  Self time telescopes: summed over a subtree it
reconstructs the root's inclusive time exactly, which is the acceptance
bar `repro trace --hot` is held to.

Three consumers:

* :func:`hot_spans` / :func:`format_hot_spans` -- per-name aggregation
  (calls, inclusive, self) sorted by self time; the ``repro trace
  --hot`` table.
* :func:`flamegraph` -- collapsed-stack export in the de-facto standard
  ``root;child;leaf <count>`` format consumed by flamegraph.pl,
  speedscope, and inferno.  Counts are integer self-time microseconds;
  identical stacks are merged, so a batch run's many chunk spans
  collapse into one ``service:batch;batch:chunk`` line.
* :func:`memory_phases` -- per-name peak/net ``tracemalloc`` bytes from
  spans opened with ``memory=True`` (see :func:`repro.obs.enable_memory`).

All entry points accept a :class:`~repro.obs.trace.Tracer` or a list of
root :class:`~repro.obs.trace.Span` trees, so they work equally on the
live process trace and on a JSONL trace file read back from disk.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Union

from repro.obs.trace import Span, Tracer

Roots = Union[Tracer, Sequence[Span]]


def _as_roots(roots: Roots) -> List[Span]:
    if isinstance(roots, Tracer):
        return list(roots.roots)
    return list(roots)


def self_seconds(span: Span) -> float:
    """Exclusive seconds: inclusive minus direct children, floored at 0."""
    return max(0.0, span.seconds - sum(c.seconds for c in span.children))


# ----------------------------------------------------------------------
# Hot-span table
# ----------------------------------------------------------------------


class HotSpan:
    """Aggregate of every span sharing one name."""

    __slots__ = ("name", "calls", "inclusive_seconds", "self_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.inclusive_seconds = 0.0
        self.self_seconds = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "inclusive_seconds": self.inclusive_seconds,
            "self_seconds": self.self_seconds,
        }


def hot_spans(roots: Roots) -> List[HotSpan]:
    """Per-name (calls, inclusive, self) aggregates, hottest self first.

    Ties break on name so the table is deterministic across runs with
    identical timings (e.g. traces read back from a file).
    """
    table: Dict[str, HotSpan] = {}
    for root in _as_roots(roots):
        for span in root.walk():
            entry = table.get(span.name)
            if entry is None:
                entry = table[span.name] = HotSpan(span.name)
            entry.calls += 1
            entry.inclusive_seconds += span.seconds
            entry.self_seconds += self_seconds(span)
    return sorted(
        table.values(), key=lambda e: (-e.self_seconds, e.name)
    )


def format_hot_spans(roots: Roots, limit: int = 20) -> str:
    """The ``repro trace --hot`` view: an aligned self-time table."""
    entries = hot_spans(roots)[:limit]
    if not entries:
        return "(no spans recorded)"
    rows = [("span", "calls", "self_ms", "incl_ms", "self_%")]
    total_self = sum(e.self_seconds for e in entries) or 1.0
    for e in entries:
        rows.append((
            e.name,
            str(e.calls),
            f"{e.self_seconds * 1000:.3f}",
            f"{e.inclusive_seconds * 1000:.3f}",
            f"{100.0 * e.self_seconds / total_self:.1f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Collapsed-stack flamegraph export
# ----------------------------------------------------------------------


def _frame(name: str) -> str:
    """A span name as a flamegraph frame: the collapsed-stack format
    reserves ``;`` (stack separator) and space (count separator)."""
    return name.replace(";", ":").replace(" ", "_")


def _collapse(span: Span, prefix: str, out: Dict[str, int]) -> None:
    stack = f"{prefix};{_frame(span.name)}" if prefix else _frame(span.name)
    micros = int(round(self_seconds(span) * 1e6))
    if micros > 0:
        out[stack] = out.get(stack, 0) + micros
    for child in span.children:
        _collapse(child, stack, out)


def flamegraph_lines(roots: Roots) -> List[str]:
    """Collapsed stacks (``a;b;c <microseconds>``), one per line.

    Self-time microseconds per unique stack; identical stacks merge, and
    lines are sorted so the export is deterministic.  Zero-weight stacks
    (pure pass-through parents) are dropped, as flamegraph.pl would
    render them with zero width anyway.
    """
    out: Dict[str, int] = {}
    for root in _as_roots(roots):
        _collapse(root, "", out)
    return [f"{stack} {count}" for stack, count in sorted(out.items())]


def flamegraph(roots: Roots) -> str:
    """The full collapsed-stack document for ``repro trace --flamegraph``."""
    return "\n".join(flamegraph_lines(roots))


def parse_flamegraph(text: str) -> Dict[str, int]:
    """Parse collapsed-stack text back to ``{stack: count}``.

    The inverse of :func:`flamegraph`; exists so tests (and tooling)
    hold the export to "parses back", not "looks right".
    """
    stacks: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack:
            raise ValueError(f"malformed collapsed-stack line: {line!r}")
        stacks[stack] = stacks.get(stack, 0) + int(count)
    return stacks


# ----------------------------------------------------------------------
# Memory spans
# ----------------------------------------------------------------------


def memory_phases(roots: Roots) -> Dict[str, Dict[str, int]]:
    """Per-name tracemalloc figures from ``memory=True`` spans.

    Returns ``{name: {"spans": n, "peak_bytes": max, "net_bytes": sum}}``
    for every span carrying ``mem_peak_bytes``; empty when memory
    profiling was off (the common case).
    """
    table: Dict[str, Dict[str, int]] = {}
    for root in _as_roots(roots):
        for span in root.walk():
            if "mem_peak_bytes" not in span.attrs:
                continue
            entry = table.setdefault(
                span.name, {"spans": 0, "peak_bytes": 0, "net_bytes": 0}
            )
            entry["spans"] += 1
            entry["peak_bytes"] = max(
                entry["peak_bytes"], int(span.attrs["mem_peak_bytes"])
            )
            entry["net_bytes"] += int(span.attrs.get("mem_net_bytes", 0))
    return table


def format_memory(roots: Roots) -> str:
    """The ``repro trace --memory`` view: per-span-name peak/net bytes."""
    table = memory_phases(roots)
    if not table:
        return (
            "(no memory spans recorded -- enable with REPRO_OBS_MEMORY=1)"
        )
    rows = [("span", "spans", "peak_kib", "net_kib")]
    for name in sorted(table):
        entry = table[name]
        rows.append((
            name,
            str(entry["spans"]),
            f"{entry['peak_bytes'] / 1024:.1f}",
            f"{entry['net_bytes'] / 1024:+.1f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        )
        for row in rows
    )


__all__ = [
    "HotSpan",
    "self_seconds",
    "hot_spans",
    "format_hot_spans",
    "flamegraph",
    "flamegraph_lines",
    "parse_flamegraph",
    "memory_phases",
    "format_memory",
]
