"""Exporters: Prometheus text exposition, JSONL traces, human views.

Three audiences, three formats:

* **Prometheus** (:func:`to_prometheus`) -- the standard text exposition
  format, one family per metric with ``# HELP``/``# TYPE`` headers, so a
  scraper (or a test) can consume a run's counters.  The matching
  :func:`parse_prometheus` exists because the acceptance bar is a round
  trip, not a string that merely looks right.
* **JSONL traces** (:func:`trace_to_jsonl`) -- one root span tree per
  line, children nested; what CI uploads as a run artifact.
* **Humans** (:func:`format_metrics`, :func:`format_trace`) -- the
  ``repro stats`` and ``repro trace`` CLI views.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer

#: Parsed exposition: family kinds plus every sample's value.
ParsedExposition = Dict[str, Dict]

_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _family_of(name: str, kind: str) -> str:
    if kind == "histogram":
        for suffix in _HISTOGRAM_SUFFIXES:
            if name.endswith(suffix):
                return name[: -len(suffix)]
    return name


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label(value: str) -> str:
    out: List[str] = []
    it = iter(range(len(value)))
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def _sample_order(name: str, labels: Tuple[Tuple[str, str], ...], kind: str):
    """Within-family sort key: buckets ascend by numeric ``le``."""
    if kind == "histogram" and name.endswith("_bucket"):
        rest = tuple(pair for pair in labels if pair[0] != "le")
        le = dict(labels).get("le", "+Inf")
        bound = math.inf if le == "+Inf" else float(le)
        return (0, rest, bound, name)
    suffix_rank = 2 if name.endswith("_count") else 1
    return (suffix_rank, labels, 0.0, name)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Families are sorted by name; within a histogram family the bucket
    samples ascend by numeric ``le`` (with ``+Inf`` last) followed by
    ``_sum`` and ``_count``, as scrapers require.
    """
    families: Dict[str, List] = {}
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for name, labels, value, kind, help_text in registry.collect():
        family = _family_of(name, kind)
        families.setdefault(family, []).append((name, labels, value, kind))
        kinds.setdefault(family, kind)
        if help_text:
            helps.setdefault(family, help_text)
    lines: List[str] = []
    for family in sorted(families):
        if family in helps:
            lines.append(f"# HELP {family} {helps[family]}")
        lines.append(f"# TYPE {family} {kinds[family]}")
        for name, labels, value, kind in sorted(
            families[family],
            key=lambda s: _sample_order(s[0], s[1], s[3]),
        ):
            lines.append(
                f"{name}{_format_labels(labels)} {_format_value(value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_labels(text: str) -> Tuple[Tuple[str, str], ...]:
    labels: List[Tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq].strip().lstrip(",").strip()
        assert text[eq + 1] == '"', f"malformed label at {text[eq:]!r}"
        j = eq + 2
        raw: List[str] = []
        while text[j] != '"':
            if text[j] == "\\":
                raw.append(text[j : j + 2])
                j += 2
            else:
                raw.append(text[j])
                j += 1
        labels.append((key, _unescape_label("".join(raw))))
        i = j + 1
    return tuple(sorted(labels))


def parse_prometheus(text: str) -> ParsedExposition:
    """Parse exposition text back into types + samples.

    Returns ``{"types": {family: kind}, "help": {family: text},
    "samples": {(name, labels): value}}`` -- everything the round-trip
    test needs to compare against :meth:`MetricsRegistry.collect`.
    """
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            family, _, kind = rest.partition(" ")
            types[family] = kind.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            family, _, help_text = rest.partition(" ")
            helps[family] = help_text
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            label_text, _, value_text = rest.rpartition("}")
            labels = _parse_labels(label_text)
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
        value_text = value_text.strip()
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        samples[(name.strip(), labels)] = value
    return {"types": types, "help": helps, "samples": samples}


# ----------------------------------------------------------------------
# Histogram quantile estimation
# ----------------------------------------------------------------------


def histogram_quantile(
    bucket_counts: List[Tuple[float, int]], q: float
) -> float:
    """Estimate the ``q``-quantile from cumulative (bound, count) pairs.

    Standard Prometheus-style linear interpolation within the first
    bucket whose cumulative count reaches ``rank = q * total``: the
    bucket's observations are assumed uniform between its lower and
    upper bound (the lower bound of the first bucket is 0, matching
    the registry's non-negative time/size metrics).  Observations in
    the ``+Inf`` bucket clamp to the largest finite bound -- the usual
    "quantile saturates at the histogram's range" caveat.

    Raises :class:`ValueError` on an empty histogram or ``q`` outside
    [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    if not bucket_counts:
        raise ValueError("empty bucket list")
    total = bucket_counts[-1][1]
    if total <= 0:
        raise ValueError("histogram has no observations")
    rank = q * total
    lower_bound = 0.0
    lower_count = 0
    for bound, cumulative in bucket_counts:
        if cumulative >= rank and cumulative > lower_count:
            if bound == math.inf:
                # No upper edge to interpolate toward.
                return lower_bound
            span_count = cumulative - lower_count
            fraction = (rank - lower_count) / span_count
            return lower_bound + (bound - lower_bound) * max(0.0, fraction)
        if bound != math.inf:
            lower_bound = bound
            lower_count = cumulative
    return lower_bound


#: The quantiles ``repro stats`` reports.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def format_quantiles(
    registry: MetricsRegistry,
    quantiles: Tuple[float, ...] = DEFAULT_QUANTILES,
) -> str:
    """Estimated quantiles for every histogram, one aligned row each.

    Empty string when the registry holds no populated histograms, so
    the CLI can skip the section entirely.
    """
    header = ["histogram"] + [f"p{q * 100:g}" for q in quantiles]
    header.append("count")
    rows: List[List[str]] = []
    for histogram in registry.histograms():
        if histogram.count <= 0:
            continue
        counts = histogram.bucket_counts()
        row = [f"{histogram.name}{_format_labels(histogram.labels)}"]
        for q in quantiles:
            row.append(f"{histogram_quantile(counts, q):.6g}")
        row.append(str(histogram.count))
        rows.append(row)
    if not rows:
        return ""
    table = [header] + rows
    widths = [
        max(len(row[i]) for row in table) for i in range(len(header))
    ]
    return "\n".join(
        "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        )
        for row in table
    )


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------


def trace_to_jsonl(roots) -> str:
    """One JSON document per finished root span tree, per line.

    Accepts a list of root :class:`Span` trees or a whole
    :class:`Tracer`, like :func:`format_trace`.
    """
    if isinstance(roots, Tracer):
        roots = roots.roots
    lines = [
        json.dumps(root.to_dict(), sort_keys=True)
        for root in roots
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str) -> List[Span]:
    """Parse a JSONL trace back into root :class:`Span` trees.

    Raises ``ValueError`` naming the first line that is not JSON or not
    a span record.
    """
    roots: List[Span] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            roots.append(Span.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"line {number}: not a JSON span record ({exc})"
            ) from None
    return roots


# ----------------------------------------------------------------------
# Human views
# ----------------------------------------------------------------------


def format_metrics(registry: MetricsRegistry) -> str:
    """The ``repro stats`` view: one aligned line per sample."""
    rows: List[Tuple[str, str]] = []
    for name, labels, value, kind, _ in registry.collect():
        rows.append((f"{name}{_format_labels(labels)}", _format_value(value)))
    if not rows:
        return "(no metrics recorded)"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def _format_span(span: Span, depth: int, lines: List[str]) -> None:
    attrs = " ".join(
        f"{key}={value}" for key, value in sorted(span.attrs.items())
    )
    lines.append(
        "  " * depth
        + f"{span.name}  {span.seconds * 1000:.3f}ms"
        + (f"  [{attrs}]" if attrs else "")
    )
    for child in span.children:
        _format_span(child, depth + 1, lines)


def format_trace(roots) -> str:
    """The ``repro trace`` view: an indented span tree.

    Accepts a list of root :class:`Span` trees or a whole
    :class:`Tracer`.
    """
    if isinstance(roots, Tracer):
        roots = roots.roots
    if not roots:
        return "(no spans recorded)"
    lines: List[str] = []
    for root in roots:
        _format_span(root, 0, lines)
    return "\n".join(lines)
