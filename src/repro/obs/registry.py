"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The paper's evaluation is a set of counter tables -- options checked,
resource checks, representation sizes -- and before this module every
subsystem grew its own bespoke counter object (``CheckStats``,
``CacheStats``, ad-hoc ``perf_counter`` pairs).  The registry is the one
place those numbers live: subsystems create named metrics (optionally
labelled), exporters read them back out in a single pass, and *views*
let the existing stats dataclasses publish through the registry without
rewriting the hot paths that increment them.

Design rules:

* **Get-or-create.**  ``registry.counter(name, **labels)`` returns the
  same instrument for the same (name, labels) pair, so instrumentation
  sites never coordinate; the first caller wins on ``help`` text.
* **Hot paths stay dumb.**  Incrementing a counter is one attribute
  add under the GIL; no locks, no callbacks.  The registry lock guards
  only instrument *creation* and view registration.
* **Views, not parallel mechanisms.**  A view is a callback producing
  samples at collection time.  :class:`~repro.lowlevel.checker.CheckStats`
  and :class:`~repro.engine.cache.CacheStats` objects register as views
  (see :mod:`repro.obs.views`), so their counters appear in every export
  while ``try_reserve`` keeps its zero-overhead plain-int increments.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One exported measurement: (name, labels, value, kind, help).
Sample = Tuple[str, Tuple[Tuple[str, str], ...], float, str, str]

#: Default histogram buckets for wall-clock seconds (upper bounds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        self.value += amount

    def samples(self) -> Iterable[Tuple[str, Tuple, float]]:
        yield self.name, self.labels, self.value


class Gauge:
    """A value that can go up and down (pool sizes, last-run figures)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self) -> Iterable[Tuple[str, Tuple, float]]:
        yield self.name, self.labels, self.value


class Histogram:
    """Fixed-bucket histogram (cumulative, Prometheus ``le`` semantics).

    ``buckets`` are the finite upper bounds in increasing order; an
    implicit ``+Inf`` bucket always exists.  An observation lands in the
    first bucket whose bound is >= the value (bounds are inclusive, as
    in Prometheus).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must ascend: {buckets!r}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf is last
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs, ending at +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def samples(self) -> Iterable[Tuple[str, Tuple, float]]:
        for bound, count in self.bucket_counts():
            le = "+Inf" if bound == float("inf") else _format_bound(bound)
            yield (
                self.name + "_bucket",
                tuple(sorted(self.labels + (("le", le),))),
                float(count),
            )
        yield self.name + "_sum", self.labels, self.sum
        yield self.name + "_count", self.labels, float(self.count)


def _format_bound(bound: float) -> str:
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """All instruments and views of one process, by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[Tuple[str, Tuple], object]" = {}
        self._help: Dict[str, str] = {}
        self._views: "Dict[str, Callable[[], Iterable[Sample]]]" = {}

    # ------------------------------------------------------------------
    # Instrument creation (get-or-create)
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, help: str, labels: Dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
                if help and name not in self._help:
                    self._help[name] = help
        return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def register_view(
        self, name: str, callback: Callable[[], Iterable[Sample]]
    ) -> None:
        """Register (or replace) a pull-time sample source."""
        with self._lock:
            self._views[name] = callback

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def histograms(self) -> List[Histogram]:
        """Every histogram instrument, in (name, labels) order."""
        with self._lock:
            instruments = list(self._instruments.items())
        return [
            instrument
            for key, instrument in sorted(instruments, key=lambda kv: kv[0])
            if isinstance(instrument, Histogram)
        ]

    def collect(self) -> List[Sample]:
        """Every sample from every instrument and view, sorted.

        The sort (name, labels) makes exports deterministic regardless
        of registration order, which the round-trip tests rely on.
        """
        samples: List[Sample] = []
        with self._lock:
            instruments = list(self._instruments.values())
            views = list(self._views.values())
        for instrument in instruments:
            kind = instrument.kind
            base = instrument.name
            for name, labels, value in instrument.samples():
                samples.append(
                    (name, labels, value, kind, self._help.get(base, ""))
                )
        for view in views:
            for sample in view():
                samples.append(sample)
        samples.sort(key=lambda s: (s[0], s[1]))
        return samples

    def value(
        self, name: str, **labels: str
    ) -> Optional[float]:
        """The current value of one counter/gauge sample, or ``None``."""
        key = _label_key(labels)
        for sample_name, sample_labels, value, _, _ in self.collect():
            if sample_name == name and sample_labels == key:
                return value
        return None

    def reset(self) -> None:
        """Drop every instrument and view (tests and CLI runs)."""
        with self._lock:
            self._instruments.clear()
            self._help.clear()
            self._views.clear()

    def __len__(self) -> int:
        return len(self._instruments)
