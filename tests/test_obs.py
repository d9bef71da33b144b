"""Tests for the ``repro.obs`` tracing and metrics layer.

Covers the tentpole guarantees: disabled mode is a shared no-op
identity (no allocation, no registry traffic), spans nest in call order
and survive a pickle round trip, histogram buckets follow Prometheus
``le`` (inclusive, cumulative) semantics, the text exposition parses
back to exactly the collected samples, and the CheckStats/CacheStats
view adapters aggregate live objects without touching the hot paths.
"""

import json
import math

import pytest

from repro import obs
from repro.engine.cache import CacheStats
from repro.lowlevel.checker import CheckStats
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
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import NULL_CAPTURE, NULL_SPAN, Span, Tracer


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts disabled with empty registry/tracer/views."""
    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.enable() if was_enabled else obs.disable()
    obs.reset()


class TestDisabledNoOp:
    def test_span_is_the_shared_singleton(self):
        assert obs.span("a") is NULL_SPAN
        assert obs.span("a", attr=1) is obs.span("b")

    def test_capture_is_the_shared_singleton(self):
        assert obs.capture() is NULL_CAPTURE
        with obs.capture() as captured:
            with obs.span("inside"):
                pass
        assert captured.spans == []

    def test_null_span_supports_the_full_protocol(self):
        with obs.span("x", a=1) as sp:
            sp.set(b=2)
        assert sp.seconds == 0.0
        assert sp.attrs == {}
        assert sp.children == []

    def test_no_registry_traffic(self):
        obs.count("repro_test_total", 5)
        obs.set_gauge("repro_test_gauge", 1.0)
        obs.observe("repro_test_seconds", 0.5)
        assert len(obs.REGISTRY) == 0

    def test_no_trace_roots(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        assert obs.TRACER.roots == []


class TestSpanNesting:
    def test_children_attach_to_the_enclosing_span(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("leaf"):
                    pass
            with obs.span("sibling"):
                pass
        (root,) = obs.TRACER.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["middle", "sibling"]
        assert [c.name for c in root.children[0].children] == ["leaf"]

    def test_walk_is_depth_first_in_order(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                pass
            with obs.span("c"):
                with obs.span("d"):
                    pass
        assert [s.name for s in obs.TRACER.walk()] == ["a", "b", "c", "d"]

    def test_seconds_are_recorded_and_nested_sum_is_bounded(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        (root,) = obs.TRACER.roots
        assert root.seconds > 0.0
        assert root.children[0].seconds <= root.seconds

    def test_attrs_via_constructor_and_set(self):
        obs.enable()
        with obs.span("s", machine="K5") as sp:
            sp.set(ops=7)
        assert obs.TRACER.roots[0].attrs == {"machine": "K5", "ops": 7}

    def test_exception_marks_the_span_and_propagates(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (root,) = obs.TRACER.roots
        assert root.attrs["error"] == "ValueError"

    def test_seconds_by_name_aggregates(self):
        obs.enable()
        for _ in range(3):
            with obs.span("repeated"):
                pass
        totals = obs.phase_seconds()
        assert set(totals) == {"repeated"}
        assert totals["repeated"] > 0.0


class TestCaptureAndAttach:
    def test_capture_detaches_from_the_ambient_stack(self):
        obs.enable()
        with obs.span("ambient"):
            with obs.capture() as captured:
                with obs.span("detached"):
                    with obs.span("leaf"):
                        pass
        (root,) = obs.TRACER.roots
        assert root.name == "ambient"
        assert root.children == []  # nothing leaked into the tree
        assert [d["name"] for d in captured.spans] == ["detached"]
        assert [c["name"] for c in captured.spans[0]["children"]] == ["leaf"]

    def test_captured_dicts_graft_under_the_current_span(self):
        obs.enable()
        with obs.capture() as captured:
            with obs.span("chunk", index=3):
                pass
        with obs.span("driver"):
            obs.attach(captured.spans)
        (root,) = obs.TRACER.roots
        assert [c.name for c in root.children] == ["chunk"]
        assert root.children[0].attrs == {"index": 3}

    def test_attach_without_a_current_span_creates_roots(self):
        obs.enable()
        obs.attach([Span("orphan").to_dict()])
        assert [r.name for r in obs.TRACER.roots] == ["orphan"]

    def test_span_dict_round_trip_is_lossless(self):
        span = Span("s", {"k": "v"})
        span.seconds = 1.25
        span.start_ts = 10.0
        span.children = [Span("child")]
        again = Span.from_dict(span.to_dict())
        assert again.to_dict() == span.to_dict()


class TestHistogramBuckets:
    def test_boundary_observation_lands_in_its_bucket(self):
        """Prometheus ``le`` is inclusive: observe(1.0) counts in le=1."""
        h = Histogram("h", (), buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)
        assert dict(h.bucket_counts())[1.0] == 1

    def test_counts_are_cumulative(self):
        h = Histogram("h", (), buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.7, 4.0):
            h.observe(value)
        assert h.bucket_counts() == [
            (1.0, 1), (2.0, 3), (5.0, 4), (math.inf, 4),
        ]

    def test_overflow_goes_to_inf_only(self):
        h = Histogram("h", (), buckets=(1.0,))
        h.observe(100.0)
        assert h.bucket_counts() == [(1.0, 0), (math.inf, 1)]
        assert h.sum == 100.0 and h.count == 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=())

    def test_samples_end_with_sum_and_count(self):
        h = Histogram("repro_x_seconds", (("k", "v"),), buckets=(1.0,))
        h.observe(0.5)
        names = [name for name, _, _ in h.samples()]
        assert names == [
            "repro_x_seconds_bucket", "repro_x_seconds_bucket",
            "repro_x_seconds_sum", "repro_x_seconds_count",
        ]


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_c_total", "help", machine="K5")
        b = registry.counter("repro_c_total", machine="K5")
        assert a is b
        assert registry.counter("repro_c_total", machine="P5") is not a

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x")

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("repro_c_total").inc(-1)

    def test_value_lookup(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", backend="andor").inc(3)
        assert registry.value("repro_c_total", backend="andor") == 3.0
        assert registry.value("repro_c_total", backend="or") is None

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc()
        registry.register_view("v", lambda: ())
        registry.reset()
        assert len(registry) == 0 and registry.collect() == []


class TestViews:
    def test_check_stats_appear_as_counters(self):
        obs.enable()
        stats = CheckStats()
        stats.attempts, stats.successes = 10, 4
        stats.options_checked, stats.resource_checks = 20, 30
        obs.register_check_stats(stats, backend="bitvector")
        values = {
            (name, labels): value
            for name, labels, value, _, _ in obs.REGISTRY.collect()
        }
        key = (("backend", "bitvector"),)
        assert values[("repro_check_attempts_total", key)] == 10
        assert values[("repro_check_successes_total", key)] == 4
        assert values[("repro_check_options_total", key)] == 20
        assert values[("repro_check_resource_checks_total", key)] == 30

    def test_same_label_objects_aggregate_by_sum(self):
        first, second = CheckStats(), CheckStats()
        first.attempts, second.attempts = 3, 4
        obs.register_check_stats(first, backend="x")
        obs.register_check_stats(second, backend="x")
        assert obs.REGISTRY.value(
            "repro_check_attempts_total", backend="x"
        ) == 7

    def test_registration_is_idempotent(self):
        stats = CheckStats()
        stats.attempts = 5
        obs.register_check_stats(stats, backend="x")
        obs.register_check_stats(stats, backend="x")
        assert obs.REGISTRY.value(
            "repro_check_attempts_total", backend="x"
        ) == 5

    def test_dead_objects_stop_contributing(self):
        stats = CheckStats()
        stats.attempts = 5
        obs.register_check_stats(stats, backend="x")
        del stats
        assert obs.REGISTRY.value(
            "repro_check_attempts_total", backend="x"
        ) is None

    def test_cache_stats_split_by_tier_and_outcome(self):
        stats = CacheStats(hits=2, misses=3, evictions=2)
        obs.register_cache_stats(stats, cache="global")
        value = obs.REGISTRY.value
        assert value("repro_cache_requests_total", cache="global",
                     outcome="hit", tier="memory") == 2
        assert value("repro_cache_requests_total", cache="global",
                     outcome="miss", tier="memory") == 3
        assert value("repro_cache_evictions_total", cache="global") == 2

    def test_views_survive_in_live_exposition(self):
        stats = CheckStats()
        stats.attempts = 1
        obs.register_check_stats(stats, backend="x")
        stats.attempts = 9  # pull-time view: no re-registration needed
        assert obs.REGISTRY.value(
            "repro_check_attempts_total", backend="x"
        ) == 9


class TestPrometheusExposition:
    def _populated_registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_ops_total", "Operations scheduled.",
            machine="K5", backend="andor",
        ).inc(42)
        registry.gauge("repro_delta", "Last option delta.").set(-15)
        h = registry.histogram(
            "repro_wall_seconds", "Wall time.", buckets=(0.5, 2.5, 10.0),
            stage="final",
        )
        for value in (0.1, 1.0, 20.0):
            h.observe(value)
        registry.counter(
            "repro_escaped_total", 'Labels with "quotes"\\backslashes.',
            path='a"b\\c', note="line\nbreak",
        ).inc()
        return registry

    def test_round_trip_matches_collect_exactly(self):
        registry = self._populated_registry()
        parsed = parse_prometheus(to_prometheus(registry))
        expected = {
            (name, labels): value
            for name, labels, value, _, _ in registry.collect()
        }
        assert parsed["samples"] == expected

    def test_types_and_help_are_declared_per_family(self):
        parsed = parse_prometheus(to_prometheus(self._populated_registry()))
        assert parsed["types"] == {
            "repro_ops_total": "counter",
            "repro_delta": "gauge",
            "repro_wall_seconds": "histogram",
            "repro_escaped_total": "counter",
        }
        assert parsed["help"]["repro_ops_total"] == "Operations scheduled."

    def test_bucket_lines_ascend_with_inf_last(self):
        text = to_prometheus(self._populated_registry())
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_wall_seconds_bucket")
        ]
        bounds = [
            line.split('le="')[1].split('"')[0] for line in bucket_lines
        ]
        assert bounds == ["0.5", "2.5", "10", "+Inf"]
        counts = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        # _sum and _count follow the buckets within the family.
        family = text[text.index("# TYPE repro_wall_seconds"):]
        assert family.index("_bucket") < family.index("_sum")
        assert family.index("_sum") < family.index("_count")

    def test_histogram_sum_and_count(self):
        parsed = parse_prometheus(to_prometheus(self._populated_registry()))
        samples = parsed["samples"]
        key = (("stage", "final"),)
        assert samples[("repro_wall_seconds_sum", key)] == pytest.approx(21.1)
        assert samples[("repro_wall_seconds_count", key)] == 3

    def test_empty_registry_exports_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus("")["samples"] == {}


class TestJsonlTrace:
    def test_round_trip(self):
        tracer = Tracer()
        with tracer.span("root", machine="K5"):
            with tracer.span("child"):
                pass
        with tracer.span("second"):
            pass
        text = trace_to_jsonl(tracer)
        assert len(text.splitlines()) == 2  # one root tree per line
        roots = trace_from_jsonl(text)
        assert [r.to_dict() for r in roots] == [
            r.to_dict() for r in tracer.roots
        ]

    def test_lines_are_valid_sorted_json(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        (line,) = trace_to_jsonl(tracer).splitlines()
        document = json.loads(line)
        assert list(document) == sorted(document)


class TestHumanViews:
    def test_format_metrics_lists_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", machine="K5").inc(7)
        text = format_metrics(registry)
        assert 'repro_ops_total{machine="K5"}' in text
        assert text.rstrip().endswith("7")
        assert format_metrics(MetricsRegistry()) == "(no metrics recorded)"

    def test_format_trace_indents_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", ops=3):
                pass
        text = format_trace(tracer.roots)
        outer_line, inner_line = text.splitlines()
        assert outer_line.startswith("outer")
        assert inner_line.startswith("  inner")
        assert "ops=3" in inner_line
        assert format_trace([]) == "(no spans recorded)"

    def test_format_trace_accepts_a_tracer(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        assert format_trace(tracer) == format_trace(tracer.roots)


class TestPipelineIntegration:
    def test_schedule_trace_covers_every_layer(self):
        obs.enable()
        from repro.engine import create_engine
        from repro.engine.cache import DescriptionCache
        from repro.machines.amdk5 import build_machine
        from repro.scheduler import schedule_workload
        from repro.workloads import WorkloadConfig, generate_blocks

        # Build the machine and compile its description from scratch:
        # get_machine() and the GLOBAL_CACHE both memoize process-wide,
        # which would skip the hmdes/transform spans this test exists
        # to observe when the whole suite runs.
        machine = build_machine()
        blocks = generate_blocks(
            machine, WorkloadConfig(total_ops=120, seed=5)
        )
        engine = create_engine(
            "bitvector", machine, cache=DescriptionCache(name="obs-it")
        )
        schedule_workload(machine, None, blocks, engine=engine)

        names = {s.name for s in obs.TRACER.walk()}
        assert {"engine:create", "hmdes:load", "hmdes:parse",
                "transform:staged", "schedule:list"} <= names
        transforms = obs.transform_effects()
        stages = [t["stage"] for t in transforms]
        assert "redundancy-elimination" in stages
        assert all("seconds" in t for t in transforms)
        # The paper's effect columns: option deltas per transform.
        assert any("options_delta" in t for t in transforms)
        assert obs.REGISTRY.value(
            "repro_engine_creations_total", backend="bitvector"
        ) == 1
        # Live view over the engine's CheckStats.
        assert obs.REGISTRY.value(
            "repro_check_attempts_total",
            backend="bitvector", machine="K5",
        ) == engine.stats.attempts > 0

    def test_disabled_pipeline_records_nothing(self):
        from repro.engine import create_engine
        from repro.machines import get_machine
        from repro.scheduler import schedule_workload
        from repro.workloads import WorkloadConfig, generate_blocks

        machine = get_machine("K5")
        blocks = generate_blocks(
            machine, WorkloadConfig(total_ops=60, seed=5)
        )
        engine = create_engine("bitvector", machine)
        schedule_workload(machine, None, blocks, engine=engine)
        assert obs.TRACER.roots == []
        assert len(obs.REGISTRY) == 0


class TestHistogramQuantiles:
    """Bucket-interpolated quantile estimation over the registry."""

    def test_interpolates_within_bucket(self):
        # 4 observations <= 1.0, 4 more in (1.0, 2.0]: the median rank
        # (4.0) lands exactly on the first bucket's edge.
        buckets = [(1.0, 4), (2.0, 8), (math.inf, 8)]
        assert histogram_quantile(buckets, 0.5) == pytest.approx(1.0)
        # p75 -> rank 6, halfway through the (1.0, 2.0] bucket.
        assert histogram_quantile(buckets, 0.75) == pytest.approx(1.5)

    def test_first_bucket_interpolates_from_zero(self):
        buckets = [(2.0, 10), (math.inf, 10)]
        assert histogram_quantile(buckets, 0.5) == pytest.approx(1.0)

    def test_inf_bucket_clamps_to_largest_finite_bound(self):
        buckets = [(1.0, 0), (math.inf, 5)]
        assert histogram_quantile(buckets, 0.99) == pytest.approx(1.0)

    def test_extremes(self):
        buckets = [(1.0, 5), (2.0, 10), (math.inf, 10)]
        assert histogram_quantile(buckets, 0.0) == pytest.approx(0.0)
        assert histogram_quantile(buckets, 1.0) == pytest.approx(2.0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            histogram_quantile([], 0.5)
        with pytest.raises(ValueError):
            histogram_quantile([(1.0, 0), (math.inf, 0)], 0.5)
        with pytest.raises(ValueError):
            histogram_quantile([(1.0, 1), (math.inf, 1)], 1.5)

    def test_matches_known_distribution(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat", buckets=(0.1, 0.5, 1.0, 5.0)
        )
        for value in [0.05] * 50 + [0.3] * 40 + [2.0] * 10:
            hist.observe(value)
        estimate = histogram_quantile(hist.bucket_counts(), 0.95)
        # True p95 sits among the 2.0s; the estimate must land in
        # their (1.0, 5.0] bucket.
        assert 1.0 <= estimate <= 5.0

    def test_format_quantiles_lists_populated_histograms(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_seconds", stage="4")
        for value in (0.01, 0.02, 0.03):
            hist.observe(value)
        registry.histogram("repro_empty_seconds")  # stays silent
        text = format_quantiles(registry)
        lines = text.splitlines()
        assert lines[0].split()[:4] == ["histogram", "p50", "p95", "p99"]
        assert "repro_t_seconds" in text
        assert 'stage="4"' in text
        assert "repro_empty_seconds" not in text

    def test_format_quantiles_empty_registry(self):
        assert format_quantiles(MetricsRegistry()) == ""
