"""Tests for ``repro.obs.prof``: self-time, flamegraphs, memory spans.

The profiling layer's contracts:

* self time telescopes -- per-root self-time totals reconstruct the
  root's inclusive time exactly (the acceptance bar is within 1% on a
  real traced run);
* the collapsed-stack flamegraph export parses back (``a;b;c N``
  format), merges identical stacks, and roots every stack of a batch
  run at ``service:batch`` with the grafted chunk spans beneath it;
* trace JSONL round-trips spans with nested attrs bit-for-bit;
* ``memory=True`` spans record tracemalloc peak/net bytes, child peaks
  propagate into parents, and the figures surface in the obs summary
  and Prometheus exposition;
* ``obs.disable_memory()`` stops the tracing a memory span started, and
  only that.
"""

import json
import tracemalloc

import pytest

from repro import obs
from repro.engine import DescriptionCache
from repro.obs import prof
from repro.obs.trace import Span
from repro.service import BatchConfig, schedule_batch
from tests.conftest import shared_workload

#: Whether allocations were traced before any test ran (``-X
#: tracemalloc``): such tracing is not ``repro.obs``'s to stop.
_TRACED_BY_INTERPRETER = tracemalloc.is_tracing()


@pytest.fixture(autouse=True)
def clean_obs():
    was_enabled = obs.enabled()
    was_memory = obs.memory_enabled()
    obs.disable()
    obs.disable_memory()
    obs.reset()
    yield
    obs.enable() if was_enabled else obs.disable()
    obs.enable_memory() if was_memory else obs.disable_memory()
    obs.reset()


def _span(name, seconds, children=(), **attrs):
    span = Span(name, attrs)
    span.seconds = seconds
    span.children = list(children)
    return span


class TestSelfTime:
    def test_leaf_self_time_is_inclusive_time(self):
        assert prof.self_seconds(_span("leaf", 0.5)) == 0.5

    def test_parent_self_time_excludes_children(self):
        tree = _span("p", 1.0, [_span("a", 0.25), _span("b", 0.5)])
        assert prof.self_seconds(tree) == pytest.approx(0.25)

    def test_self_time_clamps_at_zero_on_clock_skew(self):
        tree = _span("p", 0.1, [_span("a", 0.07), _span("b", 0.06)])
        assert prof.self_seconds(tree) == 0.0

    def test_self_time_telescopes_to_root_inclusive(self):
        tree = _span("r", 2.0, [
            _span("a", 0.75, [_span("a1", 0.25)]),
            _span("b", 0.5),
        ])
        total_self = sum(
            prof.self_seconds(span) for span in tree.walk()
        )
        assert total_self == pytest.approx(tree.seconds)

    def test_hot_spans_aggregate_by_name_and_sort_by_self(self):
        roots = [
            _span("r", 1.0, [_span("x", 0.8)]),
            _span("r", 1.0, [_span("x", 0.7)]),
        ]
        entries = prof.hot_spans(roots)
        assert [e.name for e in entries] == ["x", "r"]
        x, r = entries
        assert x.calls == 2
        assert x.inclusive_seconds == pytest.approx(1.5)
        assert x.self_seconds == pytest.approx(1.5)
        assert r.self_seconds == pytest.approx(0.5)
        assert r.inclusive_seconds == pytest.approx(2.0)

    def test_acceptance_self_time_sums_within_1pct_on_a_real_run(self):
        """Per-root self-time totals match the root's inclusive time.

        This is exact by construction (telescoping sum with clamping
        only ever *losing* overlap noise); the issue's acceptance bar
        is 1%.
        """
        obs.enable()
        obs.reset()
        machine, blocks = shared_workload("SuperSPARC", 300, 7)
        from repro import api

        api.schedule(api.ScheduleRequest(
            machine=machine, blocks=tuple(blocks),
        ))
        assert obs.TRACER.roots
        for root in obs.TRACER.roots:
            total_self = sum(
                prof.self_seconds(span) for span in root.walk()
            )
            assert total_self <= root.seconds * 1.0000001
            assert total_self == pytest.approx(
                root.seconds, rel=0.01
            )


class TestFlamegraph:
    def test_collapsed_stack_format_parses_back(self):
        tree = _span("root", 0.01, [
            _span("child", 0.004, [_span("leaf", 0.001)]),
        ])
        text = prof.flamegraph([tree])
        parsed = prof.parse_flamegraph(text)
        assert parsed == {
            "root": 6000, "root;child": 3000, "root;child;leaf": 1000,
        }

    def test_every_line_is_stack_space_integer(self):
        tree = _span("a", 0.5, [_span("b", 0.25)])
        for line in prof.flamegraph_lines([tree]):
            stack, _, count = line.rpartition(" ")
            assert stack
            assert int(count) > 0
            for frame in stack.split(";"):
                assert frame
                assert " " not in frame

    def test_reserved_characters_are_escaped_in_frames(self):
        tree = _span("a;b c", 0.001)
        (line,) = prof.flamegraph_lines([tree])
        assert line == "a:b_c 1000"

    def test_identical_stacks_merge(self):
        roots = [
            _span("r", 0.002, [_span("x", 0.001)]),
            _span("r", 0.004, [_span("x", 0.003)]),
        ]
        parsed = prof.parse_flamegraph(prof.flamegraph(roots))
        assert parsed == {"r": 2000, "r;x": 4000}

    def test_zero_weight_passthrough_parents_are_dropped(self):
        tree = _span("wrapper", 0.001, [_span("inner", 0.001)])
        parsed = prof.parse_flamegraph(prof.flamegraph([tree]))
        assert parsed == {"wrapper;inner": 1000}

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            prof.parse_flamegraph(" 42")


class TestTraceJsonlRoundTrip:
    def test_nested_attrs_round_trip(self):
        obs.enable()
        obs.reset()
        with obs.span("outer", machine="K5", sizes={"a": [1, 2]}) as sp:
            with obs.span("inner", nested={"deep": {"k": "v"}}):
                pass
        sp.set(result={"counts": [3, 4], "flags": {"ok": True}})
        text = obs.trace_to_jsonl(obs.TRACER)
        roots = obs.trace_from_jsonl(text)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "outer"
        assert root.attrs["machine"] == "K5"
        assert root.attrs["sizes"] == {"a": [1, 2]}
        assert root.attrs["result"] == {
            "counts": [3, 4], "flags": {"ok": True},
        }
        (inner,) = root.children
        assert inner.attrs["nested"] == {"deep": {"k": "v"}}
        # Re-serializing the parsed roots is a fixed point.
        assert obs.trace_to_jsonl(roots) == text

    def test_round_trip_preserves_timing_fields(self):
        obs.enable()
        obs.reset()
        with obs.span("t"):
            pass
        (root,) = obs.TRACER.roots
        (parsed,) = obs.trace_from_jsonl(obs.trace_to_jsonl(obs.TRACER))
        assert parsed.seconds == root.seconds
        assert parsed.start_ts == root.start_ts


class TestMergedTraceFlamegraph:
    """A batch run's merged trace collapses to stacks under its root."""

    @pytest.mark.parametrize("memory", [False, True])
    def test_batch_stacks_sit_under_the_batch_root(self, memory):
        machine_name = "PA7100"
        _, blocks = shared_workload(machine_name, 120, 11)
        config = BatchConfig(backend="bitvector", stage=4, chunk_size=4)
        # Warm one cache so the traced run does no compile work.
        cache = DescriptionCache()
        schedule_batch(machine_name, blocks, config, cache=cache)

        obs.enable()
        if memory:
            obs.enable_memory()
        obs.reset()
        schedule_batch(machine_name, blocks, config, cache=cache)
        stacks = set(prof.parse_flamegraph(prof.flamegraph(obs.TRACER)))
        assert any(stack.endswith("batch:chunk") for stack in stacks)
        assert all(stack.startswith("service:batch") for stack in stacks)


class TestMemorySpans:
    def test_memory_span_records_peak_and_net(self):
        obs.enable()
        obs.enable_memory()
        obs.reset()
        with obs.span("alloc", memory=True) as sp:
            blob = [bytearray(64 * 1024) for _ in range(16)]
            del blob
        assert sp.attrs["mem_peak_bytes"] >= 16 * 64 * 1024
        # The transient allocation was freed inside the span.
        assert sp.attrs["mem_net_bytes"] < sp.attrs["mem_peak_bytes"]

    def test_child_peak_propagates_to_parent(self):
        obs.enable()
        obs.enable_memory()
        obs.reset()
        with obs.span("parent", memory=True) as parent:
            with obs.span("child", memory=True) as child:
                blob = bytearray(1 << 20)
                del blob
        assert child.attrs["mem_peak_bytes"] >= 1 << 20
        assert (
            parent.attrs["mem_peak_bytes"]
            >= child.attrs["mem_peak_bytes"]
        )

    def test_memory_requires_both_site_and_process_opt_in(self):
        obs.enable()
        obs.reset()  # memory NOT enabled
        with obs.span("quiet", memory=True) as sp:
            blob = bytearray(1 << 16)
            del blob
        assert "mem_peak_bytes" not in sp.attrs

        obs.enable_memory()
        with obs.span("unmarked") as sp:  # site did not ask
            pass
        assert "mem_peak_bytes" not in sp.attrs

    def test_memory_phases_aggregation_and_summary(self):
        obs.enable()
        obs.enable_memory()
        obs.reset()
        for _ in range(2):
            with obs.span("phase", memory=True):
                blob = bytearray(1 << 18)
                del blob
        phases = prof.memory_phases(obs.TRACER)
        assert phases["phase"]["spans"] == 2
        assert phases["phase"]["peak_bytes"] >= 1 << 18
        digest = obs.summary()
        assert digest["memory"]["phase"] == phases["phase"]

    def test_memory_view_exports_to_prometheus(self):
        obs.enable()
        obs.enable_memory()
        obs.reset()
        with obs.span("expo", memory=True):
            blob = bytearray(1 << 18)
            del blob
        text = obs.to_prometheus(obs.REGISTRY)
        parsed = obs.parse_prometheus(text)
        key = ("repro_span_mem_peak_bytes", (("span", "expo"),))
        assert parsed["samples"][key] >= 1 << 18

    def test_summary_has_no_memory_section_when_off(self):
        obs.enable()
        obs.reset()
        with obs.span("plain"):
            pass
        assert "memory" not in obs.summary()

    def test_memory_attrs_survive_jsonl_round_trip(self):
        obs.enable()
        obs.enable_memory()
        obs.reset()
        with obs.span("disk", memory=True):
            blob = bytearray(1 << 16)
            del blob
        (parsed,) = obs.trace_from_jsonl(obs.trace_to_jsonl(obs.TRACER))
        assert parsed.attrs["mem_peak_bytes"] >= 1 << 16
        assert json.dumps(parsed.to_dict())  # still JSON-serializable

    @pytest.mark.skipif(
        _TRACED_BY_INTERPRETER, reason="the interpreter traces allocations"
    )
    def test_disable_memory_stops_the_tracing_it_started(self):
        obs.enable()
        obs.enable_memory()
        obs.reset()
        with obs.span("traced", memory=True):
            assert tracemalloc.is_tracing()
        obs.disable_memory()
        assert not tracemalloc.is_tracing()

    def test_disable_memory_leaves_other_tracing_alone(self):
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            obs.enable()
            obs.enable_memory()
            obs.reset()
            with obs.span("traced", memory=True) as sp:
                blob = bytearray(1 << 16)
                del blob
            assert sp.attrs["mem_peak_bytes"] >= 1 << 16
            obs.disable_memory()
            assert tracemalloc.is_tracing()
        finally:
            if not was_tracing:
                tracemalloc.stop()


class TestFormatting:
    def test_format_hot_spans_has_header_and_rows(self):
        roots = [_span("alpha", 0.01, [_span("beta", 0.004)])]
        text = prof.format_hot_spans(roots)
        lines = text.splitlines()
        assert lines[0].split() == [
            "span", "calls", "self_ms", "incl_ms", "self_%",
        ]
        assert any(line.startswith("alpha") for line in lines[1:])

    def test_format_hot_spans_empty(self):
        assert "no spans" in prof.format_hot_spans([])

    def test_format_memory_empty_mentions_flag(self):
        assert "REPRO_OBS_MEMORY" in prof.format_memory([])
