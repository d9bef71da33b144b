"""Which public calls the traced run wraps, and the per-layer metrics.

Every span is named ``<layer>.<call>`` after the repo module the call
belongs to (``hmdes``, ``transforms``, ``engine`` ...); ``bench`` is the
benchmark's own time.  The bindings below are the module attributes the
program looks each public function up through at call time, so
rebinding them reaches every caller without editing the program.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple

from perfbench.common import SELF_SUM_TOLERANCE, median
from perfbench.tracing import (
    EngineProxy,
    Tracer,
    attr_sum,
    inclusive,
    layer_of,
)

#: ``staged_mdes`` stages at the final stage, in application order.
STAGES = (
    "redundancy_elimination", "dominated_option_removal",
    "usage_time_shift", "usage_check_sort", "common_usage_factoring",
    "and_or_tree_sort", "final_sharing",
)

#: The registered list-scheduler backends.
BACKENDS = ("ortree", "andor", "bitvector", "automata", "eichenberger")

#: Layers whose self time the traced run reports.
LAYERS = (
    "bench", "machines", "hmdes", "core", "transforms", "eichenberger",
    "lowlevel", "engine", "ir", "scheduler", "verify", "sweep", "service",
)


def _staged_wrapper(tracer: Tracer, cursor: threading.local):
    """``staged_mdes`` naming each transform call by its stage."""
    from repro.transforms.pipeline import (
        FINAL_STAGE,
        PIPELINE_STAGES,
        mdes_footprint,
    )

    def make(original):
        def staged(base, stage):
            if stage != FINAL_STAGE:
                return original(base, stage)
            with tracer.span("transforms.staged") as record:
                cursor.pending = list(PIPELINE_STAGES)
                try:
                    result = original(base, stage)
                    if cursor.pending:
                        raise AssertionError(
                            "staged_mdes skipped stages: "
                            f"{[name for name, _ in cursor.pending]}"
                        )
                finally:
                    cursor.pending = []
                with tracer.span("bench.footprint"):
                    footprint = mdes_footprint(result)
                record["attrs"].update(
                    options_out=footprint["options"],
                    usages_out=footprint["usages"],
                )
            return result
        return staged
    return make


def _stage_wrapper(tracer: Tracer, cursor: threading.local):
    """One transform function, spanned under the stage it runs as."""
    def make(original):
        def transform(mdes, *args):
            pending = getattr(cursor, "pending", None)
            if pending:
                name, expected = pending.pop(0)
                if expected is not original:
                    raise AssertionError(
                        f"stage {name!r} ran {original.__name__}, "
                        f"expected {expected.__name__}"
                    )
                label = name.replace("-", "_")
            else:
                label = original.__name__
            with tracer.span(f"transforms.{label}"):
                return original(mdes, *args)
        return transform
    return make


def _engine_wrapper(tracer: Tracer):
    def make(original):
        def create(*args, **kwargs):
            with tracer.span("engine.create"):
                engine = original(*args, **kwargs)
            return EngineProxy(engine, tracer)
        return create
    return make


def _schedule_wrapper(tracer: Tracer):
    def make(original):
        def schedule(machine, compiled=None, blocks=(), **kwargs):
            engine = kwargs.get("engine")
            with tracer.span(
                "scheduler.schedule", machine=machine.name,
                backend=getattr(engine, "name", "table"),
                direction=kwargs.get("direction", "forward"),
            ) as record:
                run = original(machine, compiled, blocks, **kwargs)
                record["attrs"].update(
                    ops=run.total_ops,
                    attempts=run.stats.attempts,
                    options=run.stats.options_checked,
                    checks=run.stats.resource_checks,
                )
            return run
        return schedule
    return make


def _dependence_wrapper(tracer: Tracer):
    def make(original):
        def build(*args, **kwargs):
            with tracer.folding("ir.dependence"):
                graph = original(*args, **kwargs)
            tracer.count("ir.edges", graph.edge_count())
            return graph
        return build
    return make


def _plain(tracer: Tracer, name: str, attrs=None):
    return lambda original: tracer.wrap(original, name, attrs)


def bindings(tracer: Tracer) -> List[Tuple[str, str, Any]]:
    """``(module, attribute, wrapper factory)`` for every traced call."""
    from repro.transforms import pipeline

    cursor = threading.local()
    stage_make = _stage_wrapper(tracer, cursor)
    stage_functions = [fn for _, fn in pipeline.PIPELINE_STAGES]
    transform_bindings = [
        ("repro.transforms.pipeline", attr, stage_make)
        for attr, value in vars(pipeline).items()
        if any(value is fn for fn in stage_functions)
    ]
    staged = _staged_wrapper(tracer, cursor)
    create = _engine_wrapper(tracer)
    schedule = _schedule_wrapper(tracer)
    dependence = _dependence_wrapper(tracer)
    return [
        ("repro.machines.base", "load_mdes", _plain(tracer, "hmdes.load")),
        ("repro.hmdes.parser", "preprocess",
         _plain(tracer, "hmdes.preprocess")),
        ("repro.hmdes.parser", "tokenize", _plain(
            tracer, "hmdes.lex", lambda tokens: {"tokens": len(tokens)})),
        ("repro.hmdes.parser", "Parser.parse_file",
         _plain(tracer, "hmdes.parse")),
        ("repro.hmdes.translate", "translate",
         _plain(tracer, "hmdes.translate")),
        ("repro.core.mdes", "Mdes.expanded", _plain(tracer, "core.expand")),
        ("repro.engine.cache", "staged_mdes", staged),
        ("repro.sweep.driver", "staged_mdes", staged),
        *transform_bindings,
        ("repro.eichenberger", "reduce_mdes_options",
         _plain(tracer, "eichenberger.reduce")),
        ("repro.engine.cache", "compile_mdes",
         _plain(tracer, "lowlevel.compile")),
        ("repro.lowlevel.packed", "pack_mdes",
         _plain(tracer, "lowlevel.pack")),
        ("repro.engine.registry", "create_engine", create),
        ("repro.service.batch", "create_engine", create),
        ("repro.scheduler.list_scheduler", "schedule_workload", schedule),
        ("repro.service.batch", "schedule_workload", schedule),
        ("repro.scheduler.list_scheduler", "build_dependence_graph",
         dependence),
        ("repro.verify.oracle", "build_dependence_graph", dependence),
        ("repro.verify", "verify_schedule", _plain(
            tracer, "verify.replay",
            lambda report: {"diagnostics": len(report.diagnostics)})),
        ("repro.service.submit", "schedule_batch",
         _plain(tracer, "service.batch")),
        ("repro.sweep", "run_sweep", _plain(tracer, "sweep.run")),
        ("repro.sweep.driver", "get_machine",
         _plain(tracer, "machines.resolve")),
    ]


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric, ``(name, unit)``, in report order."""
    names = [
        ("hmdes.preprocess_s", "s"), ("hmdes.lex_s", "s"),
        ("hmdes.parse_s", "s"), ("hmdes.translate_s", "s"),
        ("hmdes.tokens", "count"), ("machines.resolve_s", "s"),
        ("core.expand_s", "s"),
    ]
    names += [(f"transforms.{stage}_s", "s") for stage in STAGES]
    names += [
        ("transforms.options_out", "count"),
        ("transforms.usages_out", "count"),
        ("eichenberger.reduce_s", "s"),
        ("lowlevel.compile_s", "s"), ("lowlevel.pack_s", "s"),
        ("lowlevel.size_bytes", "bytes"),
        ("engine.create_s", "s"), ("engine.query_s", "s"),
        ("engine.query_calls", "count"), ("engine.us_per_call", "us"),
        ("engine.ns_per_check", "ns"),
        ("engine.cache_hits", "count"), ("engine.cache_misses", "count"),
        ("engine.cache_evictions", "count"),
        ("scheduler.schedule_s", "s"), ("scheduler.self_s", "s"),
        ("scheduler.attempts", "count"),
        ("scheduler.options_per_attempt", "options/attempt"),
        ("scheduler.checks_per_attempt", "checks/attempt"),
        ("ir.dependence_s", "s"), ("ir.edges", "count"),
        ("verify.replay_s", "s"), ("verify.diagnostics", "count"),
        ("sweep.variant_s", "s"), ("sweep.quarantined", "count"),
        ("service.batch_s", "s"), ("service.group_requests", "count"),
        ("server.wait_ms", "ms"), ("server.rejected", "count"),
        ("server.generator_lag_ms", "ms"),
    ]
    for backend in BACKENDS:
        names += [
            (f"engine.us_per_call.{backend}", "us"),
            (f"engine.ns_per_check.{backend}", "ns"),
            (f"scheduler.options_per_attempt.{backend}", "options/attempt"),
            (f"scheduler.checks_per_attempt.{backend}", "checks/attempt"),
        ]
    names += [(f"self.{layer}_s", "s") for layer in LAYERS]
    names += [
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
        ("trace.self_sum_error", "ratio"), ("trace.spans", "count"),
    ]
    return names


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def _paper_counters(rows) -> Dict[str, float]:
    """The paper's counters next to engine time, over table rows."""
    rows = list(rows)

    def total(key: str) -> float:
        return sum(row[key] for row in rows)

    return {
        "attempts": total("attempts"),
        "options_per_attempt": _ratio(total("options"), total("attempts")),
        "checks_per_attempt": _ratio(total("checks"), total("attempts")),
        "us_per_call": _ratio(total("query_s"), total("calls")) * 1e6,
        # The memoized automaton makes almost no resource checks, so its
        # per-check cost means little (and reads 0 with none at all).
        "ns_per_check": _ratio(total("query_s"), total("checks")) * 1e9,
    }


def engine_table(spans: List[Dict[str, Any]]) -> Dict[Tuple[str, str], Dict]:
    """Paper counters next to engine time, per (machine, backend)."""
    table: Dict[Tuple[str, str], Dict[str, float]] = {}
    for record in spans:
        if record["name"] != "scheduler.schedule":
            continue
        attrs = record["attrs"]
        row = table.setdefault((attrs["machine"], attrs["backend"]), {
            "attempts": 0, "options": 0, "checks": 0, "query_s": 0.0,
            "calls": 0,
        })
        for key in ("attempts", "options", "checks"):
            row[key] += attrs[key]
        seconds, calls = record["folded"].get("engine.query", (0.0, 0))
        row["query_s"] += seconds
        row["calls"] += calls
    for row in table.values():
        row.update(_paper_counters([row]))
    return table


def self_time_check(spans: List[Dict[str, Any]], wall: float,
                    main_thread: int) -> Tuple[Dict[str, float], float]:
    """Per-layer self seconds and the worst relative sum error.

    Self time is clamped at zero, so overlapping or double-counted spans
    show up as a sum larger than the roots.  For each thread the clamped
    self times must add up to its root spans' durations; on the main
    thread those roots must add up to the traced wall time as well.
    """
    children: Dict[int, float] = {}
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]] = (
                children.get(record["parent"], 0.0)
                + record["end"] - record["start"]
            )
    layers = {layer: 0.0 for layer in LAYERS}
    per_thread: Dict[int, List[float]] = {}
    for record in spans:
        duration = record["end"] - record["start"]
        folded = sum(entry[0] for entry in record["folded"].values())
        own = max(0.0, duration - children.get(record["id"], 0.0) - folded)
        sums = per_thread.setdefault(record["thread"], [0.0, 0.0])
        sums[0] += own + folded
        if record["parent"] is None:
            sums[1] += duration
        layer = layer_of(record["name"])
        layers[layer] = layers.get(layer, 0.0) + own
        for name, (seconds, _) in record["folded"].items():
            layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + seconds
    error = 0.0
    for thread, (self_sum, roots) in per_thread.items():
        error = max(error, abs(self_sum - roots) / max(roots, 1e-9))
        if thread == main_thread:
            error = max(error, abs(roots - wall) / max(wall, 1e-9))
    return layers, error


def layer_metrics(
    tracer: Tracer,
    wall: float,
    traced_wall: float,
    untraced_wall: float,
    main_thread: int,
    extra: Dict[str, float],
) -> Tuple[Dict[str, Tuple[float, str]], float, Dict]:
    """Every per-layer metric from one traced run.

    ``wall`` is all traced time (set-up and cycles); ``traced_wall`` and
    ``untraced_wall`` are the cycles' time with and without tracing.
    ``extra`` carries the figures that come from the program's own
    outputs rather than spans (cache counters, server timings, sizes).
    Returns the metrics, the self-sum error, and the engine table.
    """
    spans = tracer.spans
    totals = inclusive(spans)

    def seconds(name: str) -> float:
        return totals.get(name, [0.0, 0])[0]

    values: Dict[str, float] = {
        "hmdes.preprocess_s": seconds("hmdes.preprocess"),
        "hmdes.lex_s": seconds("hmdes.lex"),
        "hmdes.parse_s": seconds("hmdes.parse"),
        "hmdes.translate_s": seconds("hmdes.translate"),
        "hmdes.tokens": attr_sum(spans, "hmdes.lex", "tokens"),
        "machines.resolve_s": seconds("machines.resolve"),
        "core.expand_s": seconds("core.expand"),
        "transforms.options_out":
            attr_sum(spans, "transforms.staged", "options_out"),
        "transforms.usages_out":
            attr_sum(spans, "transforms.staged", "usages_out"),
        "eichenberger.reduce_s": seconds("eichenberger.reduce"),
        "lowlevel.compile_s": seconds("lowlevel.compile"),
        "lowlevel.pack_s": seconds("lowlevel.pack"),
        "engine.create_s": seconds("engine.create"),
        "engine.query_s": seconds("engine.query"),
        "engine.query_calls": totals.get("engine.query", [0.0, 0])[1],
        "scheduler.schedule_s": seconds("scheduler.schedule"),
        "ir.dependence_s": seconds("ir.dependence"),
        "ir.edges": tracer.counters.get("ir.edges", 0),
        "verify.replay_s": seconds("verify.replay"),
        "verify.diagnostics":
            attr_sum(spans, "verify.replay", "diagnostics"),
        "service.batch_s": median([
            record["end"] - record["start"] for record in spans
            if record["name"] == "service.batch"
        ]),
    }
    for stage in STAGES:
        values[f"transforms.{stage}_s"] = seconds(f"transforms.{stage}")
    table = engine_table(spans)
    overall = _paper_counters(table.values())
    values["scheduler.attempts"] = overall["attempts"]
    values["scheduler.options_per_attempt"] = overall["options_per_attempt"]
    values["scheduler.checks_per_attempt"] = overall["checks_per_attempt"]
    values["engine.us_per_call"] = overall["us_per_call"]
    values["engine.ns_per_check"] = overall["ns_per_check"]
    for backend in BACKENDS:
        counters = _paper_counters(
            row for (_, name), row in table.items() if name == backend
        )
        for key in ("us_per_call", "ns_per_check"):
            values[f"engine.{key}.{backend}"] = counters[key]
        for key in ("options_per_attempt", "checks_per_attempt"):
            values[f"scheduler.{key}.{backend}"] = counters[key]
    layers, error = self_time_check(spans, wall, main_thread)
    for layer in LAYERS:
        values[f"self.{layer}_s"] = layers.get(layer, 0.0)
    values["scheduler.self_s"] = layers.get("scheduler", 0.0)
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": _ratio(
            traced_wall - untraced_wall, untraced_wall),
        "trace.self_sum_error": error,
        "trace.spans": len(spans),
    })
    values.update(extra)
    metrics = {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in metric_names()
    }
    return metrics, error, table


def check_self_sum(error: float) -> str:
    """An error message when the self times miss the tolerance."""
    if error > SELF_SUM_TOLERANCE:
        return (
            f"layer self times miss the traced wall time by {error:.2%} "
            f"(tolerance {SELF_SUM_TOLERANCE:.0%})"
        )
    return ""
