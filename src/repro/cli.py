"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``machines`` -- list the built-in machine descriptions.
* ``tables [--ops N] [--table N]`` -- regenerate the paper's tables.
* ``figures [--name figN]`` -- regenerate the paper's figures.
* ``lint (FILE | --machine NAME)`` -- MDES diagnostics.
* ``optimize FILE -o OUT`` -- run the transformation pipeline on an
  HMDES file and write the optimized description back as HMDES.
* ``expand FILE -o OUT`` -- the AND/OR -> OR preprocessor.
* ``generate --machine NAME --ops N -o FILE`` -- synthesize a workload
  trace.
* ``schedule (--machine NAME | --trace FILE) [--backend NAME]
  [options]`` -- schedule a workload on one registered backend and
  report the paper's statistics.
* ``exact --machine NAME [--ops N] [--node-budget N]
  [--time-budget S] [--max-block-ops N]`` -- schedule a small workload
  with the branch-and-bound exact scheduler and report the per-block
  optimality gap against the list-scheduler seed.
* ``schedule-batch (--machine NAME | --trace FILE) [--lmdes FILE]
  [--chunk-size N] [--retries N] [--on-error raise|report]
  [options]`` -- schedule a workload in chunks (or against a shipped
  LMDES file), retrying recoverable faults and quarantining poisoned
  blocks.
* ``serve [--host H] [--port P] [--prewarm NAME]
  [--max-inflight N] [--per-client N] [--deadline S]`` -- run the
  long-running scheduling service: POST workloads to
  ``/v1/schedule``, every request served out of one warm description
  cache, with ``/metrics`` and ``/healthz`` wired to the obs and
  resilience layers.
* ``sweep [--family NAME] [--count N] [--seed N]
  [--exact-sample N] [--out FILE] [--json]`` -- schedule one fixed
  workload across a seeded synthetic machine fleet
  (``synth:<family>:<seed>:<index>``), verify every variant against
  the oracle, and report transform effectiveness vs. machine
  complexity; ``--out`` streams the per-variant rows as JSONL.
* ``verify [--machine NAME] [--backend NAME] [options]`` -- schedule a
  seeded workload and replay it through the independent oracle; with
  ``--golden DIR`` check (or ``--regen`` regenerate) the golden
  conformance corpus (paper machines plus the pinned synth
  mini-fleet).
* ``fuzz [--seed N] [--cases N] [--no-shrink] [--out DIR]`` -- run the
  cross-backend differential fuzzer over generated HMDES descriptions,
  shrinking any divergence to a minimal reproducer.
* ``stats --machine NAME [--prom]`` -- run one observed workload and
  print the obs metrics registry (optionally Prometheus exposition),
  with estimated p50/p95/p99 per histogram.
* ``trace (--machine NAME | --input FILE) [--hot] [--flamegraph]
  [--memory] [-o FILE]`` -- run one observed workload (or load a saved
  JSONL trace) and print its span tree, a self-time hot-span table, or
  a collapsed-stack flamegraph.
* ``report [--ops N] [-o FILE]`` -- regenerate EXPERIMENTS.md.

``schedule``, ``exact``, ``schedule-batch`` and the live ``verify``
matrix build a ``ScheduleRequest`` / ``BatchRequest`` and schedule
through :mod:`repro.api`, as the server does.  Their ``--json`` is the
``ScheduleResponse`` wire form without the schedules, plus the obs
digest (per-phase seconds and per-transform size/option deltas) and, for
exact runs, the per-block gap table; ``REPRO_OBS=1`` turns recording on
for library use.

A missing or malformed user-named file (description, trace, saved span
file) and an unknown trace machine exit 2 with one
``<command>: <message>`` line on stderr, as a bad request does.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import MdesError, RequestError, ServiceError
from repro.machines import MACHINE_NAMES, get_machine
from repro.machines.registry import EXTRA_MACHINE_NAMES

#: Every machine the CLI can target (paper four + retargeting demos).
ALL_MACHINE_NAMES = MACHINE_NAMES + EXTRA_MACHINE_NAMES

#: What a user-named input can get wrong: a bad description, request or
#: value, or an unreadable file.  Each exits 2 with one line on stderr.
_INPUT_ERRORS = (MdesError, RequestError, ValueError, OSError)


def _input_error(args: argparse.Namespace, exc: Exception) -> int:
    print(f"{args.command}: {exc}", file=sys.stderr)
    return 2


def _reads_user_files(handler):
    """Give a command that reads a user-named file the exit 2 of
    :data:`_INPUT_ERRORS` instead of a traceback."""

    def run(args: argparse.Namespace) -> int:
        try:
            return handler(args)
        except _INPUT_ERRORS as exc:
            return _input_error(args, exc)

    return run


def _machine_arg(value: str) -> str:
    """Argparse type for ``--machine``: a built-in name or a synthetic
    fleet name (``synth:<family>:<seed>:<index>``), validated eagerly
    so malformed names fail at parse time like a bad choice would."""
    from repro.machines.synth import get_family, is_synth_name, parse_name

    if is_synth_name(value):
        try:
            get_family(parse_name(value)[0])
        except KeyError as exc:
            raise argparse.ArgumentTypeError(
                exc.args[0] if exc.args else str(exc)
            ) from None
        return value
    if value in ALL_MACHINE_NAMES:
        return value
    raise argparse.ArgumentTypeError(
        "invalid choice: %r (choose from %s, or synth:<family>:<seed>:<index>)"
        % (value, ", ".join(repr(name) for name in ALL_MACHINE_NAMES))
    )


def _cmd_machines(args: argparse.Namespace) -> int:
    for name in ALL_MACHINE_NAMES:
        machine = get_machine(name)
        mdes = machine.build()
        print(
            f"{name:11s} {machine.scheduling_mode:8s} "
            f"{len(mdes.op_classes):3d} classes  "
            f"{len(mdes.opcode_map):3d} opcodes  "
            f"{len(mdes.resources):3d} resources  "
            f"{mdes.stored_option_count():4d} stored options "
            f"({mdes.expanded().stored_option_count()} flat)"
        )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis import ExperimentSuite

    suite = ExperimentSuite(total_ops=args.ops)
    if args.table is None:
        print(suite.all_tables())
        return 0
    methods = {
        1: lambda: suite.table_breakdown("SuperSPARC"),
        2: lambda: suite.table_breakdown("PA7100"),
        3: lambda: suite.table_breakdown("Pentium"),
        4: lambda: suite.table_breakdown("K5"),
        5: suite.table5, 6: suite.table6, 7: suite.table7,
        8: suite.table8, 9: suite.table9, 10: suite.table10,
        11: suite.table11, 12: suite.table12, 13: suite.table13,
        14: suite.table14, 15: suite.table15,
    }
    if args.table not in methods:
        print(f"no table {args.table}; choose 1-15", file=sys.stderr)
        return 2
    print(methods[args.table]())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import ExperimentSuite

    suite = ExperimentSuite(total_ops=args.ops)
    figures = {
        "fig1": suite.fig1_load_reservation_tables,
        "fig2": suite.fig2_options_distribution,
        "fig3": suite.fig3_representations,
        "fig4": suite.fig4_sharing,
        "fig5": suite.fig5_shifted_load,
        "fig6": suite.fig6_tree_order,
    }
    names = [args.name] if args.name else sorted(figures)
    for name in names:
        if name not in figures:
            print(f"no figure {name!r}; choose fig1-fig6",
                  file=sys.stderr)
            return 2
        print(f"=== {name} ===")
        print(figures[name]())
        print()
    return 0


def _load_description(args: argparse.Namespace):
    from repro.hmdes import load_mdes

    if getattr(args, "machine", None):
        return get_machine(args.machine).build()
    with open(args.file) as handle:
        return load_mdes(handle.read())


@_reads_user_files
def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.hmdes.validator import lint_mdes

    mdes = _load_description(args)
    diagnostics = lint_mdes(mdes)
    for diagnostic in diagnostics:
        print(diagnostic)
    warnings = sum(1 for d in diagnostics if d.severity == "warning")
    print(f"{warnings} warning(s), {len(diagnostics) - warnings} info")
    return 1 if warnings and args.strict else 0


@_reads_user_files
def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.hmdes import load_mdes, write_mdes
    from repro.lowlevel import compile_mdes, mdes_size_bytes
    from repro.transforms import optimize

    with open(args.file) as handle:
        mdes = load_mdes(handle.read())
    before = mdes_size_bytes(compile_mdes(mdes, bitvector=True))
    optimized = optimize(mdes, direction=args.direction)
    after = mdes_size_bytes(compile_mdes(optimized, bitvector=True))
    text = write_mdes(optimized)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(
        f"{args.file}: {before} -> {after} bytes "
        f"({(before - after) / before * 100:.1f}% smaller); wrote "
        f"{args.output}"
    )
    return 0


@_reads_user_files
def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.transforms.pipeline import staged_mdes
    from repro.hmdes import load_mdes
    from repro.lowlevel import compile_mdes, mdes_size_bytes
    from repro.lowlevel.serialize import save_lmdes

    if args.machine:
        base = get_machine(args.machine).build_andor()
    else:
        with open(args.file) as handle:
            base = load_mdes(handle.read())
    mdes = staged_mdes(base, args.stage)
    compiled = compile_mdes(mdes, bitvector=not args.no_bitvector)
    text = save_lmdes(compiled)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(
        f"wrote {args.output}: {mdes_size_bytes(compiled)} bytes of "
        f"compiled constraints (stage {args.stage})"
    )
    return 0


@_reads_user_files
def _cmd_expand(args: argparse.Namespace) -> int:
    from repro.hmdes import load_mdes, write_mdes

    with open(args.file) as handle:
        mdes = load_mdes(handle.read())
    flat = mdes.expanded()
    with open(args.output, "w") as handle:
        handle.write(write_mdes(flat))
    print(
        f"{args.file}: {mdes.stored_option_count()} stored options -> "
        f"{flat.stored_option_count()} flat options; wrote {args.output}"
    )
    return 0


def _workload(args: argparse.Namespace, name: Optional[str] = None):
    """``(machine, blocks)`` read from ``--trace``, or generated for the
    machine *name* (default ``--machine``) from ``--ops`` and ``--seed``."""
    from repro.workloads import WorkloadConfig, generate_blocks
    from repro.workloads.trace import TraceError, read_trace

    if getattr(args, "trace", None):
        with open(args.trace) as handle:
            text = handle.read()
        try:
            trace_machine, blocks = read_trace(text)
        except TraceError as exc:
            raise RequestError(f"{args.trace}: {exc}") from None
        name = args.machine or trace_machine
        if not name:
            raise RequestError(
                f"{args.trace} names no .machine; pass --machine"
            )
        try:
            return get_machine(name), blocks
        except KeyError as exc:
            raise RequestError(exc.args[0]) from None
    name = name or args.machine
    if not name:
        raise RequestError("needs --machine or --trace")
    machine = get_machine(name)
    return machine, generate_blocks(
        machine, WorkloadConfig(total_ops=args.ops, seed=args.seed)
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads.trace import write_trace

    machine, blocks = _workload(args)
    text = write_trace(blocks, machine.name)
    with open(args.output, "w") as handle:
        handle.write(text)
    total = sum(len(block) for block in blocks)
    print(f"wrote {args.output}: {len(blocks)} blocks, {total} ops")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.engine import engine_names, get_engine_spec
    from repro.lowlevel.packed import (
        PACKED_WORD_BUDGET,
        numpy_available,
        word_count_for,
    )

    for name in engine_names():
        spec = get_engine_spec(name)
        packing = "bitvector" if spec.bitvector else "scalar"
        flags = ",".join(
            flag for flag, enabled in (
                ("modulo", spec.supports_modulo),
                ("vectorized", spec.vectorized),
                ("exact", spec.scheduler == "exact"),
            ) if enabled
        ) or "-"
        print(
            f"{name:13s} {spec.rep:5s} {packing:9s} "
            f"min-stage {spec.min_stage}  [{flags}]  {spec.description}"
        )
    numpy_state = "available" if numpy_available() else "unavailable"
    print(
        f"\npacked layout: numpy {numpy_state}, word budget "
        f"{PACKED_WORD_BUDGET} ({PACKED_WORD_BUDGET * 64} resources)"
    )
    for name in ALL_MACHINE_NAMES:
        mdes = get_machine(name).build()
        words = word_count_for(len(mdes.resources))
        eligible = (
            "packed" if numpy_available() and words <= PACKED_WORD_BUDGET
            else "scalar fallback"
        )
        print(
            f"  {name:11s} {len(mdes.resources):3d} resources  "
            f"{words} word(s)  {eligible}"
        )
    return 0


def _per_block(run) -> List[dict]:
    """The gap table of an exact run, one row per block."""
    return [
        {
            "ops": len(result.schedule.block),
            "length": result.length,
            "heuristic_length": result.heuristic_length,
            "gap": result.gap,
            "lower_bound": result.lower_bound,
            "optimal": result.optimal,
            "reason": result.reason,
            "nodes": result.nodes,
            "repairs": result.repairs,
            "seconds": result.seconds,
        }
        for result in run.results
    ]


def _show_response(args: argparse.Namespace, response) -> int:
    """Print a :class:`~repro.service.ScheduleResponse`.

    ``--json`` prints its wire form without the schedules, plus the obs
    digest and, for exact runs, the ``per_block`` gap table; otherwise
    one human summary, with the chunk, oracle, resilience and exact
    lines the envelope carries.
    """
    import json

    from repro import obs

    exact = response.exact
    per_block = _per_block(response.result) if exact is not None else None
    if args.json:
        document = response.to_dict(include_schedules=False)
        if per_block is not None:
            document["per_block"] = per_block
        document["obs"] = obs.summary()
        print(json.dumps(document, indent=2))
        return 0
    print(f"machine:             {response.machine} (backend "
          f"{response.backend}, stage {response.stage})")
    if response.kind == "batch":
        print(f"chunks:              {response.result.chunk_count}")
    if exact is not None:
        print(f"blocks:              {response.blocks} "
              f"({exact['optimal_blocks']} proven optimal)")
    print(f"operations:          {response.ops}")
    print(f"schedule cycles:     {response.cycles}")
    if exact is not None:
        print(f"heuristic cycles:    {exact['heuristic_cycles']}")
        print(f"gap (cycles saved):  {exact['gap_cycles']}")
        print(f"search nodes:        {exact['nodes']} "
              f"({exact['repairs']} repair(s), {exact['pruned']} pruned)")
    else:
        options = response.options_per_attempt
        checks = response.checks_per_attempt
        print(f"attempts/op:         {response.attempts_per_op:.2f}")
        print(f"options/attempt:     {options:.2f}")
        print(f"checks/attempt:      {checks:.2f}")
        print(f"checks/option:       "
              f"{checks / options if options else 0.0:.2f}")
    print(f"wall seconds:        {response.wall_seconds:.3f}")
    if response.verify is not None:
        report = response.verify
        verdict = "ok" if report["ok"] else (
            f"FAILED ({report['diagnostics']} diagnostics)"
        )
        print(f"oracle verification: {verdict} "
              f"({report['blocks']} blocks replayed)")
    resilience = response.resilience
    if resilience and (resilience["retries"] or response.errors):
        print(f"resilience:          {resilience['retries']} retry(ies), "
              f"{resilience['quarantined']} quarantined")
        for failure in response.errors:
            print(f"  quarantined block {failure.block_index}: "
                  f"{failure.error_type}: {failure.message}")
    if per_block is not None:
        print()
        print("block   ops  exact  heur  gap  lower  reason       nodes")
        for index, entry in enumerate(per_block):
            print(
                f"{index:5d} {entry['ops']:5d} {entry['length']:6d} "
                f"{entry['heuristic_length']:5d} {entry['gap']:4d} "
                f"{entry['lower_bound']:6d}  {entry['reason']:11s} "
                f"{entry['nodes']:6d}"
            )
    return 0


def _run(args: argparse.Namespace, body, show=_show_response) -> int:
    """The frame every scheduling command runs in.

    ``body()`` resolves the workload and schedules it through
    :mod:`repro.api` inside the ``cli:<command>`` span; ``show(args,
    outcome)`` prints what it returned and gives the exit code.
    Recording is forced on for ``--json`` / ``--trace-out``, whose
    output embeds it.  A bad description, request or value, or an
    unreadable file, exits 2; a service failure exits 3, with one line
    per failed block.
    """
    from repro import obs
    from repro.service import ScheduleResponse

    trace_out = getattr(args, "trace_out", None)
    if args.json or trace_out:
        obs.enable()
        obs.reset()
    try:
        with obs.span(f"cli:{args.command}") as span:
            outcome = body()
    except ServiceError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(
                f"  block {failure.block_index} (chunk "
                f"{failure.chunk_index}, {failure.attempts} "
                f"attempt(s)): {failure.error_type}: {failure.message}",
                file=sys.stderr,
            )
        return 3
    except _INPUT_ERRORS as exc:
        return _input_error(args, exc)
    if obs.enabled() and isinstance(outcome, ScheduleResponse):
        # The JSON and the trace agree on the command's wall clock.
        outcome.wall_seconds = span.seconds
    if trace_out:
        with open(trace_out, "w") as handle:
            handle.write(obs.trace_to_jsonl(obs.TRACER))
    return show(args, outcome)


def _schedule_request(args: argparse.Namespace):
    """The ``ScheduleRequest`` of ``schedule`` and ``exact``."""
    from repro import api

    machine, blocks = _workload(args)
    return api.ScheduleRequest(
        machine=machine, blocks=blocks,
        backend=args.backend, stage=args.stage,
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro import api
    from repro.engine.cache import DescriptionCache

    # A private cold cache: the --json transform digest always shows the
    # whole compile, whatever this process compiled before.
    return _run(args, lambda: api.schedule(
        _schedule_request(args), cache=DescriptionCache(name="cli"),
    ))


def _cmd_exact(args: argparse.Namespace) -> int:
    from repro import api

    return _run(args, lambda: api.schedule_exact(
        _schedule_request(args),
        budget=api.ExactBudget(
            max_nodes=args.node_budget, max_seconds=args.time_budget,
        ),
        max_block_ops=args.max_block_ops,
    ))


def _cmd_schedule_batch(args: argparse.Namespace) -> int:
    from repro import api

    def body():
        machine, blocks = _workload(args)
        return api.schedule_batch(api.BatchRequest(
            machine=machine, blocks=blocks,
            config=api.BatchConfig(
                backend=args.backend,
                lmdes_path=args.lmdes,
                stage=args.stage,
                chunk_size=args.chunk_size,
                retry=api.RetryPolicy(retries=args.retries),
                on_error=args.on_error,
                verify=args.verify,
            ),
        ))

    return _run(args, body)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.sweep import SweepConfig, run_sweep

    config = SweepConfig(
        family=args.family,
        count=args.count,
        seed=args.seed,
        ops=args.ops,
        workload_seed=args.workload_seed,
        backend=args.backend,
        stage=args.stage,
        verify=not args.no_verify,
        exact_sample=args.exact_sample,
    )
    try:
        config.validate()
    except (KeyError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    progress = None
    if not args.json and sys.stderr.isatty():
        def progress(done: int, total: int) -> None:
            print(f"\rsweep: {done}/{total} variants",
                  end="", file=sys.stderr, flush=True)
    report = run_sweep(config, progress=progress)
    if progress is not None:
        print(file=sys.stderr)
    if args.out:
        path = report.write_jsonl(args.out)
        if not args.json:
            print(f"wrote {path}")
    if args.json:
        print(json.dumps(report.summary_dict(), indent=2))
    else:
        print(report.summary_table())
        if not report.ok:
            for variant in report.variants:
                if not variant.ok:
                    print(
                        f"quarantined {variant.name}: "
                        f"{variant.error_type}: {variant.error_message}",
                        file=sys.stderr,
                    )
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.golden:
        return _verify_golden(args)
    from repro import api

    names = [args.machine] if args.machine else list(MACHINE_NAMES)
    backends = (
        [args.backend] if args.backend
        else api.engine_names(scheduler="list")
    )

    def body():
        verdicts = []
        for name in names:
            machine, blocks = _workload(args, name)
            for backend in backends:
                response = api.schedule(api.ScheduleRequest(
                    machine=machine, blocks=blocks, backend=backend,
                    stage=args.stage, direction=args.direction,
                ))
                report = api.verify_schedule(
                    machine, response.schedules, direction=args.direction
                )
                verdicts.append((backend, report))
                if args.json:
                    continue
                for diagnostic in report.diagnostics:
                    print(f"  {diagnostic}", file=sys.stderr)
                verdict = "ok" if report.ok else (
                    f"FAILED ({len(report.diagnostics)} diagnostics)"
                )
                print(
                    f"{machine.name:11s} {backend:13s} "
                    f"{report.blocks_checked:4d} blocks "
                    f"{report.ops_checked:6d} ops  {verdict}"
                )
        return verdicts

    return _run(args, body, _show_verdicts)


def _show_verdicts(args: argparse.Namespace, verdicts) -> int:
    """``verify``'s exit code, and its verdict list for ``--json``."""
    import json

    if args.json:
        print(json.dumps(
            [dict(report.summary(), backend=backend)
             for backend, report in verdicts],
            indent=2,
        ))
    return 0 if all(report.ok for _, report in verdicts) else 1


def _verify_golden(args: argparse.Namespace) -> int:
    from repro.verify import (
        check_corpus,
        check_synth_fleet,
        write_corpus,
        write_synth_fleet,
    )

    if args.regen:
        written = write_corpus(args.golden)
        written.append(write_synth_fleet(args.golden))
        for path in written:
            print(f"wrote {path}")
        return 0
    mismatches = check_corpus(args.golden)
    mismatches.extend(check_synth_fleet(args.golden))
    if mismatches:
        for mismatch in mismatches:
            print(f"golden mismatch: {mismatch}", file=sys.stderr)
        print(
            f"{len(mismatches)} golden-corpus mismatch(es); "
            f"regenerate with: repro verify --golden {args.golden} "
            "--regen",
            file=sys.stderr,
        )
        return 1
    print(f"golden corpus {args.golden}: ok")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import QueuePolicy, ServerConfig, create_app
    from repro.server.http import serve

    prewarm_names = list(args.prewarm or ())
    if "all" in prewarm_names:
        prewarm_names = list(MACHINE_NAMES)
    for name in prewarm_names:
        if name not in ALL_MACHINE_NAMES:
            print(f"serve --prewarm: unknown machine {name!r}",
                  file=sys.stderr)
            return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        chunk_size=args.chunk_size,
        queue=QueuePolicy(
            max_inflight=args.max_inflight,
            per_client_inflight=args.per_client,
        ),
        window_seconds=args.window_ms / 1000.0,
        submit_threads=args.submit_threads,
        prewarm=tuple(
            (name, args.prewarm_backend) for name in prewarm_names
        ),
        default_deadline_seconds=args.deadline,
        drain_seconds=args.drain,
    )
    print(f"repro serve: http://{args.host}:{args.port} "
          f"(max_inflight={args.max_inflight}, "
          f"prewarm={prewarm_names or 'none'})")
    serve(create_app(config), host=args.host, port=args.port)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.verify import fuzz
    from repro.workloads.trace import write_trace

    def progress(done: int, failures: int) -> None:
        if not args.json and done % 25 == 0:
            print(f"  {done}/{args.cases} cases, {failures} failure(s)")

    report = fuzz(
        seed=args.seed,
        cases=args.cases,
        shrink=not args.no_shrink,
        progress=progress,
    )
    artifacts = []
    if report.failures and args.out:
        os.makedirs(args.out, exist_ok=True)
        for failure in report.failures:
            stem = os.path.join(args.out, f"fuzz_{failure.seed}")
            with open(f"{stem}.hmdes", "w") as handle:
                handle.write(failure.shrunk_source)
            with open(f"{stem}.trace", "w") as handle:
                handle.write(write_trace(
                    failure.case.blocks, failure.case.machine.name
                ))
            with open(f"{stem}.json", "w") as handle:
                json.dump(failure.summary(), handle, indent=2)
            artifacts.extend(
                [f"{stem}.hmdes", f"{stem}.trace", f"{stem}.json"]
            )
    if args.json:
        print(json.dumps({
            "seed": report.seed,
            "cases": report.cases,
            "failures": [f.summary() for f in report.failures],
            "artifacts": artifacts,
        }, indent=2))
    else:
        print(
            f"fuzz: {report.cases} cases from seed {report.seed}: "
            f"{len(report.failures)} failure(s)"
        )
        for failure in report.failures:
            ops, options, usages = failure.shrunk_size
            print(
                f"  seed {failure.seed}: "
                f"{len(failure.divergences)} divergence(s), shrunk to "
                f"{ops} op(s) / {options} option(s) / {usages} usage(s) "
                f"in {failure.shrink_steps} cut(s)"
            )
            for divergence in failure.divergences[:5]:
                print(f"    {divergence}")
        for path in artifacts:
            print(f"  wrote {path}")
    return 1 if report.failures else 0


def _obs_demo_run(args: argparse.Namespace):
    """Run one observed workload for ``stats``/``trace``.

    Returns the engine so its weakly-referenced ``CheckStats`` view
    stays alive until the caller has printed the registry.
    """
    from repro import obs
    from repro.engine import create_engine
    from repro.engine.cache import DescriptionCache
    from repro.scheduler import schedule_workload

    obs.enable()
    if getattr(args, "memory", False):
        obs.enable_memory()
    obs.reset()
    machine, blocks = _workload(args)
    # A private cold cache: the demo always shows the whole pipeline
    # (hmdes -> transforms -> compile), not a warm-process shortcut.
    engine = create_engine(
        args.backend, machine, stage=args.stage,
        cache=DescriptionCache(name="demo"),
    )
    schedule_workload(machine, None, blocks, engine=engine)
    return engine


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs

    engine = _obs_demo_run(args)
    if args.prom:
        print(obs.to_prometheus(obs.REGISTRY), end="")
    else:
        print(obs.format_metrics(obs.REGISTRY))
        quantiles = obs.format_quantiles(obs.REGISTRY)
        if quantiles:
            print("\nestimated quantiles (bucket interpolation):")
            print(quantiles)
    del engine
    return 0


@_reads_user_files
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import prof

    engine = None
    if args.input:
        with open(args.input) as handle:
            roots = obs.trace_from_jsonl(handle.read())
    else:
        engine = _obs_demo_run(args)
        roots = obs.TRACER.roots
    if args.flamegraph:
        text = prof.flamegraph(roots)
        if text:
            print(text)
    elif args.hot:
        print(prof.format_hot_spans(roots, limit=args.limit))
    elif getattr(args, "memory", False) and args.input is None:
        print(obs.format_trace(roots))
        print()
        print(prof.format_memory(roots))
    else:
        print(obs.format_trace(roots))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(obs.trace_to_jsonl(roots))
        print(f"wrote {args.output}")
    del engine
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import main as report_main

    report_main(["--ops", str(args.ops), "-o", args.output])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    from repro.engine import engine_names
    from repro.exact import ExactBudget
    from repro.machines.synth import family_names
    from repro.server import QueuePolicy, ServerConfig
    from repro.service import DEFAULT_BACKEND, BatchConfig, RetryPolicy
    from repro.sweep import SweepConfig
    from repro.transforms.pipeline import FINAL_STAGE
    from repro.workloads import WorkloadConfig

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Machine-description optimization toolkit (MICRO-29 1996 "
            "reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def workload_args(sub, ops: int, required: bool = False,
                      machine_help: Optional[str] = None,
                      ops_help: Optional[str] = None) -> None:
        """``--machine --ops --seed --stage`` of the scheduling commands."""
        sub.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                         required=required, default=None, help=machine_help)
        sub.add_argument("--ops", type=int, default=ops, help=ops_help)
        sub.add_argument("--seed", type=int, default=WorkloadConfig.seed)
        sub.add_argument("--stage", type=int, default=FINAL_STAGE,
                         help="transformation stage 0-4")

    commands.add_parser("machines", help="list built-in machines")

    commands.add_parser(
        "engines", help="list registered constraint-check backends"
    )

    tables = commands.add_parser("tables", help="regenerate paper tables")
    tables.add_argument("--ops", type=int, default=10000)
    tables.add_argument("--table", type=int, default=None)

    figures = commands.add_parser("figures",
                                  help="regenerate paper figures")
    figures.add_argument("--ops", type=int, default=10000)
    figures.add_argument("--name", default=None)

    lint = commands.add_parser("lint", help="lint a machine description")
    lint.add_argument("file", nargs="?", default=None)
    lint.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                      default=None)
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on warnings")

    optimize_cmd = commands.add_parser(
        "optimize", help="optimize an HMDES file"
    )
    optimize_cmd.add_argument("file")
    optimize_cmd.add_argument("-o", "--output", required=True)
    optimize_cmd.add_argument(
        "--direction", choices=("forward", "backward"), default="forward"
    )

    compile_cmd = commands.add_parser(
        "compile", help="compile an HMDES file (or machine) to LMDES"
    )
    compile_cmd.add_argument("file", nargs="?", default=None)
    compile_cmd.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                             default=None)
    compile_cmd.add_argument("--stage", type=int, default=FINAL_STAGE)
    compile_cmd.add_argument("--no-bitvector", action="store_true")
    compile_cmd.add_argument("-o", "--output", required=True)

    expand = commands.add_parser(
        "expand", help="expand AND/OR-trees to flat OR-trees"
    )
    expand.add_argument("file")
    expand.add_argument("-o", "--output", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a workload trace"
    )
    generate.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                          required=True)
    generate.add_argument("--ops", type=int, default=5000)
    generate.add_argument("--seed", type=int, default=WorkloadConfig.seed)
    generate.add_argument("-o", "--output", required=True)

    json_help = (
        "print the ScheduleResponse envelope with per-phase timings and "
        "per-transform effects (forces obs on)"
    )
    trace_out_help = "write the run's span tree as JSONL (forces obs on)"

    schedule = commands.add_parser(
        "schedule", help="schedule a workload and report statistics"
    )
    workload_args(schedule, ops=10000)
    schedule.add_argument("--trace", default=None)
    schedule.add_argument(
        "--backend", choices=engine_names(), default=DEFAULT_BACKEND,
        help="constraint-check backend from the engine registry "
             "(default: %(default)s)",
    )
    schedule.add_argument("--json", action="store_true", help=json_help)
    schedule.add_argument("--trace-out", default=None, metavar="FILE",
                          help=trace_out_help)

    exact = commands.add_parser(
        "exact",
        help=(
            "schedule a workload with the branch-and-bound exact "
            "scheduler and report the optimality gap"
        ),
    )
    workload_args(exact, ops=200, required=True,
                  ops_help="workload size (exact search is exponential; "
                           "keep this small)")
    exact.add_argument(
        "--backend", choices=engine_names(scheduler="exact"),
        default="exact",
        help="exact-scheduler backend from the engine registry",
    )
    exact.add_argument(
        "--node-budget", type=int, default=ExactBudget.max_nodes,
        metavar="N", help="search-node budget per block "
                          "(default: %(default)s)",
    )
    exact.add_argument(
        "--time-budget", type=float, default=ExactBudget.max_seconds,
        metavar="SECONDS",
        help="wall-clock budget per block (default: unbounded)",
    )
    exact.add_argument(
        "--max-block-ops", type=int, default=None, metavar="N",
        help=(
            "largest block to search exactly; bigger blocks keep the "
            "heuristic schedule (default: the registry's cap)"
        ),
    )
    exact.add_argument("--json", action="store_true", help=json_help)

    batch = commands.add_parser(
        "schedule-batch",
        help=(
            "schedule a workload in chunks, with chunk retries and "
            "per-block quarantine"
        ),
    )
    workload_args(batch, ops=10000)
    batch.add_argument("--trace", default=None)
    batch.add_argument("--lmdes", default=None,
                       help="schedule against a compiled LMDES file")
    batch.add_argument(
        "--backend", choices=engine_names(), default=None,
        help=f"constraint-check backend (default: {DEFAULT_BACKEND})",
    )
    batch.add_argument("--chunk-size", type=int,
                       default=BatchConfig.chunk_size,
                       help="blocks per chunk, the unit of retry")
    batch.add_argument(
        "--retries", type=int, default=RetryPolicy.retries,
        help="extra attempts per chunk on retryable failures",
    )
    batch.add_argument(
        "--on-error", choices=("raise", "report"),
        default=BatchConfig.on_error,
        help=(
            "what to do with blocks that fail deterministically: "
            "raise a ServiceError, or report them as typed records in "
            "the result"
        ),
    )
    batch.add_argument(
        "--verify", action="store_true",
        help=(
            "replay the assembled schedules through the independent "
            "oracle after the run"
        ),
    )
    batch.add_argument("--json", action="store_true", help=json_help)
    batch.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help=(
            "write the run's span tree as JSONL, including per-chunk "
            "spans (forces obs on)"
        ),
    )

    sweep = commands.add_parser(
        "sweep",
        help=(
            "schedule one fixed workload across a seeded synthetic "
            "machine fleet and report transform effectiveness vs. "
            "machine complexity"
        ),
    )
    sweep.add_argument(
        "--family", choices=family_names(), default=SweepConfig.family,
        help="synth family preset the fleet is drawn from",
    )
    sweep.add_argument("--count", type=int, default=SweepConfig.count,
                       help="fleet size (variant indices 0..count-1)")
    sweep.add_argument("--seed", type=int, default=SweepConfig.seed,
                       help="fleet seed")
    sweep.add_argument("--ops", type=int, default=SweepConfig.ops,
                       help="workload ops scheduled on every variant")
    sweep.add_argument("--workload-seed", type=int,
                       default=SweepConfig.workload_seed)
    sweep.add_argument(
        "--backend", choices=engine_names(scheduler="list"),
        default=SweepConfig.backend,
        help="constraint-check backend (default: %(default)s)",
    )
    sweep.add_argument("--stage", type=int, default=SweepConfig.stage,
                       help="transformation stage 0-4")
    sweep.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-variant oracle replay",
    )
    sweep.add_argument(
        "--exact-sample", type=int, default=SweepConfig.exact_sample,
        metavar="N",
        help=(
            "run the exact scheduler on every Nth variant and record "
            "the optimality gap (0 = off)"
        ),
    )
    sweep.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the full report (meta + per-variant rows) as JSONL",
    )
    sweep.add_argument("--json", action="store_true",
                       help="emit the machine-readable summary document")

    serve = commands.add_parser(
        "serve",
        help=(
            "run the long-running scheduling service: POST workloads, "
            "get schedules out of one warm description cache"
        ),
    )
    serve.add_argument("--host", default=ServerConfig.host)
    serve.add_argument("--port", type=int, default=ServerConfig.port)
    serve.add_argument("--chunk-size", type=int,
                       default=ServerConfig.chunk_size,
                       help="blocks per batch chunk")
    serve.add_argument(
        "--max-inflight", type=int, default=QueuePolicy.max_inflight,
        help="admitted requests across all clients before 429",
    )
    serve.add_argument(
        "--per-client", type=int, default=QueuePolicy.per_client_inflight,
        help="admitted requests per client id before 429",
    )
    serve.add_argument(
        "--window-ms", type=float,
        default=ServerConfig.window_seconds * 1000.0,
        help="micro-batch window: requests arriving within it share "
             "one batch run",
    )
    serve.add_argument(
        "--submit-threads", type=int, default=ServerConfig.submit_threads,
        help="executor threads driving batch runs",
    )
    serve.add_argument(
        "--prewarm", action="append", default=None, metavar="MACHINE",
        help="compile MACHINE's description at startup (repeatable; "
             "'all' prewarm every built-in machine)",
    )
    serve.add_argument(
        "--prewarm-backend", default=DEFAULT_BACKEND,
        choices=engine_names(),
        help="backend to prewarm (default: %(default)s)",
    )
    serve.add_argument(
        "--deadline", type=float,
        default=ServerConfig.default_deadline_seconds, metavar="SECONDS",
        help="default per-request deadline when the client sets none",
    )
    serve.add_argument(
        "--drain", type=float, default=ServerConfig.drain_seconds,
        metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests",
    )

    verify = commands.add_parser(
        "verify",
        help=(
            "replay schedules through the independent oracle, or check "
            "the golden conformance corpus"
        ),
    )
    workload_args(verify, ops=2000,
                  machine_help="one machine (default: the paper's four)")
    verify.add_argument("--backend", choices=engine_names(), default=None,
                        help="one backend (default: every list backend)")
    verify.add_argument("--direction", choices=("forward", "backward"),
                        default="forward")
    verify.add_argument(
        "--golden", default=None, metavar="DIR",
        help="check the golden corpus under DIR instead of scheduling",
    )
    verify.add_argument(
        "--regen", action="store_true",
        help="with --golden: regenerate the corpus files",
    )
    verify.add_argument("--json", action="store_true",
                        help="emit machine-readable verdicts")

    fuzz_cmd = commands.add_parser(
        "fuzz",
        help=(
            "differential-fuzz generated HMDES descriptions across "
            "every backend and transform stage"
        ),
    )
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="base seed; case i uses seed+i")
    fuzz_cmd.add_argument("--cases", type=int, default=50)
    fuzz_cmd.add_argument(
        "--no-shrink", action="store_true",
        help="report raw failing cases without minimizing them",
    )
    fuzz_cmd.add_argument(
        "--out", default=None, metavar="DIR",
        help=(
            "write each failure's minimal reproducer (.hmdes, .trace, "
            ".json) under DIR"
        ),
    )
    fuzz_cmd.add_argument("--json", action="store_true",
                          help="emit a machine-readable report")

    def obs_demo_args(sub, required: bool = True) -> None:
        workload_args(sub, ops=2000, required=required)
        sub.add_argument("--backend", choices=engine_names(),
                         default=DEFAULT_BACKEND)
        sub.add_argument(
            "--memory", action="store_true",
            help=(
                "record tracemalloc peak/net bytes on memory-capable "
                "spans (slower; implies REPRO_OBS_MEMORY=1)"
            ),
        )

    stats = commands.add_parser(
        "stats",
        help=(
            "run one observed workload and print the metrics registry"
        ),
    )
    obs_demo_args(stats)
    stats.add_argument("--prom", action="store_true",
                       help="Prometheus text exposition instead of the "
                            "human view")

    trace = commands.add_parser(
        "trace",
        help=(
            "run one observed workload (or load a saved trace) and "
            "print its span tree, hot spans, or flamegraph"
        ),
    )
    obs_demo_args(trace, required=False)
    trace.add_argument(
        "--input", default=None, metavar="FILE",
        help="analyze a saved JSONL trace instead of running a workload",
    )
    trace.add_argument(
        "--hot", action="store_true",
        help="print the per-span-name self-time table instead of the tree",
    )
    trace.add_argument(
        "--limit", type=int, default=20,
        help="rows in the --hot table",
    )
    trace.add_argument(
        "--flamegraph", action="store_true",
        help=(
            "print collapsed stacks (name;name;name microseconds) for "
            "flamegraph.pl / speedscope"
        ),
    )
    trace.add_argument("-o", "--output", default=None,
                       help="also write the trace as JSONL")

    report = commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md"
    )
    report.add_argument("--ops", type=int, default=20000)
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")

    return parser


_HANDLERS = {
    "machines": _cmd_machines,
    "engines": _cmd_engines,
    "compile": _cmd_compile,
    "tables": _cmd_tables,
    "figures": _cmd_figures,
    "lint": _cmd_lint,
    "optimize": _cmd_optimize,
    "expand": _cmd_expand,
    "generate": _cmd_generate,
    "schedule": _cmd_schedule,
    "exact": _cmd_exact,
    "schedule-batch": _cmd_schedule_batch,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint" and not args.file and not args.machine:
        parser.error("lint needs a FILE or --machine")
    if args.command == "compile" and not args.file and not args.machine:
        parser.error("compile needs a FILE or --machine")
    if args.command == "trace" and not args.machine and not args.input:
        parser.error("trace needs --machine or --input FILE")
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
