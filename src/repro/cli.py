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
* ``schedule (--machine NAME | --trace FILE) [options]`` -- schedule a
  workload and report the paper's statistics.
* ``exact --machine NAME [--ops N] [--node-budget N]
  [--time-budget S] [--max-block-ops N]`` -- schedule a small workload
  with the branch-and-bound exact scheduler and report the per-block
  optimality gap against the list-scheduler seed.
* ``schedule-batch (--machine NAME | --trace FILE) [--chunk-size N]
  [--cache-dir DIR] [--retries N] [--on-error raise|report]
  [options]`` -- schedule a workload in chunks with a persistent
  on-disk description cache, retrying recoverable faults and
  quarantining poisoned blocks.
* ``serve [--host H] [--port P] [--cache-dir DIR] [--prewarm NAME]
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

``schedule --json`` / ``schedule-batch --json`` embed the obs digest
(per-phase seconds and per-transform size/option deltas); ``REPRO_OBS=1``
turns recording on for library use.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.machines import MACHINE_NAMES, get_machine
from repro.machines.registry import EXTRA_MACHINE_NAMES

#: Every machine the CLI can target (paper four + retargeting demos).
ALL_MACHINE_NAMES = MACHINE_NAMES + EXTRA_MACHINE_NAMES


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


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.hmdes.validator import lint_mdes

    mdes = _load_description(args)
    diagnostics = lint_mdes(mdes)
    for diagnostic in diagnostics:
        print(diagnostic)
    warnings = sum(1 for d in diagnostics if d.severity == "warning")
    print(f"{warnings} warning(s), {len(diagnostics) - warnings} info")
    return 1 if warnings and args.strict else 0


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


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads import WorkloadConfig, generate_blocks
    from repro.workloads.trace import write_trace

    machine = get_machine(args.machine)
    blocks = generate_blocks(
        machine, WorkloadConfig(total_ops=args.ops, seed=args.seed)
    )
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


def _cmd_schedule(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.transforms.pipeline import staged_mdes
    from repro.errors import MdesError
    from repro.lowlevel import compile_mdes
    from repro.scheduler import schedule_workload
    from repro.workloads import WorkloadConfig, generate_blocks
    from repro.workloads.trace import read_trace

    if args.backend and args.lmdes:
        print("schedule --backend and --lmdes are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.json or args.trace_out:
        # Machine-readable output embeds the obs digest, so recording
        # must be on for this run regardless of REPRO_OBS.
        obs.enable()
        obs.reset()
    if args.trace:
        with open(args.trace) as handle:
            machine_name, blocks = read_trace(handle.read())
        machine = get_machine(args.machine or machine_name)
    elif args.lmdes:
        if not args.machine:
            print("schedule --lmdes needs --machine for the workload "
                  "profile", file=sys.stderr)
            return 2
        machine = get_machine(args.machine)
        blocks = generate_blocks(
            machine, WorkloadConfig(total_ops=args.ops, seed=args.seed)
        )
    else:
        if not args.machine:
            print("schedule needs --machine or --trace", file=sys.stderr)
            return 2
        machine = get_machine(args.machine)
        blocks = generate_blocks(
            machine, WorkloadConfig(total_ops=args.ops, seed=args.seed)
        )
    if args.backend:
        from repro.engine import get_engine_spec

        if get_engine_spec(args.backend).scheduler == "exact":
            return _run_exact_cmd(
                machine, blocks, args.backend, args.stage,
                None, None, args.json,
            )
    with obs.span("cli:schedule", machine=machine.name) as sp:
        if args.backend:
            from repro import api
            from repro.errors import RequestError

            try:
                response = api.schedule(api.ScheduleRequest(
                    machine=machine, blocks=tuple(blocks),
                    backend=args.backend, stage=args.stage,
                ))
            except (MdesError, RequestError) as exc:
                print(f"schedule --backend {args.backend}: {exc}",
                      file=sys.stderr)
                return 2
            result = response.result
            configuration = f"backend {args.backend}"
        else:
            if args.lmdes:
                from repro.lowlevel.serialize import load_lmdes

                with open(args.lmdes) as handle:
                    compiled = load_lmdes(handle.read())
            else:
                base = (
                    machine.build_or()
                    if args.rep == "or"
                    else machine.build_andor()
                )
                mdes = staged_mdes(base, args.stage)
                compiled = compile_mdes(
                    mdes, bitvector=not args.no_bitvector
                )
            result = schedule_workload(machine, compiled, blocks)
            configuration = args.rep
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            handle.write(obs.trace_to_jsonl(obs.TRACER))
    stats = result.stats
    if args.json:
        print(json.dumps(
            {
                "machine": machine.name,
                "configuration": configuration,
                "stage": args.stage,
                "ops": result.total_ops,
                "cycles": result.total_cycles,
                "attempts": stats.attempts,
                "attempts_per_op": result.attempts_per_op,
                "options_per_attempt": stats.options_per_attempt,
                "checks_per_attempt": stats.checks_per_attempt,
                "checks_per_option": stats.checks_per_option,
                "wall_seconds": sp.seconds,
                "obs": obs.summary(),
            },
            indent=2,
        ))
        return 0
    print(f"machine:             {machine.name} ({configuration}, "
          f"stage {args.stage})")
    print(f"operations:          {result.total_ops}")
    print(f"schedule cycles:     {result.total_cycles}")
    print(f"attempts/op:         {result.attempts_per_op:.2f}")
    print(f"options/attempt:     {stats.options_per_attempt:.2f}")
    print(f"checks/attempt:      {stats.checks_per_attempt:.2f}")
    print(f"checks/option:       {stats.checks_per_option:.2f}")
    return 0


def _run_exact_cmd(
    machine, blocks, backend, stage, budget, max_block_ops, as_json,
) -> int:
    """Shared body of ``exact`` and ``schedule --backend exact``."""
    import json

    from repro import api, obs

    if as_json:
        obs.enable()
        obs.reset()
    with obs.span("cli:exact", machine=machine.name) as sp:
        run = api.schedule_exact(
            api.ScheduleRequest(
                machine=machine, blocks=tuple(blocks),
                backend=backend, stage=stage,
            ),
            budget=budget, max_block_ops=max_block_ops,
        ).result
    per_block = [
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
    if as_json:
        print(json.dumps(
            {
                "machine": machine.name,
                "backend": backend,
                "stage": stage,
                "blocks": len(run.results),
                "ops": run.total_ops,
                "cycles": run.total_cycles,
                "heuristic_cycles": run.heuristic_cycles,
                "gap_cycles": run.gap_cycles,
                "optimal_blocks": run.optimal_blocks,
                "nodes": run.nodes,
                "repairs": run.repairs,
                "pruned": run.pruned,
                "wall_seconds": sp.seconds,
                "per_block": per_block,
                "obs": obs.summary(),
            },
            indent=2,
        ))
        return 0
    print(f"machine:             {machine.name} (backend {backend}, "
          f"stage {stage})")
    print(f"blocks:              {len(run.results)} "
          f"({run.optimal_blocks} proven optimal)")
    print(f"operations:          {run.total_ops}")
    print(f"exact cycles:        {run.total_cycles}")
    print(f"heuristic cycles:    {run.heuristic_cycles}")
    print(f"gap (cycles saved):  {run.gap_cycles}")
    print(f"search nodes:        {run.nodes} "
          f"({run.repairs} repair(s), {run.pruned} pruned)")
    print(f"wall seconds:        {run.seconds:.3f}")
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


def _cmd_exact(args: argparse.Namespace) -> int:
    from repro.exact import ExactBudget
    from repro.workloads import WorkloadConfig, generate_blocks

    machine = get_machine(args.machine)
    blocks = generate_blocks(
        machine, WorkloadConfig(total_ops=args.ops, seed=args.seed)
    )
    default = ExactBudget()
    budget = ExactBudget(
        max_nodes=(
            args.node_budget if args.node_budget is not None
            else default.max_nodes
        ),
        max_seconds=args.time_budget,
    )
    return _run_exact_cmd(
        machine, blocks, args.backend, args.stage, budget,
        args.max_block_ops, args.json,
    )


def _batch_workload(args: argparse.Namespace):
    """Resolve (machine, blocks) for ``schedule-batch``; None on error."""
    from repro.workloads import WorkloadConfig, generate_blocks
    from repro.workloads.trace import read_trace

    if args.trace:
        with open(args.trace) as handle:
            machine_name, blocks = read_trace(handle.read())
        return get_machine(args.machine or machine_name), blocks
    if not args.machine:
        print("schedule-batch needs --machine or --trace", file=sys.stderr)
        return None
    machine = get_machine(args.machine)
    blocks = generate_blocks(
        machine, WorkloadConfig(total_ops=args.ops, seed=args.seed)
    )
    return machine, blocks


def _cmd_schedule_batch(args: argparse.Namespace) -> int:
    import json
    import time

    from repro import api, obs
    from repro.errors import MdesError, RequestError, ServiceError
    from repro.service import BatchConfig, RetryPolicy

    if args.backend and args.lmdes:
        print(
            "schedule-batch --backend and --lmdes are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.json or args.trace_out:
        obs.enable()
        obs.reset()
    resolved = _batch_workload(args)
    if resolved is None:
        return 2
    machine, blocks = resolved
    config = BatchConfig(
        backend=args.backend,
        lmdes_path=args.lmdes,
        stage=args.stage,
        chunk_size=args.chunk_size,
        cache_dir=args.cache_dir,
        retry=RetryPolicy(retries=args.retries),
        on_error=args.on_error,
        verify=args.verify,
    )
    # The wall clock is an obs span, not an ad-hoc perf_counter: the
    # same timing lands in the trace tree and the JSON obs digest.
    started = time.perf_counter()
    with obs.span("cli:schedule-batch", machine=machine.name) as sp:
        try:
            result = api.schedule_batch(api.BatchRequest(
                machine=machine, blocks=tuple(blocks), config=config,
            )).result
        except ServiceError as exc:
            print(f"schedule-batch: {exc}", file=sys.stderr)
            for failure in exc.failures:
                print(
                    f"  block {failure.block_index} (chunk "
                    f"{failure.chunk_index}, {failure.attempts} "
                    f"attempt(s)): {failure.error_type}: "
                    f"{failure.message}",
                    file=sys.stderr,
                )
            return 3
        except (MdesError, RequestError, ValueError, OSError) as exc:
            print(f"schedule-batch: {exc}", file=sys.stderr)
            return 2
    elapsed = sp.seconds if obs.enabled() else time.perf_counter() - started
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            handle.write(obs.trace_to_jsonl(obs.TRACER))
    stats, cache = result.stats, result.cache_stats
    if args.json:
        print(json.dumps(
            {
                "machine": result.machine_name,
                "backend": result.backend,
                "chunks": result.chunk_count,
                "blocks": len(result.schedules),
                "ops": result.total_ops,
                "cycles": result.total_cycles,
                "attempts": stats.attempts,
                "attempts_per_op": result.attempts_per_op,
                "options_per_attempt": stats.options_per_attempt,
                "checks_per_attempt": stats.checks_per_attempt,
                "wall_seconds": elapsed,
                "cache": result.cache_summary(),
                "resilience": {
                    **result.resilience_summary(),
                    "errors": [f.to_dict() for f in result.errors],
                },
                "verify": (
                    result.verify_report.summary()
                    if result.verify_report is not None else None
                ),
                "obs": obs.summary(),
            },
            indent=2,
        ))
        return 0
    print(f"machine:             {result.machine_name} "
          f"(backend {result.backend}, {result.chunk_count} chunks)")
    print(f"operations:          {result.total_ops}")
    print(f"schedule cycles:     {result.total_cycles}")
    print(f"attempts/op:         {result.attempts_per_op:.2f}")
    print(f"options/attempt:     {stats.options_per_attempt:.2f}")
    print(f"checks/attempt:      {stats.checks_per_attempt:.2f}")
    print(f"wall seconds:        {elapsed:.3f}")
    if args.cache_dir:
        print(f"description cache:   {cache.disk_hits} disk hit(s), "
              f"{cache.disk_misses} miss(es), {cache.disk_stores} "
              f"store(s), {cache.disk_quarantined} quarantined")
    if result.verify_report is not None:
        report = result.verify_report
        verdict = "ok" if report.ok else (
            f"FAILED ({len(report.diagnostics)} diagnostics)"
        )
        print(f"oracle verification: {verdict} "
              f"({report.blocks_checked} blocks replayed)")
    if result.retries or result.errors:
        print(f"resilience:          {result.retries} retry(ies), "
              f"{result.quarantined} quarantined")
        for failure in result.errors:
            print(f"  quarantined block {failure.block_index}: "
                  f"{failure.error_type}: {failure.message}")
    return 0


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
        cache_dir=args.cache_dir,
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
    import json

    from repro.engine import engine_names
    from repro.scheduler import schedule_workload
    from repro.verify import (
        check_corpus,
        check_synth_fleet,
        verify_schedule,
        write_corpus,
        write_synth_fleet,
    )
    from repro.workloads import WorkloadConfig, generate_blocks

    if args.golden:
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

    machines = [args.machine] if args.machine else list(MACHINE_NAMES)
    backends = (
        [args.backend] if args.backend
        else list(engine_names(scheduler="list"))
    )
    results = []
    failed = False
    for machine_name in machines:
        machine = get_machine(machine_name)
        blocks = generate_blocks(machine, WorkloadConfig(
            total_ops=args.ops, seed=args.seed,
        ))
        for backend in backends:
            from repro.engine import create_engine, get_engine_spec

            if get_engine_spec(backend).scheduler == "exact":
                from repro import api

                if args.direction != "forward":
                    print(
                        "verify --backend exact schedules forward only",
                        file=sys.stderr,
                    )
                    return 2
                run = api.schedule_exact(api.ScheduleRequest(
                    machine=machine, blocks=tuple(blocks),
                    backend=backend, stage=args.stage,
                )).result
            else:
                engine = create_engine(backend, machine, stage=args.stage)
                run = schedule_workload(
                    machine, None, blocks, keep_schedules=True,
                    direction=args.direction, engine=engine,
                )
            report = verify_schedule(
                machine, run, direction=args.direction
            )
            summary = report.summary()
            summary["backend"] = backend
            results.append(summary)
            if not report.ok:
                failed = True
                if not args.json:
                    for diagnostic in report.diagnostics:
                        print(f"  {diagnostic}", file=sys.stderr)
            if not args.json:
                verdict = "ok" if report.ok else (
                    f"FAILED ({len(report.diagnostics)} diagnostics)"
                )
                print(
                    f"{machine_name:11s} {backend:13s} "
                    f"{report.blocks_checked:4d} blocks "
                    f"{report.ops_checked:6d} ops  {verdict}"
                )
    if args.json:
        print(json.dumps(results, indent=2))
    return 1 if failed else 0


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
        cache_dir=args.cache_dir,
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
    from repro.workloads import WorkloadConfig, generate_blocks

    obs.enable()
    if getattr(args, "memory", False):
        obs.enable_memory()
    obs.reset()
    machine = get_machine(args.machine)
    blocks = generate_blocks(
        machine, WorkloadConfig(total_ops=args.ops, seed=args.seed)
    )
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
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Machine-description optimization toolkit (MICRO-29 1996 "
            "reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

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
    compile_cmd.add_argument("--stage", type=int, default=4)
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
    generate.add_argument("--seed", type=int, default=20161202)
    generate.add_argument("-o", "--output", required=True)

    schedule = commands.add_parser(
        "schedule", help="schedule a workload and report statistics"
    )
    schedule.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                          default=None)
    schedule.add_argument("--trace", default=None)
    schedule.add_argument("--lmdes", default=None,
                          help="schedule against a compiled LMDES file")
    schedule.add_argument("--ops", type=int, default=10000)
    schedule.add_argument("--seed", type=int, default=20161202)
    schedule.add_argument("--rep", choices=("or", "andor"),
                          default="andor")
    schedule.add_argument("--stage", type=int, default=4,
                          help="transformation stage 0-4")
    schedule.add_argument("--no-bitvector", action="store_true")
    from repro.engine import engine_names

    schedule.add_argument(
        "--backend", choices=engine_names(), default=None,
        help=(
            "constraint-check backend from the engine registry "
            "(overrides --rep/--no-bitvector)"
        ),
    )
    schedule.add_argument(
        "--json", action="store_true",
        help=(
            "emit a machine-readable result document with per-phase "
            "timings and per-transform effects (forces obs on)"
        ),
    )
    schedule.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run's span tree as JSONL (forces obs on)",
    )

    exact = commands.add_parser(
        "exact",
        help=(
            "schedule a workload with the branch-and-bound exact "
            "scheduler and report the optimality gap"
        ),
    )
    exact.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                       required=True)
    exact.add_argument("--ops", type=int, default=200,
                       help="workload size (exact search is exponential; "
                            "keep this small)")
    exact.add_argument("--seed", type=int, default=20161202)
    exact.add_argument("--stage", type=int, default=4,
                       help="transformation stage 0-4")
    exact.add_argument(
        "--backend", choices=engine_names(scheduler="exact"),
        default="exact",
        help="exact-scheduler backend from the engine registry",
    )
    exact.add_argument(
        "--node-budget", type=int, default=None, metavar="N",
        help="search-node budget per block (default: the registry's)",
    )
    exact.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per block (default: unbounded)",
    )
    exact.add_argument(
        "--max-block-ops", type=int, default=None, metavar="N",
        help=(
            "largest block to search exactly; bigger blocks keep the "
            "heuristic schedule (default: the registry's cap)"
        ),
    )
    exact.add_argument("--json", action="store_true",
                       help="emit a machine-readable result document "
                            "(forces obs on)")

    batch = commands.add_parser(
        "schedule-batch",
        help=(
            "schedule a workload in chunks, with a persistent on-disk "
            "description cache"
        ),
    )
    batch.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                       default=None)
    batch.add_argument("--trace", default=None)
    batch.add_argument("--lmdes", default=None,
                       help="schedule against a compiled LMDES file")
    batch.add_argument("--ops", type=int, default=10000)
    batch.add_argument("--seed", type=int, default=20161202)
    batch.add_argument("--stage", type=int, default=4,
                       help="transformation stage 0-4")
    batch.add_argument(
        "--backend", choices=engine_names(), default=None,
        help="constraint-check backend (default: bitvector)",
    )
    batch.add_argument("--chunk-size", type=int, default=32,
                       help="blocks per chunk, the unit of retry")
    batch.add_argument(
        "--cache-dir", default=None,
        help=(
            "persistent description-cache directory (warm runs "
            "load_lmdes instead of recompiling)"
        ),
    )
    batch.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per chunk on retryable failures",
    )
    batch.add_argument(
        "--on-error", choices=("raise", "report"), default="raise",
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
    batch.add_argument("--json", action="store_true",
                       help="emit a machine-readable result document")
    batch.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help=(
            "write the run's span tree as JSONL, including per-chunk "
            "spans (forces obs on)"
        ),
    )

    from repro.machines.synth import family_names

    sweep = commands.add_parser(
        "sweep",
        help=(
            "schedule one fixed workload across a seeded synthetic "
            "machine fleet and report transform effectiveness vs. "
            "machine complexity"
        ),
    )
    sweep.add_argument(
        "--family", choices=family_names(), default="superscalar-wide",
        help="synth family preset the fleet is drawn from",
    )
    sweep.add_argument("--count", type=int, default=100,
                       help="fleet size (variant indices 0..count-1)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="fleet seed")
    sweep.add_argument("--ops", type=int, default=64,
                       help="workload ops scheduled on every variant")
    sweep.add_argument("--workload-seed", type=int, default=20161202)
    sweep.add_argument(
        "--backend", choices=engine_names(scheduler="list"),
        default="bitvector",
        help="constraint-check backend (default: bitvector)",
    )
    sweep.add_argument("--stage", type=int, default=4,
                       help="transformation stage 0-4")
    sweep.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-variant oracle replay",
    )
    sweep.add_argument(
        "--exact-sample", type=int, default=0, metavar="N",
        help=(
            "run the exact scheduler on every Nth variant and record "
            "the optimality gap (0 = off)"
        ),
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="persistent description-cache directory for the fleet",
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
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8181)
    serve.add_argument(
        "--cache-dir", default=None,
        help="persistent description-cache directory shared by all "
             "requests",
    )
    serve.add_argument("--chunk-size", type=int, default=32,
                       help="blocks per batch chunk")
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="admitted requests across all clients before 429",
    )
    serve.add_argument(
        "--per-client", type=int, default=8,
        help="admitted requests per client id before 429",
    )
    serve.add_argument(
        "--window-ms", type=float, default=4.0,
        help="micro-batch window: requests arriving within it share "
             "one batch run",
    )
    serve.add_argument(
        "--submit-threads", type=int, default=4,
        help="executor threads driving batch runs",
    )
    serve.add_argument(
        "--prewarm", action="append", default=None, metavar="MACHINE",
        help="compile MACHINE's description at startup (repeatable; "
             "'all' prewarm every built-in machine)",
    )
    serve.add_argument(
        "--prewarm-backend", default="bitvector",
        choices=engine_names(),
        help="backend to prewarm (default: bitvector)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline when the client sets none",
    )
    serve.add_argument(
        "--drain", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests",
    )

    verify = commands.add_parser(
        "verify",
        help=(
            "replay schedules through the independent oracle, or check "
            "the golden conformance corpus"
        ),
    )
    verify.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                        default=None,
                        help="one machine (default: the paper's four)")
    verify.add_argument("--backend", choices=engine_names(), default=None,
                        help="one backend (default: every registered one)")
    verify.add_argument("--ops", type=int, default=2000)
    verify.add_argument("--seed", type=int, default=20161202)
    verify.add_argument("--stage", type=int, default=4,
                        help="transformation stage 0-4")
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

    def _obs_demo_args(sub, machine_required: bool = True) -> None:
        sub.add_argument("--machine", type=_machine_arg, metavar="MACHINE",
                         required=machine_required, default=None)
        sub.add_argument("--backend", choices=engine_names(),
                         default="bitvector")
        sub.add_argument("--ops", type=int, default=2000)
        sub.add_argument("--seed", type=int, default=20161202)
        sub.add_argument("--stage", type=int, default=4,
                         help="transformation stage 0-4")
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
    _obs_demo_args(stats)
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
    _obs_demo_args(trace, machine_required=False)
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
