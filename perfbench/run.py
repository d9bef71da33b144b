"""The repo benchmark: one workload per run, correctness checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload describe --seed 1 --seconds 20 \\
        --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
readable summary.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones.  The exit code is 0 only when every
output checked out.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their span files.
OUT_DIR = ROOT / ".perfbench-out"


def _parse():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("describe", "fleet", "schedule", "serve"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _workload(name: str, seed: int, seconds: float, traced: bool):
    if name == "describe":
        from perfbench.describe import Describe as cls
    elif name == "fleet":
        from perfbench.fleet import Fleet as cls
    elif name == "schedule":
        from perfbench.schedule import Schedule as cls
    else:
        from perfbench.serve import Serve as cls
    return cls(seed, seconds, traced)


def run_untraced(workload, seconds: float):
    from perfbench.common import Outcome, end_to_end_metrics, setup_median

    setup_s = setup_median(workload.setup)
    outcome = Outcome()
    timed = 0.0
    cycles = 0
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        workload.cycle(outcome)
        timed += time.perf_counter() - begin
        workload.finish_cycle(outcome)
        cycles += 1
        if _enough(started, timed / cycles, seconds):
            break
    outcome.notes["cycles"] = cycles
    return outcome, end_to_end_metrics(outcome, setup_s)


def _enough(started: float, cycle_seconds: float, seconds: float) -> bool:
    """Whether to stop: another cycle would end more than half a cycle
    past the run's time.  Runs measure whole cycles this way."""
    elapsed = time.perf_counter() - started
    return elapsed + cycle_seconds / 2 > seconds


def run_traced(workload, seconds: float, seed: int):
    """A traced set-up, then untraced and traced cycles of the same
    work in turn.

    Pairs run until about ``seconds`` have passed; the tracing overhead
    is the traced cycles' wall time minus the untraced ones'.  Every
    cycle must compute the same results (its fingerprint).
    """
    from perfbench.common import Outcome
    from perfbench.layers import bindings, check_self_sum, layer_metrics
    from perfbench.tracing import Tracer, patched

    # Set-up is traced too: it is where ``schedule`` compiles.
    tracer = Tracer()
    with patched(bindings(tracer)):
        begin = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.setup()
        setup_wall = time.perf_counter() - begin
    if workload.warmup:
        # One unmeasured cycle, so lazy imports and the allocator's first
        # growth land on neither side of the overhead.
        workload.cycle(Outcome())
    untraced, outcome = Outcome(), Outcome()
    walls = {False: 0.0, True: 0.0}
    expected = None
    pairs = 0
    started = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                with patched(bindings(tracer)):
                    begin = time.perf_counter()
                    with tracer.span(f"bench.{workload.name}"):
                        workload.cycle(outcome)
                    walls[True] += time.perf_counter() - begin
            else:
                begin = time.perf_counter()
                workload.cycle(untraced)
                walls[False] += time.perf_counter() - begin
            fingerprint = workload.finish_cycle(
                outcome if traced else untraced
            )
            if expected is None:
                expected = fingerprint
            elif fingerprint != expected:
                outcome.fail("the traced run computed different results")
            workload.reset()
        pairs += 1
        if _enough(started, (time.perf_counter() - started) / pairs, seconds):
            break
    metrics, error, table = layer_metrics(
        tracer, setup_wall + walls[True], walls[True], walls[False],
        threading.get_ident(), workload.layer_extra(),
    )
    problem = check_self_sum(error)
    if problem:
        outcome.fail(problem)
    outcome.attempted += untraced.attempted
    outcome.failed += untraced.failed
    outcome.errors = untraced.errors + outcome.errors
    outcome.notes["cycle_pairs"] = pairs

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    rows = [
        dict(machine=machine, backend=backend, **row)
        for (machine, backend), row in sorted(table.items())
    ]
    with open(OUT_DIR / f"engines-{stem}.json", "w") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
    outcome.notes["span_file"] = str(
        (OUT_DIR / f"spans-{stem}.jsonl").relative_to(ROOT)
    )
    outcome.notes["engine_table"] = rows
    return outcome, metrics


def _summary(name: str, outcome, metrics, traced: bool) -> None:
    attempted = max(outcome.attempted, 1)
    print(f"workload {name}: {outcome.attempted} attempted, "
          f"{outcome.failed} failed, error_share "
          f"{outcome.failed / attempted:.6f}")
    for message in outcome.errors:
        print(f"  error: {message}")
    for key, value in sorted(outcome.notes.items()):
        if key != "engine_table":
            print(f"  {key}: {value}")
    rows = outcome.notes.get("engine_table", ())
    if traced and 0 < len(rows) <= 24:
        print("  machine     backend       opts/att checks/att "
              "ns/check us/call")
        for row in rows:
            print(
                f"  {row['machine']:<11} {row['backend']:<12} "
                f"{row['options_per_attempt']:8.2f} "
                f"{row['checks_per_attempt']:10.2f} "
                f"{row['ns_per_check']:8.1f} {row['us_per_call']:7.2f}"
            )
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")


#: The hash seed every run uses.  Dict and set iteration orders decide
#: how much work some transforms do; with a random seed per process the
#: compile times alone differ by about 10% from run to run.
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    args = _parse()
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {source}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    # Import the checkout's sources and this package by its name, not
    # the script directory's modules as top-level names.
    sys.path[0:1] = [str(source), str(ROOT)]

    workload = _workload(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    try:
        if args.trace:
            outcome, metrics = run_traced(workload, args.seconds, args.seed)
        else:
            outcome, metrics = run_untraced(workload, args.seconds)
    except Exception:
        traceback.print_exc()
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }))
        return 1
    finally:
        workload.close()
    _summary(args.workload, outcome, metrics, bool(args.trace))
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
